import random

import pytest

from sidkit.corpus import Dataset, Utterance
from sidkit.noise import (
    Alphabet,
    NoiseConfig,
    NoiseError,
    OpWeights,
    build_alphabet,
    noise_dataset,
    noise_utterance,
    noise_word,
)
from sidkit.rng import round_half_up


def levenshtein(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


# ---------------------------------------------------------------------------
# Alphabet
# ---------------------------------------------------------------------------


def test_build_alphabet_collects_letters():
    assert set(build_alphabet("minn mæ").chars) == {"m", "i", "n", "æ"}


def test_build_alphabet_ignores_non_letters():
    assert build_alphabet("123 !!").chars == ()


def test_build_alphabet_preserves_case_and_sorts():
    alphabet = build_alphabet("bA ab")
    assert alphabet.chars == ("A", "a", "b")


def test_alphabet_rejects_non_letters():
    with pytest.raises(ValueError):
        Alphabet(chars=("a", "1"))


# ---------------------------------------------------------------------------
# noise_word kernel
# ---------------------------------------------------------------------------


def test_kernel_substitution():
    assert noise_word("hente", "both", 3, "k") == "henke"


def test_kernel_insert():
    assert noise_word("Minner", "insert", 2, "d") == "Midnner"


def test_kernel_reaches_illustrated_edit():
    # a substitution at index 2 turns "Minner" into the attested "Midner"
    assert noise_word("Minner", "both", 2, "d") == "Midner"


def test_kernel_delete():
    assert noise_word("ab", "delete", 0) == "b"


def test_kernel_position_out_of_range():
    with pytest.raises(NoiseError):
        noise_word("ab", "delete", 2)
    with pytest.raises(NoiseError):
        noise_word("ab", "insert", 3, "x")
    with pytest.raises(NoiseError):
        noise_word("ab", "both", -1, "x")


def test_kernel_refuses_delete_on_single_char():
    with pytest.raises(NoiseError):
        noise_word("a", "delete", 0)
    with pytest.raises(NoiseError):
        noise_word("a", "both", 0, "x")


def test_kernel_insert_positions_cover_whole_word():
    assert noise_word("ab", "insert", 0, "x") == "xab"
    assert noise_word("ab", "insert", 2, "x") == "abx"


# ---------------------------------------------------------------------------
# Dataset-level noise
# ---------------------------------------------------------------------------


def synthetic_corpus(n_sentences=200, seed=0):
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyzæøå"
    utterances = []
    for i in range(n_sentences):
        n_alpha = rng.randint(8, 12)
        tokens = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
                  for _ in range(n_alpha)]
        # sprinkle in tokens the noiser must never touch
        for extra in ("3", "pm.", "!"):
            if rng.random() < 0.5:
                tokens.insert(rng.randint(0, len(tokens)), extra)
        tags = ["O"] * len(tokens)
        utterances.append(
            Utterance(id=str(i), tokens=tuple(tokens), slot_tags=tuple(tags), intent="intent/x")
        )
    return Dataset(name="synthetic", utterances=tuple(utterances))


CFG = NoiseConfig(word_fraction=0.2, alphabet=build_alphabet("abcdefghijæøå"), seed=7)


def test_zero_fraction_is_identity():
    corpus = synthetic_corpus()
    cfg = NoiseConfig(word_fraction=0.0, alphabet=CFG.alphabet, seed=1)
    assert noise_dataset(corpus, cfg) == corpus


def test_same_config_same_output():
    corpus = synthetic_corpus()
    assert noise_dataset(corpus, CFG) == noise_dataset(corpus, CFG)


def test_different_seed_different_output():
    corpus = synthetic_corpus()
    other = NoiseConfig(word_fraction=0.2, alphabet=CFG.alphabet, seed=8)
    assert noise_dataset(corpus, CFG) != noise_dataset(corpus, other)


def test_shape_and_annotation_preserved():
    corpus = synthetic_corpus()
    noised = noise_dataset(corpus, CFG)
    for before, after in zip(corpus.utterances, noised.utterances):
        assert len(before.tokens) == len(after.tokens)
        assert before.slot_tags == after.slot_tags
        assert before.intent == after.intent
        assert before.id == after.id


def test_selection_count_is_exact_per_sentence():
    corpus = synthetic_corpus()
    for fraction in (0.1, 0.2, 0.3):
        cfg = NoiseConfig(word_fraction=fraction, alphabet=CFG.alphabet, seed=13)
        noised = noise_dataset(corpus, cfg)
        for before, after in zip(corpus.utterances, noised.utterances):
            n_alpha = sum(tok.isalpha() for tok in before.tokens)
            modified = sum(a != b for a, b in zip(before.tokens, after.tokens))
            assert modified == round_half_up(fraction * n_alpha)


def test_selection_count_is_exact_at_a_half_boundary():
    # 0.7 * 45 is 31.499... as a float; the exact share is 31.5, which rounds up
    tokens = tuple(f"ord{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(45))
    utt = Utterance(id="u", tokens=tokens, slot_tags=("O",) * 45, intent="i")
    cfg = NoiseConfig(word_fraction=0.7, alphabet=CFG.alphabet, seed=13)
    noised = noise_utterance(utt, cfg)
    assert sum(a != b for a, b in zip(utt.tokens, noised.tokens)) == 32


def test_non_alphabetic_tokens_never_modified():
    corpus = synthetic_corpus()
    cfg = NoiseConfig(word_fraction=1.0, alphabet=CFG.alphabet, seed=3)
    noised = noise_dataset(corpus, cfg)
    for before, after in zip(corpus.utterances, noised.utterances):
        for tok_before, tok_after in zip(before.tokens, after.tokens):
            if not tok_before.isalpha():
                assert tok_before == tok_after


def test_edit_locality():
    corpus = synthetic_corpus()
    cfg = NoiseConfig(word_fraction=1.0, alphabet=CFG.alphabet, seed=5)
    noised = noise_dataset(corpus, cfg)
    for before, after in zip(corpus.utterances, noised.utterances):
        for tok_before, tok_after in zip(before.tokens, after.tokens):
            if tok_before == tok_after:
                continue
            assert abs(len(tok_after) - len(tok_before)) <= 1
            assert levenshtein(tok_before, tok_after) == 1


def test_single_char_words_get_insertions():
    utt = Utterance(id="0", tokens=("a",), slot_tags=("O",), intent="x")
    corpus = Dataset(name="d", utterances=(utt,))
    cfg = NoiseConfig(
        word_fraction=1.0,
        alphabet=build_alphabet("xyz"),
        op_weights=OpWeights(delete=1.0, insert=0.0, both=0.0),
        seed=2,
    )
    noised = noise_dataset(corpus, cfg)
    assert len(noised.utterances[0].tokens[0]) == 2  # insert forced despite delete-only weights


def test_noise_independent_of_corpus_order():
    corpus = synthetic_corpus(50)
    reversed_corpus = Dataset(name="rev", utterances=tuple(reversed(corpus.utterances)))
    by_id = {u.id: u for u in noise_dataset(corpus, CFG).utterances}
    by_id_rev = {u.id: u for u in noise_dataset(reversed_corpus, CFG).utterances}
    assert by_id == by_id_rev


def test_empty_alphabet_errors_when_insert_drawn():
    utt = Utterance(id="0", tokens=("ab",), slot_tags=("O",), intent="x")
    corpus = Dataset(name="d", utterances=(utt,))
    cfg = NoiseConfig(
        word_fraction=1.0,
        alphabet=Alphabet(chars=()),
        op_weights=OpWeights(delete=0.0, insert=1.0, both=0.0),
        seed=2,
    )
    with pytest.raises(NoiseError, match="alphabet"):
        noise_dataset(corpus, cfg)


def test_empty_alphabet_fine_for_pure_deletion():
    utt = Utterance(id="0", tokens=("abc",), slot_tags=("O",), intent="x")
    corpus = Dataset(name="d", utterances=(utt,))
    cfg = NoiseConfig(
        word_fraction=1.0,
        alphabet=Alphabet(chars=()),
        op_weights=OpWeights(delete=1.0, insert=0.0, both=0.0),
        seed=2,
    )
    assert len(noise_dataset(corpus, cfg).utterances[0].tokens[0]) == 2


def test_substitution_never_yields_identical_word():
    utt = Utterance(id="0", tokens=("aaaa",), slot_tags=("O",), intent="x")
    corpus = Dataset(name="d", utterances=(utt,))
    cfg = NoiseConfig(
        word_fraction=1.0,
        alphabet=build_alphabet("ab"),
        op_weights=OpWeights(delete=0.0, insert=0.0, both=1.0),
        seed=0,
    )
    for seed in range(20):
        cfg = NoiseConfig(word_fraction=1.0, alphabet=cfg.alphabet,
                          op_weights=cfg.op_weights, seed=seed)
        result = noise_dataset(corpus, cfg).utterances[0].tokens[0]
        assert result != "aaaa"
        assert "b" in result


def test_substitution_with_singleton_alphabet_errors():
    utt = Utterance(id="0", tokens=("aa",), slot_tags=("O",), intent="x")
    corpus = Dataset(name="d", utterances=(utt,))
    cfg = NoiseConfig(
        word_fraction=1.0,
        alphabet=build_alphabet("a"),
        op_weights=OpWeights(delete=0.0, insert=0.0, both=1.0),
        seed=1,
    )
    with pytest.raises(NoiseError, match="substitution"):
        noise_dataset(corpus, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(word_fraction=1.2, alphabet=CFG.alphabet)
    with pytest.raises(ValueError):
        OpWeights(delete=0.0, insert=0.0, both=0.0)
    with pytest.raises(ValueError):
        OpWeights(delete=-1.0, insert=1.0, both=1.0)


def test_config_json_round_trip():
    cfg = NoiseConfig(
        word_fraction=0.3,
        alphabet=build_alphabet("abcæ"),
        op_weights=OpWeights(delete=2.0, insert=1.0, both=0.5),
        seed=99,
    )
    assert NoiseConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError, match="unknown"):
        NoiseConfig.from_json('{"word_fraction": 0.1, "alphabet": "ab", "extra": 1}')


def test_noise_utterance_with_no_alphabetic_words():
    utt = Utterance(id="0", tokens=("3", "!", "pm."), slot_tags=("O", "O", "O"), intent="x")
    assert noise_utterance(utt, CFG) == utt
