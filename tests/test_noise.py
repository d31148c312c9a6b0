import dataclasses
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_share
from sidkit.corpus import Dataset, Utterance
from sidkit.noise import (
    _OPS,
    Alphabet,
    NoiseConfig,
    NoiseError,
    OpWeights,
    build_alphabet,
    noise_dataset,
    noise_word,
    _Draws,
)
from sidkit.rng import SplitMix64


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


@given(
    st.integers(0, 2**64 - 1),
    st.floats(0, 1),
    st.sampled_from([(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0.3, 2.5, 1e-3)]),
    st.sampled_from(["abcdefghijæøå", "øØ", "xyz"]),
)
@settings(max_examples=100, deadline=None)
def test_noised_utterances_equal_checked_ones(seed, fraction, weights, letters):
    cfg = NoiseConfig(fraction, build_alphabet(letters), OpWeights(*weights), seed)
    names = [field.name for field in dataclasses.fields(Utterance)]
    for utt in noise_dataset(synthetic_corpus(40, seed % 7), cfg):
        checked = Utterance(**{name: getattr(utt, name) for name in names})
        assert type(utt) is Utterance
        assert [getattr(utt, name) for name in names] == [getattr(checked, name) for name in names]
        assert utt == checked and checked == utt
        assert hash(utt) == hash(checked)


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
            assert modified == exact_share(fraction, n_alpha)


def test_selection_count_is_exact_at_a_half_boundary():
    # 0.7 * 45 is 31.499... as a float; the exact share is 31.5, which rounds up
    tokens = tuple(f"ord{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(45))
    utt = Utterance(id="u", tokens=tokens, slot_tags=("O",) * 45, intent="i")
    cfg = NoiseConfig(word_fraction=0.7, alphabet=CFG.alphabet, seed=13)
    (noised,) = noise_dataset(Dataset(name="d", utterances=(utt,)), cfg)
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
    with pytest.raises(ValueError, match="must have a finite sum"):
        OpWeights(delete=1e308, insert=1e308, both=1e308)
    with pytest.raises(ValueError, match="must have a finite sum"):
        OpWeights(delete=sys.float_info.max, insert=0.0, both=sys.float_info.max)


def test_noise_utterance_with_no_alphabetic_words():
    utt = Utterance(id="0", tokens=("3", "!", "pm."), slot_tags=("O", "O", "O"), intent="x")
    assert noise_dataset(Dataset(name="d", utterances=(utt,)), CFG).utterances == (utt,)


# ---------------------------------------------------------------------------
# Pinned outputs and the draw tables
# ---------------------------------------------------------------------------

PIN_SENTENCES = {
    "u1": "hei på deg i dag 12 x",  # single letters in ("i") and out of ("x") the alphabet
    "u2": "zzz kan du vekke meg a !",  # "zzz": no letter of it is in the alphabet
    "u3": "ø qq morgen tidlig ja",
}
# The noised sentences of PIN_SENTENCES under alphabet "abeinø" and seed 5, per
# (word fraction, op weights); recorded from the implementation that drew every
# op as running_sum_draw below does and every substitute from a fresh tuple.
PINNED = {
    (0.1, (1, 1, 1)): ["hei på deg ii dag 12 x", "zzz kan du vkke meg a !", "ø qq morgen tiblig ja"],
    (0.1, (0, 0, 1)): ["hei på deg ii dag 12 x", "zzz kan du vøkke meg a !", "ø qq morgen tiblig ja"],
    (0.1, (1, 0, 0)): ["hei på deg ii dag 12 x", "zzz kan du vkke meg a !", "ø qq morgen tilig ja"],
    (0.1, (0.3, 2.5, 1e-3)): ["hei på deg ii dag 12 x", "zzz kan du veakke meg a !", "ø qq morgen btidlig ja"],
    (0.5, (1, 1, 1)): ["hei på neg ni dag 12 xi", "zzz kan dui vakke meg ea !", "ø qø morgen tidløg ji"],
    (0.5, (0, 0, 1)): ["hei på neg ni dag 12 xi", "zzz kan di vakke meg ea !", "ø qø morgen tidløg ji"],
    (0.5, (1, 0, 0)): ["hei på eg ai dag 12 øx", "zzz kan d veke meg øa !", "ø q morgen tilig j"],
    (0.5, (0.3, 2.5, 1e-3)): ["hei på deng ni dag 12 xi", "zzz kan dui veøkke meg ea !", "ø qøq morgen tidligb jba"],
    (1.0, (1, 1, 1)): ["heøi p deeg øi ag 12 bx", "zzø ka d venkke mbeg ai !", "øe qa moørgen tidig j"],
    (1.0, (0, 0, 1)): ["hii pn dee ie dab 12 xb", "zzø kaø de veike mei aø !", "øe qa mørgen tidnig aa"],
    (1.0, (1, 0, 0)): ["hi p dg ie da 12 ix", "zz kn d vekk mg ia !", "øe q mrgen tidli j"],
    (1.0, (0.3, 2.5, 1e-3)): ["heøi npå edeg ie dabg 12 xb", "øzzz kain due ivekke mieg aø !", "øe qaq moørgen tidling jaa"],
}


@pytest.mark.parametrize("fraction, weights", sorted(PINNED))
def test_noised_tokens_are_pinned(fraction, weights):
    corpus = Dataset(name="pin", utterances=tuple(
        Utterance(id=i, tokens=tuple(s.split()), slot_tags=("O",) * len(s.split()), intent="x")
        for i, s in PIN_SENTENCES.items()
    ))
    cfg = NoiseConfig(fraction, Alphabet(chars=tuple("abeinø")), OpWeights(*weights), seed=5)
    noised = noise_dataset(corpus, cfg)
    assert [" ".join(utt.tokens) for utt in noised] == PINNED[fraction, weights]
    # each utterance's noise depends on its own id alone, not on its neighbours
    assert [noise_dataset(Dataset(name="one", utterances=(utt,)), cfg).utterances[0] for utt in corpus] == list(noised)


def running_sum_draw(rng, weights):
    """The op draw restated: the first op whose running sum of ``weights`` exceeds
    ``next_float()`` times their sum; where rounding carries that product up to
    the sum, which only a subnormal sum allows, the last op with a weight."""
    u = rng.next_float() * (weights[0] + weights[1] + weights[2])
    acc = 0.0
    for op, weight in zip(_OPS, weights):
        acc += weight
        if u < acc:
            return op
    return [op for op, weight in zip(_OPS, weights) if weight][-1]


finite_weights = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | st.integers(0, 10**6)
MAX = sys.float_info.max


class FixedFloat(SplitMix64):
    """A generator whose every float draw is ``value``."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def next_float(self):
        return self.value


@given(
    st.tuples(finite_weights, finite_weights, finite_weights).filter(lambda w: 0 < w[0] + w[1] + w[2] <= MAX),
    st.integers(0, 2**64 - 1),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@example((0.1, 0.2, 0.3), 0, 0.5)  # u lands on the second running sum, 0.30000000000000004
@example((MAX, 0.0, 0.0), 0, 1 - 2**-53)
@example((0.0, MAX / 2, MAX / 2), 0, 1 - 2**-53)
@example((5e-324, 0.0, 0.0), 0, 0.75)  # u rounds up to the subnormal sum
@settings(max_examples=500)
def test_op_table_draws_what_the_running_sums_draw(weights, seed, value):
    expected, got = SplitMix64(seed), SplitMix64(seed)
    draws = _Draws(NoiseConfig(0.5, Alphabet(chars=()), OpWeights(*weights)))
    op = draws.op(got)
    assert op == running_sum_draw(expected, weights)
    assert got.next_u64() == expected.next_u64()  # the same number of draws was taken
    # any float in [0, 1), including those that land on a bound
    fixed = draws.op(FixedFloat(value))
    assert fixed == running_sum_draw(FixedFloat(value), weights)
    assert weights[_OPS.index(op)] > 0 and weights[_OPS.index(fixed)] > 0


near_max = st.floats(min_value=MAX / 8, max_value=MAX / 4)


@given(st.tuples(near_max, near_max, near_max), st.integers(0, 2**64 - 1))
@settings(max_examples=50)
def test_weights_near_the_largest_float_draw_every_op(weights, seed):
    rng = SplitMix64(seed)
    draws = _Draws(NoiseConfig(0.5, Alphabet(chars=()), OpWeights(*weights)))
    assert {draws.op(rng) for _ in range(200)} == set(_OPS)


@given(
    st.lists(st.sampled_from("abcdeøåxyz"), min_size=1, max_size=10, unique=True),
    st.sampled_from("abcdeøåxyz"),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=500)
def test_substitute_draws_what_the_tuple_choice_draws(chars, old, seed):
    candidates = tuple(ch for ch in chars if ch != old)
    draws = _Draws(NoiseConfig(0.5, Alphabet(chars=tuple(chars))))
    expected, got = SplitMix64(seed), SplitMix64(seed)
    if not candidates:
        with pytest.raises(NoiseError, match=f"no character different from {old!r}"):
            draws.substitute(got, old)
        return
    assert draws.substitute(got, old) == expected.choice(candidates)
    assert got.next_u64() == expected.next_u64()
