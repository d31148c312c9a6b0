import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit.corpus import Dataset, Utterance
from sidkit.subword import SubwordError, SubwordVocab, split_word_ratio

VOCAB = SubwordVocab(tokens=frozenset({"hei", "he", "##i", "##r", "du", "[UNK]"}))


def tokenize_word(vocab, word, marker="##"):
    """Oracle: greedy longest-match-first (WordPiece) segmentation, each piece
    after the first carrying ``marker``; [unk] when no segmentation exists."""
    pieces, start = [], 0
    while start < len(word):
        for end in range(len(word), start, -1):
            piece = word[start:end] if start == 0 else marker + word[start:end]
            if piece in vocab.tokens:
                break
        else:
            return [vocab.unk_token]
        pieces.append(piece)
        start = end
    return pieces


def test_whole_word_hit():
    assert tokenize_word(VOCAB, "hei") == ["hei"]


def test_greedy_longest_match_first():
    vocab = SubwordVocab(tokens=frozenset({"he", "##i", "[UNK]"}))
    assert tokenize_word(vocab, "hei") == ["he", "##i"]


def test_greedy_prefers_longest_prefix():
    # both "he"+"##ir" and "hei"+"##r" segment the word; greedy must take "hei"
    vocab = SubwordVocab(tokens=frozenset({"he", "hei", "##ir", "##r", "[UNK]"}))
    assert tokenize_word(vocab, "heir") == ["hei", "##r"]


def test_unknown_character_yields_unk():
    assert tokenize_word(VOCAB, "xyz") == ["[UNK]"]


def test_unsegmentable_suffix_yields_unk():
    assert tokenize_word(VOCAB, "heix") == ["[UNK]"]


def test_pieces_reassemble_to_word():
    vocab = SubwordVocab(
        tokens=frozenset({"mor", "##gen", "##dag", "##en", "[UNK]"})
    )
    pieces = tokenize_word(vocab, "morgendagen")
    assert pieces == ["mor", "##gen", "##dag", "##en"]
    joined = pieces[0] + "".join(p[2:] for p in pieces[1:])
    assert joined == "morgendagen"


def test_pieces_reassemble_for_random_vocabularies():
    import random

    rng = random.Random(8)
    letters = "abcdefæøå"
    for _ in range(200):
        word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 10)))
        pieces = set()
        for i in range(len(word)):
            for j in range(i + 1, len(word) + 1):
                if rng.random() < 0.4:
                    pieces.add(word[i:j] if i == 0 else "##" + word[i:j])
        vocab = SubwordVocab(tokens=frozenset(pieces | {"[UNK]"}))
        out = tokenize_word(vocab, word)
        if out != ["[UNK]"]:
            assert out[0] + "".join(p[2:] for p in out[1:]) == word


def test_custom_marker_and_unk():
    vocab = SubwordVocab(tokens=frozenset({"he", "@@i", "<unk>"}), unk_token="<unk>")
    assert tokenize_word(vocab, "hei", marker="@@") == ["he", "@@i"]
    assert tokenize_word(vocab, "zz", marker="@@") == ["<unk>"]


def test_vocab_validation():
    with pytest.raises(ValueError):
        SubwordVocab(tokens=frozenset())
    with pytest.raises(ValueError):
        SubwordVocab(tokens=frozenset({"a"}), unk_token="[UNK]")


def test_vocab_from_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[UNK]\nhei\n##r\n\n", encoding="utf-8")
    vocab = SubwordVocab.from_file(path)
    assert vocab.tokens == frozenset({"[UNK]", "hei", "##r"})


@pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028"])
def test_only_a_line_end_splits_a_vocabulary_line(tmp_path, separator):
    path = tmp_path / "vocab.txt"
    path.write_text(f"[UNK]\r\nab{separator}cd\rhei\n", encoding="utf-8")
    vocab = SubwordVocab.from_file(path)
    assert vocab.tokens == frozenset({"[UNK]", f"ab{separator}cd", "hei"})
    assert split_word_ratio(vocab, "ab cd hei") == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# Split-word ratio
# ---------------------------------------------------------------------------


def test_ratio_zero_when_all_words_known():
    vocab = SubwordVocab(tokens=frozenset({"hei", "du", "[UNK]"}))
    assert split_word_ratio(vocab, "hei du hei") == 0.0


def test_ratio_counts_unsegmentable_words():
    vocab = SubwordVocab(tokens=frozenset({"hei", "[UNK]"}))
    assert split_word_ratio(vocab, "hei du") == 0.5


def test_ratio_counts_multi_piece_words():
    vocab = SubwordVocab(tokens=frozenset({"he", "##i", "[UNK]"}))
    assert split_word_ratio(vocab, "hei hei") == 1.0


def test_ratio_over_dataset_tokens():
    d = Dataset(
        name="d",
        utterances=(
            Utterance(id="1", tokens=("hei", "du"), slot_tags=("O", "O"), intent="x"),
            Utterance(id="2", tokens=("hei", "zz"), slot_tags=("O", "O"), intent="x"),
        ),
    )
    vocab = SubwordVocab(tokens=frozenset({"hei", "du", "[UNK]"}))
    assert split_word_ratio(vocab, d) == 0.25


def split_ratio_per_token(vocab, words, marker="##"):
    """Oracle: segment every occurrence."""
    total = split = 0
    for word in words:
        total += 1
        pieces = tokenize_word(vocab, word, marker)
        split += len(pieces) > 1 or pieces == [vocab.unk_token]
    return split / total


def test_ratio_by_word_type_matches_per_token_loop():
    vocab = SubwordVocab(tokens=frozenset({"hei", "he", "##i", "du", "##r", "[UNK]"}))
    words = "hei du heir zz hei 12 du du hei heir x7 zz hei".split()
    dataset = Dataset(
        name="d",
        utterances=(
            Utterance(id="1", tokens=tuple(words[:6]), slot_tags=("O",) * 6, intent="x"),
            Utterance(id="2", tokens=tuple(words[6:]), slot_tags=("O",) * (len(words) - 6), intent="x"),
        ),
    )
    for letters_only in (False, True):
        expected = split_ratio_per_token(vocab, [w for w in words if w.isalpha() or not letters_only])
        for corpus in (dataset, " ".join(words)):
            assert split_word_ratio(vocab, corpus, letters_only=letters_only) == expected


def test_letters_only_filter():
    vocab = SubwordVocab(tokens=frozenset({"hei", "[UNK]"}))
    assert split_word_ratio(vocab, "hei 123 !", letters_only=True) == 0.0
    assert split_word_ratio(vocab, "hei 123 !") == pytest.approx(2 / 3)


def test_ratio_additivity_over_concatenation():
    vocab = SubwordVocab(tokens=frozenset({"hei", "du", "[UNK]"}))
    a = "hei zz zz"
    b = "du hei"
    ra = split_word_ratio(vocab, a)
    rb = split_word_ratio(vocab, b)
    combined = split_word_ratio(vocab, a + " " + b)
    na, nb = 3, 2
    assert combined == pytest.approx((ra * na + rb * nb) / (na + nb))


def test_empty_corpus_errors():
    vocab = SubwordVocab(tokens=frozenset({"a", "[UNK]"}))
    with pytest.raises(SubwordError):
        split_word_ratio(vocab, "")
    with pytest.raises(SubwordError):
        split_word_ratio(vocab, "123", letters_only=True)


# ---------------------------------------------------------------------------
# The ratio without segmentation
# ---------------------------------------------------------------------------

words = st.text(alphabet="abø1", min_size=1, max_size=4)


@st.composite
def vocabularies(draw):
    marker = draw(st.sampled_from(["##", "@@", ""]))
    unk = draw(st.sampled_from(["[UNK]", "<unk>", "a", "ab"]))  # an unk may also be a word
    pieces = draw(st.sets(st.text(alphabet="abø", min_size=1, max_size=4), max_size=10))
    tokens = frozenset({marker + p if draw(st.booleans()) else p for p in pieces} | {unk})
    return SubwordVocab(tokens=tokens, unk_token=unk), marker


@given(vocabularies(), st.lists(words, max_size=16), st.booleans())
@settings(max_examples=500)
def test_ratio_equals_the_per_token_segmentation(vocab_and_marker, corpus, letters_only):
    vocab, marker = vocab_and_marker
    kept = [w for w in corpus if w.isalpha() or not letters_only]
    if not kept:
        with pytest.raises(SubwordError, match="no words"):
            split_word_ratio(vocab, " ".join(corpus), letters_only=letters_only)
        return
    ratio = split_word_ratio(vocab, " ".join(corpus), letters_only=letters_only)
    assert ratio == split_ratio_per_token(vocab, kept, marker)


def test_ratio_counts_the_unknown_token_as_a_split_word():
    vocab = SubwordVocab(tokens=frozenset({"hei", "he", "##i", "du", "x", "[UNK]"}), unk_token="x")
    assert split_word_ratio(vocab, "hei du heir x zz hei 12 du x") == 5 / 9
