"""Subword split-ratio statistics under a plain vocabulary file.

Words are segmented by greedy longest-match-first lookup (WordPiece-style):
the longest vocabulary prefix is taken, then matching continues on the rest
with the continuation marker prepended to each candidate piece. A word with
no segmentation at some position collapses to the unknown token.

The split-word ratio of a corpus is the fraction of words that either
tokenize into more than one piece or cannot be segmented at all. Differences
in this ratio between training and evaluation corpora are the quantity fed
into the correlation analysis.

Greedy matching tries the whole word first, so a word is one piece exactly
when it is itself in the vocabulary; any other word splits into several
pieces or collapses to the unknown token. The ratio therefore needs no
segmentation: a word is split iff it is not a vocabulary piece or it is the
unknown token.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .corpus import Dataset, read_text


class SubwordError(ValueError):
    pass


@dataclass(frozen=True)
class SubwordVocab:
    tokens: frozenset[str]
    continuation_marker: str = "##"
    unk_token: str = "[UNK]"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", frozenset(self.tokens))
        if not self.tokens:
            raise ValueError("vocabulary must not be empty")
        if self.unk_token not in self.tokens:
            raise ValueError(f"unk token {self.unk_token!r} missing from vocabulary")

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        continuation_marker: str = "##",
        unk_token: str = "[UNK]",
    ) -> "SubwordVocab":
        """One subword per line, UTF-8; blank lines ignored. Only a line feed
        (or CRLF, CR) ends a line, so a piece may hold any other separator."""
        return read_text(path, lambda text: cls(
            tokens=frozenset(line for line in text.split("\n") if line.strip()),
            continuation_marker=continuation_marker,
            unk_token=unk_token,
        ))


def tokenize_word(vocab: SubwordVocab, word: str) -> list[str]:
    """Greedy longest-match segmentation; [unk] when no segmentation exists."""
    if not word:
        raise SubwordError("cannot tokenize an empty word")
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            candidate = word[start:end]
            if start > 0:
                candidate = vocab.continuation_marker + candidate
            if candidate in vocab.tokens:
                found = candidate
                break
            end -= 1
        if found is None:
            return [vocab.unk_token]
        pieces.append(found)
        start = end
    return pieces


Corpus = Union[Dataset, Iterable[str], str]


def _iter_words(corpus: Corpus, letters_only: bool) -> Iterable[str]:
    if isinstance(corpus, Dataset):
        words: Iterable[str] = (tok for utt in corpus.utterances for tok in utt.tokens)
    elif isinstance(corpus, str):
        words = corpus.split()
    else:
        words = corpus
    if letters_only:
        words = (w for w in words if w.isalpha())
    return words


def split_word_ratio(vocab: SubwordVocab, corpus: Corpus, letters_only: bool = False) -> float:
    """Fraction of words split into multiple pieces or unsegmentable.

    Computed over word tokens (every occurrence counts), not types. Equal to
    counting the words whose ``tokenize_word`` pieces are more than one or
    ``[unk]``, without segmenting any word (see the module docstring).
    """
    counts = Counter(_iter_words(corpus, letters_only))
    if "" in counts:
        raise SubwordError("cannot tokenize an empty word")
    total = sum(counts.values())
    if total == 0:
        raise SubwordError("corpus contains no words")
    tokens, unk = vocab.tokens, vocab.unk_token
    return sum(count for word, count in counts.items() if word not in tokens or word == unk) / total
