"""Subword split-ratio statistics under a plain vocabulary file.

A word is split when a greedy longest-match-first (WordPiece-style)
tokenizer would give it more than one piece or the unknown token. The
split-word ratio of a corpus is the fraction of its words that are split.
Differences in this ratio between training and evaluation corpora are the
quantity fed into the correlation analysis.

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
from typing import TYPE_CHECKING, Iterable

from .files import read_text

if TYPE_CHECKING:
    from .corpus import Dataset


class SubwordError(ValueError):
    pass


@dataclass(frozen=True)
class SubwordVocab:
    tokens: frozenset[str]
    unk_token: str = "[UNK]"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", frozenset(self.tokens))
        if not self.tokens:
            raise ValueError("vocabulary must not be empty")
        if self.unk_token not in self.tokens:
            raise ValueError(f"unk token {self.unk_token!r} missing from vocabulary")

    @classmethod
    def from_file(cls, path: str | Path, unk_token: str = "[UNK]") -> "SubwordVocab":
        """One subword per line, UTF-8; blank lines ignored. Only a line feed
        (or CRLF, CR) ends a line, so a piece may hold any other separator."""
        return read_text(path, lambda text: cls(
            tokens=frozenset(line for line in text.split("\n") if line.strip()),
            unk_token=unk_token,
        ))


def _iter_words(corpus: Dataset | str, letters_only: bool) -> Iterable[str]:
    if isinstance(corpus, str):
        words: Iterable[str] = corpus.split()
    else:
        words = (tok for utt in corpus.utterances for tok in utt.tokens)
    if letters_only:
        words = (w for w in words if w.isalpha())
    return words


def split_word_ratio(vocab: SubwordVocab, corpus: Dataset | str, letters_only: bool = False) -> float:
    """Fraction of words split into multiple pieces or unsegmentable.

    The words are a Dataset's tokens or a text's whitespace-separated words.
    Computed over word tokens (every occurrence counts), not types, without
    segmenting any word (see the module docstring).
    """
    counts = Counter(_iter_words(corpus, letters_only))
    total = sum(counts.values())
    if total == 0:
        raise SubwordError("corpus contains no words")
    tokens, unk = vocab.tokens, vocab.unk_token
    return sum(count for word, count in counts.items() if word not in tokens or word == unk) / total
