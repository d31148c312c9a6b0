"""Seeded character-level noise over a dataset's tokens.

Per utterance, a fixed fraction of the purely alphabetic words is selected
(words containing digits, punctuation or other symbols are never touched) and
each selected word receives exactly one edit: a character deletion, an
insertion drawn from a reference alphabet, or both at the same index (a
substitution). Slot tags, intents, ids, and the token count are left intact,
so alignment with the annotation never breaks.

Randomness is keyed per utterance (run seed mixed with a hash of the
utterance id), which makes outputs reproducible, independent of corpus order,
and safe to compute in parallel. Each edited word draws its op, then its
position, then its character. ``noise_dataset`` computes a config's draw
tables (the running sums of the op weights, each letter's place in the
alphabet) once; a draw from them takes the same raw values and yields the
same op or character as ``SplitMix64.weighted_choice`` and ``choice`` would.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from .corpus import Dataset, Utterance, _trusted_utterance, read_text
from .rng import SplitMix64, derive_seed, share_count


class NoiseError(ValueError):
    """Raised when a noise operation cannot be applied as configured."""


NoiseOp = Literal["delete", "insert", "both"]
_OPS: tuple[NoiseOp, ...] = ("delete", "insert", "both")


@dataclass(frozen=True)
class Alphabet:
    """Insertion inventory: the distinct letters of a reference text."""

    chars: tuple[str, ...]

    def __post_init__(self) -> None:
        for ch in self.chars:
            if len(ch) != 1 or not ch.isalpha():
                raise ValueError(f"alphabet entries must be single letters, got {ch!r}")
        if len(set(self.chars)) != len(self.chars):
            raise ValueError("alphabet contains duplicate characters")

    def __len__(self) -> int:
        return len(self.chars)


def build_alphabet(reference: str) -> Alphabet:
    """Distinct letter-category characters of a text, case preserved.

    Characters are sorted by code point so the alphabet does not depend on
    the order in which the reference text presents them.
    """
    return Alphabet(chars=tuple(sorted({ch for ch in set(reference) if ch.isalpha()})))


def load_alphabet(path: str | Path) -> Alphabet:
    return read_text(path, build_alphabet)


@dataclass(frozen=True)
class OpWeights:
    """Relative draw weights for the three edit operations."""

    delete: float = 1.0
    insert: float = 1.0
    both: float = 1.0

    def __post_init__(self) -> None:
        values = (self.delete, self.insert, self.both)
        if not all(0 <= w <= sys.float_info.max for w in values):  # NaN fails too
            raise ValueError(f"operation weights must be finite and non-negative, got {values}")
        if sum(values) == 0:
            raise ValueError("operation weights must not all be zero")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.delete, self.insert, self.both)


@dataclass(frozen=True)
class NoiseConfig:
    word_fraction: float
    alphabet: Alphabet
    op_weights: OpWeights = OpWeights()
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.word_fraction <= 1.0:
            raise ValueError(f"word_fraction must be in [0, 1], got {self.word_fraction}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "word_fraction": self.word_fraction,
                "alphabet": "".join(self.alphabet.chars),
                "op_weights": {
                    "delete": self.op_weights.delete,
                    "insert": self.op_weights.insert,
                    "both": self.op_weights.both,
                },
                "seed": self.seed,
            },
            ensure_ascii=False,
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "NoiseConfig":
        """The config a JSON object gives; ``op_weights`` and ``seed`` are optional."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise NoiseError("noise config must be a JSON object")
        unknown = set(raw) - {"word_fraction", "alphabet", "op_weights", "seed"}
        if unknown:
            raise NoiseError(f"unknown noise config keys: {sorted(unknown)}")
        missing = {"word_fraction", "alphabet"} - set(raw)
        if missing:
            raise NoiseError(f"missing noise config keys: {sorted(missing)}")
        alphabet, weights, seed = raw["alphabet"], raw.get("op_weights", {}), raw.get("seed", 0)
        if not isinstance(alphabet, str):
            raise NoiseError(f"alphabet must be a string, got {alphabet!r}")
        if not isinstance(weights, dict) or not set(weights) <= set(_OPS):
            raise NoiseError(f"op_weights must map delete, insert and both to numbers, got {weights!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise NoiseError(f"seed must be an integer, got {seed!r}")
        return cls(
            word_fraction=_number("word_fraction", raw["word_fraction"]),
            alphabet=Alphabet(chars=tuple(alphabet)),
            op_weights=OpWeights(**{op: _number(f"op_weights.{op}", w) for op, w in weights.items()}),
            seed=seed,
        )


def _number(key: str, value: object) -> float | int:
    """A JSON number; NoiseError for any other value."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise NoiseError(f"{key} must be a number, got {value!r}")
    return value


def noise_word(word: str, op: NoiseOp, position: int, insert_char: str | None = None) -> str:
    """Deterministic edit kernel.

    delete removes the character at ``position``; insert places
    ``insert_char`` before ``position``; both does a delete followed by an
    insert at the same index, i.e. a substitution.
    """
    if not word:
        raise NoiseError("cannot noise an empty word")
    if op in ("delete", "both") and len(word) == 1:
        raise NoiseError(f"op {op!r} on a length-1 word would break token alignment")
    if op == "delete":
        if not 0 <= position < len(word):
            raise NoiseError(f"delete position {position} out of range for {word!r}")
        return word[:position] + word[position + 1 :]
    if op == "insert":
        if not 0 <= position <= len(word):
            raise NoiseError(f"insert position {position} out of range for {word!r}")
        if insert_char is None:
            raise NoiseError("insert requires insert_char")
        return word[:position] + insert_char + word[position:]
    if op == "both":
        if not 0 <= position < len(word):
            raise NoiseError(f"substitution position {position} out of range for {word!r}")
        if insert_char is None:
            raise NoiseError("both requires insert_char")
        return word[:position] + insert_char + word[position + 1 :]
    raise NoiseError(f"unknown op {op!r}")


class _Draws:
    """The draw tables of one NoiseConfig, computed once for a whole dataset.

    Each draw consumes the same raw values, and yields the same op or
    character, as the ``SplitMix64`` helper it stands for.
    """

    def __init__(self, cfg: NoiseConfig) -> None:
        weights = cfg.op_weights.as_tuple()
        self.total = sum(weights)
        bounds, acc = [], 0.0
        for weight in weights:  # the running sums of SplitMix64.weighted_choice
            acc += weight
            bounds.append(acc)
        self.bounds = tuple(zip(bounds, _OPS))
        self.chars = cfg.alphabet.chars
        self.index = {ch: i for i, ch in enumerate(self.chars)}

    def op(self, rng: SplitMix64) -> NoiseOp:
        """``rng.weighted_choice(_OPS, weights)``."""
        u = rng.next_float() * self.total
        for bound, op in self.bounds:
            if u < bound:
                return op
        return _OPS[-1]  # guards against accumulated float error

    def substitute(self, rng: SplitMix64, old: str) -> str:
        """``rng.choice`` over the alphabet without ``old``, without building that tuple."""
        skip = self.index.get(old, len(self.chars))
        n = len(self.chars) - (skip < len(self.chars))
        if n == 0:
            raise NoiseError(
                "substitution drawn but the alphabet offers no character different "
                f"from {old!r}"
            )
        k = rng.next_below(n)
        return self.chars[k + (k >= skip)]


def _noise_token(word: str, rng: SplitMix64, draws: _Draws) -> str:
    # Draw order is part of the output contract: op, then position, then char.
    op: NoiseOp = "insert" if len(word) == 1 else draws.op(rng)  # deletion would empty a length-1 token

    if op == "delete":
        return noise_word(word, "delete", rng.next_below(len(word)))
    if op == "insert":
        if not draws.chars:
            raise NoiseError("insertion drawn but the alphabet is empty")
        position = rng.next_below(len(word) + 1)
        return noise_word(word, "insert", position, rng.choice(draws.chars))
    position = rng.next_below(len(word))
    # A substitution must change the word, or the per-sentence edit count
    # would silently drop below the configured fraction.
    return noise_word(word, "both", position, draws.substitute(rng, word[position]))


def _noise_utterance(utterance: Utterance, cfg: NoiseConfig, draws: _Draws) -> Utterance:
    rng = SplitMix64(derive_seed(cfg.seed, utterance.id.encode("utf-8")))
    alpha_positions = [i for i, tok in enumerate(utterance.tokens) if tok.isalpha()]
    n_select = share_count(cfg.word_fraction, len(alpha_positions))
    if n_select == 0:
        return utterance
    selected = sorted(rng.sample(alpha_positions, n_select))
    tokens = list(utterance.tokens)
    for i in selected:
        tokens[i] = _noise_token(tokens[i], rng, draws)
    # a noised token is still a non-empty run of letters: alphabet entries are
    # single letters and a length-1 token is never deleted, so nothing needs checking
    return _trusted_utterance(
        utterance.id, tuple(tokens), utterance.slot_tags,
        utterance.intent, utterance.variety, utterance.raw_text,
    )


def noise_dataset(dataset: Dataset, cfg: NoiseConfig) -> Dataset:
    """Noised copy of a dataset; fully determined by (dataset, cfg)."""
    draws = _Draws(cfg)
    return Dataset(
        name=dataset.name,
        utterances=tuple(_noise_utterance(utt, cfg, draws) for utt in dataset.utterances),
    )
