"""Portable deterministic randomness.

Everything stochastic in this package (noise injection, dataset splits) draws
from SplitMix64, a public-domain 64-bit generator with a documented closed
form. Outputs therefore depend only on the integers fed in, never on Python
version, platform, or hash randomization.
"""

from __future__ import annotations

import functools
from typing import Sequence, TypeVar

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")


def _mix(z: int) -> int:
    """SplitMix64 output function (Vigna's finalizer)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash, used to derive per-record stream keys."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def derive_seed(seed: int, key: bytes) -> int:
    """Combine a run seed with a record key into an independent stream seed."""
    return _mix((seed & _MASK64) ^ fnv1a64(key))


class SplitMix64:
    """Deterministic 64-bit PRNG with draw helpers.

    All helpers consume a fixed, documented number of raw draws per call
    (except the unbiased bounded draw, which uses rejection sampling), so
    sequences are reproducible from the seed alone.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        threshold = (1 << 64) % n
        while True:
            value = self.next_u64()
            if value >= threshold:
                return value % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """k distinct elements, drawn without replacement."""
        if not 0 <= k <= len(items):
            raise ValueError(f"cannot sample {k} of {len(items)} items")
        pool = list(items)
        for i in range(k):
            j = i + self.next_below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def choice(self, items: Sequence[T]) -> T:
        return items[self.next_below(len(items))]

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Draw one element with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must not all be zero")
        u = self.next_float() * total
        acc = 0.0
        for item, w in zip(items, weights):
            acc += w
            if u < acc:
                return item
        return items[-1]  # guards against accumulated float error


def share_count(fraction: float, n: int) -> int:
    """``Fraction(str(fraction)) * n`` rounded half up, exactly (0.7 of 45 is 32, not 31)."""
    num, den = _decimal_ratio(float(fraction))
    return (2 * num * n + den) // (2 * den)


@functools.lru_cache(maxsize=16)
def _decimal_ratio(fraction: float) -> tuple[int, int]:
    from fractions import Fraction  # imported here: loading it costs every CLI start about 3 ms

    return Fraction(str(fraction)).as_integer_ratio()
