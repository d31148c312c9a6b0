"""Pearson and Spearman correlation with two-tailed p-values.

p-values come from the exact t-transform t = r * sqrt((n-2) / (1-r^2))
against Student's t distribution with n-2 degrees of freedom, evaluated
through the regularized incomplete beta function (continued-fraction
expansion, no external dependencies). For small samples (n <= 14) an exact
permutation p-value for Spearman's rho is available as well: a dynamic
program over subsets of used rank positions counts the permutations by their
rank cross-product sum, the null distribution of rho (cf. Best & Roberts
1975, Algorithm AS 89), in n * 2**(n-1) big-integer shift-and-adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence


class CorrelationError(ValueError):
    pass


class ZeroVarianceError(CorrelationError):
    """A variable is constant, so the correlation is undefined."""


EXACT_MAX_N = 14  # largest n for spearman(method="exact"); the paper's tables use n = 12
_MAX_CF_ITERATIONS = 300
_CF_EPS = 1e-15
_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's method for the continued fraction of the incomplete beta."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITERATIONS + 1):
        m2 = 2 * m
        # one step each for the even and the odd coefficient of term m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise CorrelationError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the expansion on whichever side converges fast, mirror the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) under Student's t."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def p_from_correlation(r: float, n: int) -> float:
    """Two-tailed p for a correlation coefficient from n observations."""
    if n < 3:
        raise CorrelationError(f"need at least 3 observations, got {n}")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation must be in [-1, 1], got {r}")
    if abs(r) == 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return two_tailed_p(t, n - 2)


def _validate_xy(x: Sequence[float], y: Sequence[float]) -> int:
    if len(x) != len(y):
        raise CorrelationError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise CorrelationError(f"need at least 3 observations, got {len(x)}")
    for label, values in (("x", x), ("y", y)):
        # pearson's clamp to [-1, 1] would turn a NaN r into 1.0
        if not all(map(math.isfinite, values)):
            raise CorrelationError(f"{label} holds a non-finite value")
    return len(x)


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson r and its two-tailed p-value."""
    n = _validate_xy(x, y)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((xi - mx) ** 2 for xi in x)
    syy = math.fsum((yi - my) ** 2 for yi in y)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant variable")
    sxy = math.fsum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))  # guard float overshoot on perfectly linear data
    return r, p_from_correlation(r, n)


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their rank positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(
    x: Sequence[float],
    y: Sequence[float],
    method: Literal["t", "exact"] = "t",
) -> tuple[float, float]:
    """Spearman's rho (Pearson on average-tie ranks) and a two-tailed p.

    ``method="t"`` uses the same t-transform as Pearson, which is the usual
    approximation for n around ten and up. ``method="exact"`` reports the
    fraction of all n! permutations of one rank vector with |rho| at least as
    extreme (n <= EXACT_MAX_N). It counts them by dynamic programming instead
    of enumerating them: with ranks doubled to integers, rho rises with
    S = sum(rx_i * ry_perm(i)), so each set of used y positions keeps its
    count of partial permutations for every partial S, packed into one int
    with a fixed-width field per value of S. Filling one x position per
    layer, a transition is one shift and one add; at n = 10 that is 5,120 of
    them on ints of about 35 kbit, and at n = 14 the 114,688 of them take
    about 0.6 s and 90 MB (CPython 3.11 on a shared Xeon vCPU).
    """
    n = _validate_xy(x, y)
    rx, ry = average_ranks(x), average_ranks(y)
    rho, p_t = pearson(rx, ry)
    if method == "t":
        return rho, p_t
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    if n > EXACT_MAX_N:
        raise CorrelationError(f"exact permutation p is limited to n <= {EXACT_MAX_N}, got {n}")

    # rho is an increasing affine function of S because the rank multisets
    # (hence means and variances) are permutation invariant; average ranks
    # are multiples of 1/2, so doubled ranks make S an exact integer.
    ax = [round(2 * r) for r in rx]
    ay = [round(2 * r) for r in ry]
    width = math.factorial(n).bit_length() + 1  # a field never holds more than n! counts
    layer = {0: 1}  # used y positions (bit mask) -> packed counts by partial S
    for a in ax:
        after: dict[int, int] = {}
        for used, counts in layer.items():
            for j, b in enumerate(ay):
                bit = 1 << j
                if not used & bit:
                    after[used | bit] = after.get(used | bit, 0) + (counts << width * a * b)
        layer = after
    (counts,) = layer.values()
    center = n * (n + 1) ** 2  # S when rho = 0: n times the squared mean doubled rank
    observed = abs(sum(a * b for a, b in zip(ax, ay)) - center)
    field = (1 << width) - 1
    extreme = sum(
        counts >> width * s & field
        for s in range(counts.bit_length() // width + 1)
        if abs(s - center) >= observed
    )
    return rho, extreme / math.factorial(n)


@dataclass(frozen=True)
class CorrelationResult:
    """Both coefficients for one sample, as reported in correlation tables."""

    r: float
    p_r: float
    rho: float
    p_rho: float
    n: int

    def to_dict(self) -> dict:
        return {"n": self.n, "r": self.r, "p_r": self.p_r, "rho": self.rho, "p_rho": self.p_rho}

    def tsv_rows(self) -> list[tuple[str, ...]]:
        return [
            ("n", "r", "p_r", "rho", "p_rho"),
            (str(self.n), *(f"{x:.6f}" for x in (self.r, self.p_r, self.rho, self.p_rho))),
        ]


def correlate(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    r, p_r = pearson(x, y)
    rho, p_rho = spearman(x, y)
    return CorrelationResult(r=r, p_r=p_r, rho=rho, p_rho=p_rho, n=len(x))
