import math
import random

import pytest
from scipy import integrate, special, stats

from sidkit.correlation import (
    CorrelationError,
    ZeroVarianceError,
    average_ranks,
    correlate,
    p_from_correlation,
    pearson,
    regularized_incomplete_beta,
    spearman,
    student_t_cdf,
    two_tailed_p,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def pearson_raw_moments(x, y):
    """Independent single-pass formula (raw moments, no centering)."""
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    syy = sum(v * v for v in y)
    sxy = sum(a * b for a, b in zip(x, y))
    return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))


def t_pdf(u, df):
    return (
        math.gamma((df + 1) / 2)
        / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        * (1 + u * u / df) ** (-(df + 1) / 2)
    )


def t_cdf_by_quadrature(t, df):
    tail, _ = integrate.quad(t_pdf, t, math.inf, args=(df,), epsabs=1e-12, epsrel=1e-12)
    return 1.0 - tail


def random_vectors(rng, n):
    x = [rng.uniform(-3, 3) for _ in range(n)]
    y = [rng.uniform(-3, 3) for _ in range(n)]
    return x, y


# ---------------------------------------------------------------------------
# Incomplete beta and t distribution
# ---------------------------------------------------------------------------


def test_incomplete_beta_against_scipy():
    rng = random.Random(0)
    for _ in range(300):
        a = rng.uniform(0.1, 20)
        b = rng.uniform(0.1, 20)
        x = rng.random()
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            special.betainc(a, b, x), abs=1e-12
        )
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


def test_t_cdf_matches_numeric_integration_for_df_1_to_30():
    for df in range(1, 31):
        for t in (-5.0, -2.0, -0.5, 0.0, 0.5, 1.0, 2.37171, 5.0):
            assert student_t_cdf(t, df) == pytest.approx(
                t_cdf_by_quadrature(t, df), abs=1e-8
            ), (t, df)


def test_t_cdf_against_scipy():
    for df in (1, 5, 10, 30):
        for t in (-4.0, -1.0, 0.0, 1.5, 3.0):
            assert student_t_cdf(t, df) == pytest.approx(stats.t.cdf(t, df), abs=1e-13)


def test_two_tailed_p_symmetry_and_edges():
    assert two_tailed_p(0.0, 10) == 1.0
    assert two_tailed_p(2.0, 10) == two_tailed_p(-2.0, 10)
    assert two_tailed_p(math.inf, 10) == 0.0


def test_p_monotone_in_correlation_magnitude():
    ps = [p_from_correlation(r / 100, 12) for r in range(0, 100, 5)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert p_from_correlation(1.0, 12) == 0.0
    assert p_from_correlation(-1.0, 12) == 0.0


def test_published_two_decimal_reproductions():
    # Values reported for twelve observations in correlation analyses.
    assert round(p_from_correlation(-0.51, 12), 2) == 0.09
    assert round(p_from_correlation(-0.60, 12), 2) == 0.04


# ---------------------------------------------------------------------------
# Pearson
# ---------------------------------------------------------------------------


def test_pearson_affine_case():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2 * v + 1 for v in x]
    r, p = pearson(x, y)
    assert r == 1.0
    assert p == 0.0
    r, _ = pearson(x, [-2 * v + 7 for v in x])
    assert r == -1.0


def test_pearson_matches_raw_moment_oracle():
    rng = random.Random(17)
    for _ in range(200):
        x, y = random_vectors(rng, 8)
        r, _ = pearson(x, y)
        assert r == pytest.approx(pearson_raw_moments(x, y), abs=1e-12)


def test_pearson_matches_scipy():
    rng = random.Random(23)
    for n in (3, 5, 12, 40):
        x, y = random_vectors(rng, n)
        r, p = pearson(x, y)
        expected = stats.pearsonr(x, y)
        assert r == pytest.approx(expected.statistic, abs=1e-12)
        assert p == pytest.approx(expected.pvalue, abs=1e-10)


def test_pearson_affine_invariance():
    rng = random.Random(29)
    x, y = random_vectors(rng, 12)
    r, p = pearson(x, y)
    r2, p2 = pearson([3 * v + 5 for v in x], [0.5 * v - 2 for v in y])
    assert r2 == pytest.approx(r, abs=1e-12)
    assert p2 == pytest.approx(p, abs=1e-12)
    r3, _ = pearson([-2 * v for v in x], y)
    assert r3 == pytest.approx(-r, abs=1e-12)


def test_pearson_input_validation():
    with pytest.raises(CorrelationError):
        pearson([1, 2], [1, 2])
    with pytest.raises(CorrelationError):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(ZeroVarianceError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ZeroVarianceError):
        pearson([1, 2, 3], [4, 4, 4])


# ---------------------------------------------------------------------------
# Ranks and Spearman
# ---------------------------------------------------------------------------


def test_average_ranks_with_ties():
    assert average_ranks([1, 2, 2, 3]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5, 5, 5]) == [2.0, 2.0, 2.0]
    assert average_ranks([30, 10, 20]) == [3.0, 1.0, 2.0]


def test_spearman_monotone_case():
    x = [1.0, 2.0, 5.0, 9.0]
    rho, _ = spearman(x, [math.exp(v) for v in x])
    assert rho == 1.0
    rho, _ = spearman(x, [-(v**3) for v in x])
    assert rho == -1.0


def test_spearman_matches_scipy():
    rng = random.Random(41)
    for n in (4, 8, 12, 25):
        x, y = random_vectors(rng, n)
        rho, p = spearman(x, y)
        expected = stats.spearmanr(x, y)
        assert rho == pytest.approx(expected.statistic, abs=1e-12)
        assert p == pytest.approx(expected.pvalue, abs=1e-10)


def test_spearman_with_ties_matches_scipy():
    x = [1, 2, 2, 3, 4, 4, 4, 5]
    y = [3, 1, 4, 4, 2, 5, 6, 7]
    rho, p = spearman(x, y)
    expected = stats.spearmanr(x, y)
    assert rho == pytest.approx(expected.statistic, abs=1e-12)
    assert p == pytest.approx(expected.pvalue, abs=1e-10)


def test_spearman_invariant_under_monotone_transforms():
    rng = random.Random(43)
    x, y = random_vectors(rng, 10)
    rho, _ = spearman(x, y)
    rho2, _ = spearman([math.exp(v) for v in x], [v**3 for v in y])
    assert rho2 == pytest.approx(rho, abs=1e-12)


def test_spearman_exact_permutation_p():
    rng = random.Random(47)
    x, y = random_vectors(rng, 6)
    rho, p_exact = spearman(x, y, method="exact")
    # oracle: recompute rho for every permutation directly via pearson
    from itertools import permutations

    observed = abs(rho)
    count = 0
    total = 0
    for perm in permutations(y):
        total += 1
        r, _ = spearman(x, list(perm))
        if abs(r) >= observed - 1e-12:
            count += 1
    assert p_exact == pytest.approx(count / total, abs=1e-12)
    assert 0.0 <= p_exact <= 1.0


def test_spearman_exact_limit():
    with pytest.raises(CorrelationError, match="n <= 14, got 15"):
        spearman(list(range(15)), list(range(15)), method="exact")


def exact_p_by_enumeration(x, y):
    """Oracle: the fraction of all permutations of y's ranks whose rank
    cross-product sum lies at least as far from its null mean as the
    observed one. Ranks are multiples of 1/2, so these float sums are exact."""
    from itertools import permutations

    rx, ry = average_ranks(x), average_ranks(y)
    n = len(x)
    center = n * (n + 1) ** 2 / 4

    def distance(ys):
        return abs(sum(a * b for a, b in zip(rx, ys)) - center)

    observed = distance(ry)
    hits = sum(distance(perm) >= observed for perm in permutations(ry))
    return hits / math.factorial(n)


def test_spearman_exact_matches_enumeration_with_ties():
    rng = random.Random(61)
    for n in range(3, 9):
        for _ in range(6):
            # few distinct values, so most samples are tie-heavy
            x = [rng.randint(0, 3) for _ in range(n)]
            y = [rng.choice([rng.randint(0, 2), rng.uniform(-3, 3)]) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y, method="exact")[1] == exact_p_by_enumeration(x, y), (x, y)
        x, y = random_vectors(rng, n)
        assert spearman(x, y, method="exact")[1] == exact_p_by_enumeration(x, y), (x, y)


def test_spearman_exact_at_the_cap():
    # Distinct values: only x itself and its reversal reach |rho| = 1.
    for n in (12, 13, 14):
        x = list(range(n))
        assert spearman(x, x, method="exact")[1] == 2 / math.factorial(n)
    x = list(range(12))
    assert spearman(x, x[::-1], method="exact")[1] == 2 / math.factorial(12)


def test_spearman_exact_at_n_10_is_fast():
    import time

    x = list(range(10))
    start = time.perf_counter()
    assert spearman(x, x, method="exact")[1] == 2 / math.factorial(10)
    rng = random.Random(67)
    y = [rng.randint(0, 4) for _ in range(10)]
    z = [rng.uniform(-3, 3) for _ in range(10)]
    assert spearman(z, y, method="exact")[1] == spearman(z, [-v for v in y], method="exact")[1]
    assert time.perf_counter() - start < 1.0


def test_correlate_bundle():
    rng = random.Random(53)
    x, y = random_vectors(rng, 12)
    result = correlate(x, y)
    assert result.n == 12
    assert result.r == pytest.approx(pearson(x, y)[0])
    assert result.rho == pytest.approx(spearman(x, y)[0])
    assert "p_rho" in result.to_json()
    assert result.to_tsv().splitlines()[0] == "n\tr\tp_r\trho\tp_rho"
