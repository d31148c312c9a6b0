import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidkit.rng import SplitMix64, derive_seed, fnv1a64, share_count


def test_known_splitmix64_sequence():
    # Reference values for seed 1234567 from the published SplitMix64 algorithm.
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_streams_are_reproducible():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_derive_seed_distinguishes_keys():
    seeds = {derive_seed(7, str(i).encode()) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(7, b"x") != derive_seed(8, b"x")


def test_fnv1a64_known_value():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


@given(st.integers(min_value=0), st.integers(min_value=1, max_value=1000))
def test_next_below_in_range(seed, n):
    rng = SplitMix64(seed)
    for _ in range(20):
        assert 0 <= rng.next_below(n) < n


def test_next_float_in_unit_interval():
    rng = SplitMix64(9)
    values = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.05


def test_shuffle_is_permutation():
    rng = SplitMix64(3)
    items = list(range(50))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_sample_without_replacement():
    rng = SplitMix64(5)
    picked = rng.sample(range(30), 10)
    assert len(set(picked)) == 10
    assert all(0 <= p < 30 for p in picked)
    with pytest.raises(ValueError):
        rng.sample(range(3), 4)


# (fraction, n, count): exact products 0, 0.4, 0.5, 1.5, 2.5, 2.4, 9 round half up;
# 0.29 of 50 and 0.7 of 45 are 14.5 and 31.5 exactly, though not as floats.
@pytest.mark.parametrize(
    "fraction,n,expected",
    [(0.0, 7, 0), (0.4, 1, 0), (0.5, 1, 1), (0.5, 3, 2), (0.5, 5, 3), (0.4, 6, 2), (0.9, 10, 9),
     (0.29, 50, 15), (0.7, 45, 32)],
)
def test_share_count_rounds_the_exact_share_half_up(fraction, n, expected):
    assert share_count(fraction, n) == expected
