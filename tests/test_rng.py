import numpy as np
import pytest

from armyant.rng import RandomSource, cumulative_wheels


def test_same_seed_same_draws():
    a, b = RandomSource(123), RandomSource(123)
    assert np.array_equal(a.uniform(100), b.uniform(100))
    assert np.array_equal(a.normal(50), b.normal(50))
    assert np.array_equal(a.cauchy(50), b.cauchy(50))
    assert a.integer(0, 1000) == b.integer(0, 1000)


def test_different_seed_differs():
    assert not np.array_equal(RandomSource(1).uniform(20), RandomSource(2).uniform(20))


def test_a_seed_that_is_not_an_integer_is_rejected():
    # int() used to truncate it: RandomSource(1.7) drew RandomSource(1)'s
    # stream, so compare_cover's seeds [1.2, 1.7] passed the repeat check and
    # ran the same deployment and searches twice
    for bad in (1.7, 1.0, np.float64(2.0), "3", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            RandomSource(bad)
    for seed in (np.int64(5), np.uint32(5), True):
        assert RandomSource(seed).uniform() == RandomSource(int(seed)).uniform()
    assert RandomSource(np.int64(5)).seed == 5 and type(RandomSource(np.int64(5)).seed) is int


def test_uniform_open_excludes_zero_includes_one():
    draws = RandomSource(7).uniform_open(200000)
    assert np.all(draws > 0.0) and np.all(draws <= 1.0)
    assert draws.max() > 0.9999


def test_roulette_singleton_and_errors():
    rng = RandomSource(0)
    assert rng.roulette([1.0]) == 0
    with pytest.raises(ValueError):
        rng.roulette([0.0, 0.0])
    # a negative or non-finite weight is rejected, not spun
    for weights in ([1.0, -1.0, 1.0], [np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError):
            rng.roulette(weights, size=8)


def test_cumulative_wheels_checks_every_row_once():
    # a table's rows have the bytes of each wheel summed on its own, which
    # roulette spins; a bad weight in any row rejects the table
    table = RandomSource(2).uniform((7, 31))
    table /= table.sum(axis=1, keepdims=True)
    cum = cumulative_wheels(table)
    for row, wheel in zip(table, cum):
        assert cumulative_wheels(row).tobytes() == wheel.tobytes()
    for bad in ([[0.25, 0.75], [0.0, 0.0]], [[0.5, 0.5], [2.0, -1.0]], [[1e308, 1e308]]):
        with pytest.raises(ValueError):
            cumulative_wheels(bad)


def test_roulette_scales_by_the_wheel_total():
    # the uniform is scaled by the wheel's own total, so unnormalized
    # weights spin as their normalized pmf does
    weights = np.array([1.0, 3.0, 0.0, 4.0])
    draws = RandomSource(4).roulette(weights, size=1000)
    u = RandomSource(4).uniform(1000) * 8.0
    assert np.array_equal(draws, np.searchsorted([1.0, 4.0, 4.0, 8.0], u, side="right"))
    assert set(draws.tolist()) == {0, 1, 3}


def test_roulette_matches_pmf_within_three_sigma():
    pmf = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    n = 100000
    draws = RandomSource(11).roulette(pmf, size=n)
    for k, p in enumerate(pmf):
        freq = np.mean(draws == k)
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * sigma


def test_cauchy_tail_fraction():
    # P(|C| > 1) = 1/2 for a standard Cauchy
    draws = RandomSource(5).cauchy(100000)
    frac = np.mean(np.abs(draws) > 1.0)
    assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / 100000)


def test_choice_without_replacement():
    rng = RandomSource(3)
    picked = rng.choice_without_replacement(10, 10)
    assert sorted(picked) == list(range(10))
    pair = rng.choice_without_replacement(50, 2)
    assert pair[0] != pair[1]


@pytest.mark.parametrize("d", [1, 3, 30])
@pytest.mark.parametrize("counts", [
    [1, 2, 3, 4, 1],
    [0, 0, 0],
    [2, 0, 1, 0, 0, 4, 3, 0, 1],
    [0, 1, 0, 2, 0, 1, 1, 0],
])
def test_normals_written_into_a_buffer_draw_the_stream_of_one_array_per_ant(counts, d):
    # AASO's draw phase, ant by ant: a recruited ant's k scatter normals and
    # its attack scalar, or a follower's companion pair and Cauchy block;
    # filling slices of one buffer must draw what one normal(k * d) per ant
    # draws, and leave the stream where the per-ant arrays leave it
    n = len(counts)
    for seed in range(4):
        ref, buf = RandomSource(seed), RandomSource(seed)
        normals = np.full(4 * n * d, np.nan)
        arrays, filled = [], 0
        for k in counts:
            if k:
                arrays.append(ref.normal(k * d))
                buf.normal(out=normals[filled:filled + k * d])
                filled += k * d
                assert ref.uniform_open() == buf.uniform_open()
            else:
                assert np.array_equal(ref.choice_without_replacement(n - 1, 2),
                                      buf.choice_without_replacement(n - 1, 2))
                assert ref.cauchy((2, d)).tobytes() == buf.cauchy((2, d)).tobytes()
        expected = np.concatenate(arrays) if arrays else np.empty(0)
        assert normals[:filled].tobytes() == expected.tobytes()
        assert np.isnan(normals[filled:]).all()
        assert ref.uniform() == buf.uniform()
