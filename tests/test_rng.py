import numpy as np
import pytest

from armyant.rng import RandomSource


def test_same_seed_same_draws():
    a, b = RandomSource(123), RandomSource(123)
    assert np.array_equal(a.uniform(100), b.uniform(100))
    assert np.array_equal(a.normal(50), b.normal(50))
    assert np.array_equal(a.cauchy(50), b.cauchy(50))
    assert a.integer(0, 1000) == b.integer(0, 1000)


def test_different_seed_differs():
    assert not np.array_equal(RandomSource(1).uniform(20), RandomSource(2).uniform(20))


def test_uniform_open_excludes_zero_includes_one():
    draws = RandomSource(7).uniform_open(200000)
    assert np.all(draws > 0.0) and np.all(draws <= 1.0)
    assert draws.max() > 0.9999


def test_roulette_singleton_and_errors():
    rng = RandomSource(0)
    assert rng.roulette([1.0]) == 0
    with pytest.raises(ValueError):
        rng.roulette([0.0, 0.0])


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
    picked = rng.choice_without_replacement(np.arange(10), 10)
    assert sorted(picked) == list(range(10))
    pair = rng.choice_without_replacement(np.arange(50), 2)
    assert pair[0] != pair[1]
