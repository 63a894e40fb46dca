import numpy as np
import pytest
from hypothesis import given, strategies as st

from armyant.rng import RandomSource
from armyant.space import SearchSpace


def test_rejects_bad_bounds():
    with pytest.raises(ValueError):
        SearchSpace(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SearchSpace(np.array([0.0]), np.array([np.inf]))
    with pytest.raises(ValueError):
        SearchSpace(np.array([]), np.array([]))


def test_cube_and_angles_constructors():
    box = SearchSpace.cube(3, -2.0, 2.0)
    assert box.dim == 3


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
def test_clamp_lands_in_box(values):
    x = np.array(values)
    space = SearchSpace.cube(x.size, -3.0, 7.0)
    out = space.apply_bounds(x)
    assert np.all(out >= space.lower) and np.all(out <= space.upper)
    # already-inside points are untouched
    inside = np.clip(x, -3.0, 7.0)
    assert np.array_equal(space.apply_bounds(inside), inside)


def test_sample_uniform_deterministic_and_in_box():
    space = SearchSpace.cube(5, -1.0, 4.0)
    a = space.sample_uniform(RandomSource(9), 20)
    b = space.sample_uniform(RandomSource(9), 20)
    assert np.array_equal(a, b)
    assert a.shape == (20, 5)
    assert np.all(a >= -1.0) and np.all(a <= 4.0)
    single = space.sample_uniform(RandomSource(9))
    assert single.shape == (5,)


def test_contains():
    clamp = SearchSpace.cube(2, 0.0, 1.0)
    assert clamp.contains(np.array([0.0, 1.0]))
    assert not clamp.contains(np.array([0.0, 1.001]))
