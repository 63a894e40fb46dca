import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from armyant.baselines import PSOParams, pso_run, random_search_run
from armyant.benchmarks import FUNCTION_NAMES, get_benchmark
from armyant.optimizer import OptimizerConfig, rowwise, run
from armyant.rng import RandomSource

_SCHWEFEL_X = 420.968746359982

# the per-point formulas, one float per point, that the row-wise block
# functions must reproduce to the bit
POINT_FORMULAS = {
    "sphere": lambda x: float(np.sum(x * x)),
    "rosenbrock": lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)),
    "rastrigin": lambda x: float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x))),
    "ackley": lambda x: float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x) / x.size))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x)) / x.size) + 20.0 + math.e
    ),
    "griewank": lambda x: float(
        np.sum(x * x) / 4000.0 - np.prod(np.cos(x / np.sqrt(np.arange(1, x.size + 1)))) + 1.0
    ),
    "schwefel": lambda x: float(
        _SCHWEFEL_X * math.sin(math.sqrt(_SCHWEFEL_X)) * x.size
        - np.sum(x * np.sin(np.sqrt(np.abs(x))))
    ),
}


def test_catalog_names():
    assert set(FUNCTION_NAMES) == {
        "sphere", "rosenbrock", "rastrigin", "ackley", "griewank", "schwefel"
    }


@pytest.mark.parametrize("name", FUNCTION_NAMES)
@pytest.mark.parametrize("dim", [2, 10, 30])
def test_optimum_position_scores_known_optimum(name, dim):
    f = get_benchmark(name, dim)
    assert abs(f(f.optimum_position) - f.known_optimum) <= 1e-9
    assert f.box.contains(f.optimum_position)


def test_known_optima_exact_zero():
    assert get_benchmark("sphere", 5)(np.zeros(5)) == 0.0
    assert get_benchmark("rastrigin", 5)(np.zeros(5)) == 0.0
    assert get_benchmark("rosenbrock", 2)(np.ones(2)) == 0.0


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown benchmark"):
        get_benchmark("banana", 2)


def test_values_grow_away_from_optimum():
    for name in FUNCTION_NAMES:
        f = get_benchmark(name, 4)
        near = f(f.optimum_position + 0.01)
        far = f(f.optimum_position + 1.0)
        assert f.known_optimum <= near < far


def test_spot_values():
    # hand-evaluated small cases
    assert get_benchmark("sphere", 3)(np.array([1.0, 2.0, 3.0])) == 14.0
    assert get_benchmark("rosenbrock", 2)(np.array([0.0, 0.0])) == 1.0
    # rastrigin at half-integers: x^2 - 10*cos(pi) + 10 = 20.25 per coordinate
    assert get_benchmark("rastrigin", 2)(np.array([0.5, 0.5])) == pytest.approx(40.5, abs=1e-12)
    assert get_benchmark("griewank", 7)(np.zeros(7)) == 0.0


def test_one_point_gives_a_float_and_a_block_an_array():
    f = get_benchmark("sphere", 3)
    assert type(f([1.0, 2.0, 3.0])) is float
    values = f([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    assert isinstance(values, np.ndarray) and values.tolist() == [14.0, 1.0]


@settings(max_examples=60)
@given(
    st.sampled_from(FUNCTION_NAMES),
    st.sampled_from([1, 2, 7, 8, 9, 16, 30, 31, 64, 129]),
    st.integers(1, 6).flatmap(
        lambda n: arrays(np.float64, (n, 129), elements=st.floats(-1.0, 1.0))
    ),
)
def test_block_values_equal_per_point_values_to_the_bit(name, dim, unit):
    f = get_benchmark(name, dim)
    block = np.ascontiguousarray(unit[:, :dim] * f.box.upper)
    expected = np.array([POINT_FORMULAS[name](row) for row in block])
    assert np.array([f(row) for row in block]).tobytes() == expected.tobytes()
    assert f(block).tobytes() == expected.tobytes()
    # strided and Fortran-ordered blocks give the same bits
    assert f(unit[:, :dim] * f.box.upper).tobytes() == expected.tobytes()
    assert f(np.asfortranarray(block)).tobytes() == expected.tobytes()
    assert f(np.repeat(block, 2, axis=1)[:, ::2]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_block_and_rowwise_searches_agree(name):
    # the block path and one call per point give bit-identical runs
    f = get_benchmark(name, 30)
    searches = [
        lambda obj: run(obj, f.box, OptimizerConfig(population=10, max_iters=15, seed=3)),
        lambda obj: pso_run(obj, f.box, PSOParams(swarm=10, iters=15), RandomSource(3)),
        lambda obj: random_search_run(obj, f.box, 160, RandomSource(3), record_every=10),
    ]
    for search in searches:
        block, per_point = search(f), search(rowwise(f))
        assert block.history.tobytes() == per_point.history.tobytes()
        assert block.best_position.tobytes() == per_point.best_position.tobytes()
        assert block.evaluations == per_point.evaluations
