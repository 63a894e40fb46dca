import math

import numpy as np
import pytest

from armyant.baselines import pso_run, random_search_run
from armyant.optimizer import OptimizerConfig, rowwise, run
from armyant.rng import RandomSource
from armyant.space import SearchSpace


def sphere(x):
    return float(np.sum(x * x))


SPHERE = rowwise(sphere)


SPACE2 = SearchSpace.cube(2, -5.0, 5.0)


def test_params_validation():
    # the baselines read their swarm size and iterations from OptimizerConfig
    with pytest.raises(ValueError, match="population must be at least 4"):
        OptimizerConfig(population=0)
    with pytest.raises(ValueError, match="population must be at least 4"):
        OptimizerConfig(population=3)
    with pytest.raises(ValueError, match="max_iters must be positive"):
        OptimizerConfig(max_iters=0)


def test_history_monotone_and_deterministic():
    config = OptimizerConfig(population=15, max_iters=50)
    a = pso_run(SPHERE, SPACE2, config, RandomSource(11))
    b = pso_run(SPHERE, SPACE2, config, RandomSource(11))
    assert np.array_equal(a.history, b.history)
    assert np.all(np.diff(a.history) <= 0)
    assert len(a.history) == 51
    assert a.evaluations == 15 * 51  # the swarm, at initialization and per iteration


def test_positions_respect_bounds():
    seen = []

    def probe(x):
        seen.append(x.copy())
        return sphere(x)

    space = SearchSpace.cube(3, -1.0, 2.0)
    pso_run(rowwise(probe), space, OptimizerConfig(population=8, max_iters=15), RandomSource(5))
    stacked = np.stack(seen)
    assert np.all(stacked >= -1.0) and np.all(stacked <= 2.0)


def test_seed_positions_injected():
    seed_pos = np.array([1.0, -1.0])
    config = OptimizerConfig(population=6, max_iters=1)
    result = pso_run(SPHERE, SPACE2, config, RandomSource(0), seed_positions=[seed_pos])
    assert result.best_fitness <= sphere(seed_pos)


@pytest.mark.parametrize("seeds", [np.zeros((7, 2)), np.zeros((1, 3))], ids=["rows", "columns"])
def test_pso_rejects_seed_positions_of_the_wrong_shape(seeds):
    # the first swarm comes from optimizer.initialize, which checks the shape
    config = OptimizerConfig(population=6, max_iters=1)
    with pytest.raises(ValueError, match="seed positions must fit the population and dimension"):
        pso_run(SPHERE, SPACE2, config, RandomSource(0), seed_positions=seeds)


def test_pso_sphere_success_rate():
    # threshold frozen from 50 reference runs: every seed reached well below 1e-2
    hits = 0
    for seed in range(1, 51):
        config = OptimizerConfig(population=20, max_iters=200)
        hits += pso_run(SPHERE, SPACE2, config, RandomSource(seed)).best_fitness <= 1e-2
    assert hits >= 45


def test_random_search_history_monotone_and_recording():
    config = OptimizerConfig(population=10, max_iters=10)
    result = random_search_run(SPHERE, SPACE2, config, RandomSource(2))
    assert np.all(np.diff(result.history) <= 0)
    assert len(result.history) == 11  # the initial block plus one per iteration
    assert result.evaluations == 110


def random_search_reference(objective, space, population, max_iters, rng):
    """One draw and one evaluation per sample: the loop the block sampler must equal."""
    best, best_fit, history = None, math.inf, []
    for i in range(population * (max_iters + 1)):
        x = space.sample_uniform(rng)
        f = objective(x)
        if f < best_fit:
            best, best_fit = x, f
        if (i + 1) % population == 0:
            history.append(best_fit)
    return best, best_fit, np.array(history)


@pytest.mark.parametrize("population,max_iters", [
    (4, 1), (9, 1), (30, 10), (31, 10), (29, 10), (5, 8),
    # 2**14 coordinates per call in 3 dimensions: 182 blocks of 30 per call,
    # so 401 blocks take calls of 182, 182 and 37
    (30, 400),
    # the second call's one block ties the first call's best at its row 27
    (30, 182),
    # one block of 5462 x 3 coordinates is more than a call holds
    (5462, 2),
])
def test_random_search_matches_per_sample_loop(population, max_iters):
    space = SearchSpace(np.array([-5.0, 0.0, 1.0]), np.array([5.0, 0.5, 9.0]))
    seen, ref_seen = [], []

    def probe(log):
        def objective(x):
            log.append(x.copy())
            return float(np.floor(np.sum(np.abs(x))))  # ties keep the first best

        return objective

    config = OptimizerConfig(population=population, max_iters=max_iters)
    result = random_search_run(rowwise(probe(seen)), space, config, RandomSource(4))
    best, best_fit, history = random_search_reference(
        probe(ref_seen), space, population, max_iters, RandomSource(4)
    )
    assert np.array_equal(np.stack(seen), np.stack(ref_seen))
    assert result.history.tobytes() == history.tobytes()
    assert result.best_position.tobytes() == best.tobytes()
    assert result.best_position.base is None  # a copy, not a view of a sample block
    assert result.best_fitness == best_fit
    assert result.evaluations == population * (max_iters + 1)


def test_random_search_ties_keep_the_first_sample():
    # per block of 4: ties within it (rows 1 and 3) and with the best so far
    # (block 1 ties 2.0 at rows 0 and 2) keep the earliest sample; the
    # values are streamed one per row, so they hold however many blocks a
    # call gets
    def stream(values):
        values = iter(values)
        return lambda x: np.array([next(values) for _ in x])

    values = [5.0, 2.0, 7.0, 2.0, 2.0, 9.0, 2.0, 3.0, 1.0, 4.0, 1.0, 6.0]
    space = SearchSpace.cube(2, 0.0, 1.0)
    config = OptimizerConfig(population=4, max_iters=2)
    result = random_search_run(stream(values), space, config, RandomSource(6))
    samples = space.sample_uniform(RandomSource(6), 12)
    assert result.history.tolist() == [2.0, 2.0, 1.0]
    assert result.best_position.tobytes() == samples[8].tobytes()
    config = OptimizerConfig(population=4, max_iters=1)
    result = random_search_run(stream(values[:8]), space, config, RandomSource(6))
    assert result.best_position.tobytes() == samples[1].tobytes()


def test_searches_evaluate_contiguous_blocks():
    shapes = []

    def objective(x):
        assert x.flags.c_contiguous
        shapes.append(x.shape)
        return np.sum(x * x, axis=1)

    config = OptimizerConfig(population=7, max_iters=5)
    result = pso_run(objective, SPACE2, config, RandomSource(1))
    assert shapes == [(7, 2)] * 6 and result.evaluations == 42
    shapes.clear()
    result = random_search_run(objective, SPACE2, config, RandomSource(1))
    assert shapes == [(42, 2)] and result.evaluations == 42  # the six blocks in one call


@pytest.mark.parametrize("search", ["aaso", "pso", "random"])
def test_no_search_writes_into_a_block_it_handed_to_the_objective(search):
    # an objective may keep the blocks it is given; a search that moved its
    # population in place after evaluating it would change them under it
    kept = []

    def recording(x):
        kept.append((x, x.copy()))
        return np.sum(x * x, axis=1)

    config = OptimizerConfig(population=9, max_iters=30, stagnation_threshold=1)
    space = SearchSpace.cube(4, -5.12, 5.12)
    bridges = []
    if search == "aaso":
        run(recording, space, config, RandomSource(5),
            observer=lambda state: bridges.append(state.bridge_position is not None))
        assert any(bridges)  # the bridge's candidates are among the blocks
    elif search == "pso":
        pso_run(recording, space, config, RandomSource(5))
    else:
        random_search_run(recording, space, config, RandomSource(5))
    assert kept
    for block, copy in kept:
        assert block.tobytes() == copy.tobytes()
