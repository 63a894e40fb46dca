import math

import numpy as np
import pytest

from armyant.baselines import PSOParams, pso_run, random_search_run
from armyant.optimizer import rowwise
from armyant.rng import RandomSource
from armyant.space import SearchSpace


def sphere(x):
    return float(np.sum(x * x))


SPHERE = rowwise(sphere)


SPACE2 = SearchSpace.cube(2, -5.0, 5.0)


def test_params_validation():
    with pytest.raises(ValueError):
        PSOParams(swarm=0)
    with pytest.raises(ValueError):
        PSOParams(w_max=0.2, w_min=0.5)


def test_frozen_swarm_with_degenerate_params():
    # zero inertia and zero acceleration never move the zero-velocity swarm
    params = PSOParams(swarm=10, iters=20, c1=0.0, c2=0.0, w_max=0.0, w_min=0.0)
    result = pso_run(SPHERE, SPACE2, params, RandomSource(3))
    assert np.all(result.history == result.history[0])
    assert result.evaluations == 10 * 21


def test_history_monotone_and_deterministic():
    params = PSOParams(swarm=15, iters=50)
    a = pso_run(SPHERE, SPACE2, params, RandomSource(11))
    b = pso_run(SPHERE, SPACE2, params, RandomSource(11))
    assert np.array_equal(a.history, b.history)
    assert np.all(np.diff(a.history) <= 0)
    assert len(a.history) == 51


def test_positions_respect_bounds():
    seen = []

    def probe(x):
        seen.append(x.copy())
        return sphere(x)

    space = SearchSpace.cube(3, -1.0, 2.0)
    pso_run(rowwise(probe), space, PSOParams(swarm=8, iters=15), RandomSource(5))
    stacked = np.stack(seen)
    assert np.all(stacked >= -1.0) and np.all(stacked <= 2.0)


def test_seed_positions_injected():
    seed_pos = np.array([1.0, -1.0])
    params = PSOParams(swarm=6, iters=1, c1=0.0, c2=0.0, w_max=0.0, w_min=0.0)
    result = pso_run(SPHERE, SPACE2, params, RandomSource(0), seed_positions=[seed_pos])
    assert result.best_fitness <= sphere(seed_pos)


def test_pso_sphere_success_rate():
    # threshold frozen from 50 reference runs: every seed reached well below 1e-2
    hits = 0
    for seed in range(1, 51):
        params = PSOParams(swarm=20, iters=200)
        hits += pso_run(SPHERE, SPACE2, params, RandomSource(seed)).best_fitness <= 1e-2
    assert hits >= 45


def test_random_search_budget_one():
    result = random_search_run(SPHERE, SPACE2, 1, RandomSource(9))
    assert result.evaluations == 1
    assert len(result.history) == 1
    assert result.history[0] == result.best_fitness == sphere(result.best_position)


def test_random_search_history_monotone_and_recording():
    result = random_search_run(SPHERE, SPACE2, 103, RandomSource(2), record_every=10)
    assert np.all(np.diff(result.history) <= 0)
    assert len(result.history) == 11  # ten full blocks plus the final partial one
    with pytest.raises(ValueError):
        random_search_run(SPHERE, SPACE2, 0, RandomSource(0))
    with pytest.raises(ValueError):
        random_search_run(SPHERE, SPACE2, 10, RandomSource(0), record_every=0)


def random_search_reference(objective, space, budget, rng, record_every):
    """One draw and one evaluation per sample: the loop the block sampler must equal."""
    best, best_fit, history = None, math.inf, []
    for i in range(budget):
        x = space.sample_uniform(rng)
        f = objective(x)
        if f < best_fit:
            best, best_fit = x, f
        if (i + 1) % record_every == 0 or i == budget - 1:
            history.append(best_fit)
    return best, best_fit, np.array(history)


@pytest.mark.parametrize("budget,record_every", [(1, 1), (9, 1), (30, 10), (31, 10), (29, 10), (5, 8)])
def test_random_search_matches_per_sample_loop(budget, record_every):
    space = SearchSpace(np.array([-5.0, 0.0, 1.0]), np.array([5.0, 0.5, 9.0]))
    seen, ref_seen = [], []

    def probe(log):
        def objective(x):
            log.append(x.copy())
            return float(np.floor(np.sum(np.abs(x))))  # ties keep the first best

        return objective

    result = random_search_run(rowwise(probe(seen)), space, budget, RandomSource(4), record_every)
    best, best_fit, history = random_search_reference(
        probe(ref_seen), space, budget, RandomSource(4), record_every
    )
    assert np.array_equal(np.stack(seen), np.stack(ref_seen))
    assert result.history.tobytes() == history.tobytes()
    assert result.best_position.tobytes() == best.tobytes()
    assert result.best_position.base is None  # a copy, not a view of a sample block
    assert result.best_fitness == best_fit
    assert result.evaluations == budget


def test_random_search_ties_keep_the_first_sample():
    # per block: ties within it (rows 1 and 3) and with the best so far
    # (block 1 ties 2.0 at rows 0 and 2) keep the earliest sample
    blocks = iter([[5.0, 2.0, 7.0, 2.0], [2.0, 9.0, 2.0, 3.0], [1.0, 1.0]])
    space = SearchSpace.cube(2, 0.0, 1.0)
    result = random_search_run(lambda x: np.array(next(blocks)), space, 10, RandomSource(6), 4)
    samples = space.sample_uniform(RandomSource(6), 10)
    assert result.history.tolist() == [2.0, 2.0, 1.0]
    assert result.best_position.tobytes() == samples[8].tobytes()
    blocks = iter([[5.0, 2.0, 7.0, 2.0], [2.0, 9.0, 2.0, 3.0]])
    result = random_search_run(lambda x: np.array(next(blocks)), space, 8, RandomSource(6), 4)
    assert result.best_position.tobytes() == samples[1].tobytes()


def test_searches_evaluate_contiguous_blocks():
    shapes = []

    def objective(x):
        assert x.flags.c_contiguous
        shapes.append(x.shape)
        return np.sum(x * x, axis=1)

    result = pso_run(objective, SPACE2, PSOParams(swarm=7, iters=5), RandomSource(1))
    assert shapes == [(7, 2)] * 6 and result.evaluations == 42
    shapes.clear()
    result = random_search_run(objective, SPACE2, 10, RandomSource(1), record_every=4)
    assert shapes == [(4, 2), (4, 2), (2, 2)] and result.evaluations == 10
