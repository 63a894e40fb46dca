import numpy as np
import pytest

from armyant.baselines import PSOParams, pso_run, random_search_run
from armyant.rng import RandomSource
from armyant.space import SearchSpace


def sphere(x):
    return float(np.sum(x * x))


SPACE2 = SearchSpace.cube(2, -5.0, 5.0)


def test_params_validation():
    with pytest.raises(ValueError):
        PSOParams(swarm=0)
    with pytest.raises(ValueError):
        PSOParams(w_max=0.2, w_min=0.5)


def test_frozen_swarm_with_degenerate_params():
    # zero inertia and zero acceleration never move the zero-velocity swarm
    params = PSOParams(swarm=10, iters=20, c1=0.0, c2=0.0, w_max=0.0, w_min=0.0)
    result = pso_run(sphere, SPACE2, params, RandomSource(3))
    assert np.all(result.history == result.history[0])
    assert result.evaluations == 10 * 21


def test_history_monotone_and_deterministic():
    params = PSOParams(swarm=15, iters=50)
    a = pso_run(sphere, SPACE2, params, RandomSource(11))
    b = pso_run(sphere, SPACE2, params, RandomSource(11))
    assert np.array_equal(a.history, b.history)
    assert np.all(np.diff(a.history) <= 0)
    assert len(a.history) == 51


def test_positions_respect_bounds():
    seen = []

    def probe(x):
        seen.append(x.copy())
        return sphere(x)

    pso_run(probe, SearchSpace.cube(3, -1.0, 2.0), PSOParams(swarm=8, iters=15), RandomSource(5))
    stacked = np.stack(seen)
    assert np.all(stacked >= -1.0) and np.all(stacked <= 2.0)


def test_seed_positions_injected():
    seed_pos = np.array([1.0, -1.0])
    params = PSOParams(swarm=6, iters=1, c1=0.0, c2=0.0, w_max=0.0, w_min=0.0)
    result = pso_run(sphere, SPACE2, params, RandomSource(0), seed_positions=[seed_pos])
    assert result.best_fitness <= sphere(seed_pos)


def test_pso_sphere_success_rate():
    # threshold frozen from 50 reference runs: every seed reached well below 1e-2
    hits = 0
    for seed in range(1, 51):
        params = PSOParams(swarm=20, iters=200)
        hits += pso_run(sphere, SPACE2, params, RandomSource(seed)).best_fitness <= 1e-2
    assert hits >= 45


def test_random_search_budget_one():
    result = random_search_run(sphere, SPACE2, 1, RandomSource(9))
    assert result.evaluations == 1
    assert len(result.history) == 1
    assert result.history[0] == result.best_fitness == sphere(result.best_position)


def test_random_search_history_monotone_and_recording():
    result = random_search_run(sphere, SPACE2, 103, RandomSource(2), record_every=10)
    assert np.all(np.diff(result.history) <= 0)
    assert len(result.history) == 11  # ten full blocks plus the final partial one
    with pytest.raises(ValueError):
        random_search_run(sphere, SPACE2, 0, RandomSource(0))
