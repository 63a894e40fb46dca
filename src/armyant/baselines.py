"""Baseline optimizers: canonical global-best PSO and uniform random search."""

import math
from dataclasses import dataclass

import numpy as np

from .optimizer import RunResult, _checked


@dataclass
class PSOParams:
    """Inertia-weight PSO parameters; the weight decays linearly over the run."""

    swarm: int = 30
    iters: int = 100
    c1: float = 2.0
    c2: float = 2.0
    w_max: float = 0.9
    w_min: float = 0.4

    def __post_init__(self):
        if self.swarm < 1 or self.iters < 1:
            raise ValueError("swarm and iters must be positive")
        if not 0.0 <= self.w_min <= self.w_max:
            raise ValueError("need 0 <= w_min <= w_max")


def pso_run(objective, space, params, rng, seed_positions=None):
    """Global-best PSO with zero initial velocities and synchronous updates.

    Per iteration the two acceleration draws are (swarm, dim) uniform blocks,
    velocities are clamped per dimension to +-(upper - lower), and positions
    are clamped into the box. History index 0 is the best after
    initialization.
    """
    obj = _checked(objective)
    n, d = params.swarm, space.dim
    v_max = space.width

    positions = space.sample_uniform(rng, n)
    if seed_positions is not None:
        seeds = np.atleast_2d(np.asarray(seed_positions, dtype=float))
        positions[: seeds.shape[0]] = space.apply_bounds(seeds)
    velocities = np.zeros((n, d))
    fitness = np.array([obj(positions[i]) for i in range(n)])
    evaluations = n

    pbest = positions.copy()
    pbest_fit = fitness.copy()
    g = int(np.argmin(pbest_fit))
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])
    history = [gbest_fit]

    for t in range(1, params.iters + 1):
        frac = (t - 1) / max(params.iters - 1, 1)
        w = params.w_max - (params.w_max - params.w_min) * frac
        r1 = rng.uniform((n, d))
        r2 = rng.uniform((n, d))
        velocities = (
            w * velocities
            + params.c1 * r1 * (pbest - positions)
            + params.c2 * r2 * (gbest - positions)
        )
        velocities = np.clip(velocities, -v_max, v_max)
        positions = space.apply_bounds(positions + velocities)
        fitness = np.array([obj(positions[i]) for i in range(n)])
        evaluations += n

        improved = fitness < pbest_fit
        pbest[improved] = positions[improved]
        pbest_fit[improved] = fitness[improved]
        g = int(np.argmin(pbest_fit))
        if pbest_fit[g] < gbest_fit:
            gbest = pbest[g].copy()
            gbest_fit = float(pbest_fit[g])
        history.append(gbest_fit)

    return RunResult(gbest, gbest_fit, np.array(history), evaluations)


def random_search_run(objective, space, budget, rng, record_every=1):
    """Uniform sampling null baseline.

    ``history`` records the best-so-far after every ``record_every`` samples
    (and after the final partial block), so a record_every equal to a swarm
    size yields iteration-aligned traces.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    obj = _checked(objective)
    best = None
    best_fit = math.inf
    history = []
    for i in range(budget):
        x = space.sample_uniform(rng)
        f = obj(x)
        if f < best_fit:
            best, best_fit = x, f
        if (i + 1) % record_every == 0 or i == budget - 1:
            history.append(best_fit)
    return RunResult(best, best_fit, np.array(history), budget)
