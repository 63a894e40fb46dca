"""Baseline optimizers: canonical global-best PSO and uniform random search.

Both read only ``population`` and ``max_iters`` of the ``OptimizerConfig``
that AASO takes, so every search of a comparison has the same budget.
"""

import math

import numpy as np

from .optimizer import RunResult, _checked, initialize

# acceleration coefficients (cognitive, social) and the inertia weight,
# which decays linearly from W_MAX to W_MIN over the run
C1, C2 = 2.0, 2.0
W_MAX, W_MIN = 0.9, 0.4

# random search's coordinates per objective call (128 KiB of float64): enough
# blocks that NumPy's per-call overhead is small, few enough that a call's
# arrays stay in cache
RANDOM_GROUP_COORDS = 2**14


def pso_run(objective, space, config, rng, seed_positions=None):
    """Global-best PSO with zero initial velocities and synchronous updates.

    ``objective`` maps an (n, D) block to its (n,) values; the swarm of
    ``config.population`` is evaluated as one block at initialization
    (``optimizer.initialize``) and in each of ``config.max_iters`` iterations.

    Per iteration the two acceleration draws are (swarm, dim) uniform blocks,
    velocities are clamped per dimension to +-(upper - lower), and positions
    are clamped into the box. History index 0 is the best after
    initialization.
    """
    n, d, iters, v_max = config.population, space.dim, config.max_iters, space.width

    obj = _checked(objective)
    positions, fitness = initialize(config, space, obj, rng, seed_positions)
    velocities = np.zeros((n, d))

    pbest = positions.copy()
    pbest_fit = fitness.copy()
    g = int(np.argmin(pbest_fit))
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])
    history = [gbest_fit]

    for t in range(1, iters + 1):
        frac = (t - 1) / max(iters - 1, 1)
        w = W_MAX - (W_MAX - W_MIN) * frac
        r1 = rng.uniform((n, d))
        r2 = rng.uniform((n, d))
        velocities = w * velocities + C1 * r1 * (pbest - positions) + C2 * r2 * (gbest - positions)
        velocities = np.minimum(np.maximum(velocities, -v_max), v_max)
        positions = space.apply_bounds(positions + velocities)
        fitness = obj(positions)

        improved = fitness < pbest_fit
        pbest[improved] = positions[improved]
        pbest_fit[improved] = fitness[improved]
        g = int(np.argmin(pbest_fit))
        if pbest_fit[g] < gbest_fit:
            gbest = pbest[g].copy()
            gbest_fit = float(pbest_fit[g])
        history.append(gbest_fit)

    return RunResult(gbest, gbest_fit, np.array(history), n * (iters + 1))


def random_search_run(objective, space, config, rng):
    """Uniform sampling null baseline: ``config.max_iters + 1`` blocks.

    Each block is ``config.population`` samples, so block 0 matches an
    optimizer's initialization and block t its iteration t. Each objective
    call gets several whole blocks, as many as fit in ``RANDOM_GROUP_COORDS``
    coordinates (one block when a block alone is larger), drawn at once:
    the same doubles as one draw per sample. ``history`` records the
    best-so-far after every block. Each block's first minimum replaces the
    best only when strictly lower, so ties keep the earliest sample, as one
    sample at a time would.
    """
    obj = _checked(objective)
    n, blocks = config.population, config.max_iters + 1
    per_call = max(1, RANDOM_GROUP_COORDS // (n * space.dim))
    best, best_fit, history = None, math.inf, []
    for start in range(0, blocks, per_call):
        group = space.sample_uniform(rng, min(per_call, blocks - start) * n)
        values = obj(group).reshape(-1, n)
        rows = values.argmin(axis=1)
        mins = values[np.arange(len(rows)), rows]
        for j, (i, f) in enumerate(zip(rows.tolist(), mins.tolist())):
            if f < best_fit:
                best, best_fit = group[j * n + i], f
            history.append(best_fit)
    return RunResult(best.copy(), best_fit, np.array(history), n * blocks)
