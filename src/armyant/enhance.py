"""Coverage enhancement: optimize deviation angles of fixed sensors.

Every enhancer searches the D-dimensional angle box [0, 2*pi] (positions
never move), tracks the best-so-far coverage per iteration, and reports a
curve whose entry 0 is the post-initialization best. The as-deployed
angle vector is always seeded into population-based searches so no run
starts worse than the incumbent deployment.

The angle box is clamped, not wrapped. Coverage is periodic in every
angle, so a clamped box can represent every orientation, and the clamp is
what stabilizes the optimizers' gap-scaled moves (the attack step is
expansive in the mean square; wrapping re-randomizes oversized moves
around the circle instead of absorbing them and measurably stalls
convergence).
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import optimizer
from .baselines import pso_run
from .coverage import TWO_PI, CoverageEvaluator, canonicalize_angle
from .space import SearchSpace

# virtual-force rotation (``enhance_vfa``); the attraction torque has weight one
ROTATION_STEP = math.pi / 90.0
REPULSION_WEIGHT = 0.5
NEIGHBOR_RADIUS_FACTOR = 2.0


@dataclass
class EnhancementRun:
    """Outcome of one enhancement run on one deployment."""

    initial_rate: float
    final_rate: float
    best_angles: np.ndarray  # one per sensor, in [0, 2*pi)
    curve: np.ndarray
    evaluations: int
    elapsed: float


def _rates_from_history(history, grid_count):
    # fitness is grid_count/covered, so covered is recoverable exactly
    covered = np.rint(grid_count / np.asarray(history, dtype=float))
    return covered / grid_count


def _search_angles(sensors, field, search, config, rng):
    """Minimize the reciprocal coverage with ``search`` over the angle box.

    ``search`` is ``optimizer.run`` or ``pso_run``; the as-deployed angles
    are its one seed position.
    """
    start = time.perf_counter()
    sensors = list(sensors)
    if not sensors:
        raise ValueError("need at least one sensor")
    evaluator = CoverageEvaluator(sensors, field)
    space = SearchSpace.cube(len(sensors), 0.0, TWO_PI)
    incumbent = np.array([s.deviation for s in sensors])
    initial_rate = evaluator.rate(incumbent)
    result = search(evaluator.fitness, space, config, rng, seed_positions=[incumbent])
    return EnhancementRun(
        initial_rate=initial_rate,
        final_rate=evaluator.rate(result.best_position),
        best_angles=canonicalize_angle(result.best_position),
        curve=_rates_from_history(result.history, field.grid_count),
        evaluations=result.evaluations,
        elapsed=time.perf_counter() - start,
    )


def enhance_aaso(sensors, field, config, rng):
    """Army ant search over the clamped angle box [0, 2*pi]^D."""
    return _search_angles(sensors, field, optimizer.run, config, rng)


def enhance_pso(sensors, field, config, rng):
    """Inertia-weight PSO baseline over the same clamped angle box."""
    return _search_angles(sensors, field, pso_run, config, rng)


def _wrap_signed(angle):
    """Reduce an angle difference into (-pi, pi]."""
    out = math.fmod(angle, TWO_PI)
    if out > math.pi:
        out -= TWO_PI
    elif out <= -math.pi:
        out += TWO_PI
    return out


def enhance_vfa(sensors, field, max_iters):
    """Virtual-force rotation baseline, deterministic, over ``max_iters`` iterations.

    Each sensor feels an attraction torque toward the mean bearing of the
    currently uncovered grids within its sensing range and a repulsion
    torque, of weight ``REPULSION_WEIGHT``, away from the mean sensing
    direction of neighbors within ``NEIGHBOR_RADIUS_FACTOR`` times the
    range. It rotates by ``ROTATION_STEP`` in the sign of the weighted sum.
    Sensors update sequentially with incremental per-grid coverage counts,
    so only the rotated sensor's candidate grids are re-tested.
    ``evaluations`` counts per-sensor sector recomputations.
    """
    start = time.perf_counter()
    sensors = list(sensors)
    if not sensors:
        raise ValueError("need at least one sensor")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    evaluator = CoverageEvaluator(sensors, field)
    n = len(sensors)
    thetas = np.array([s.deviation for s in sensors])

    neighbor_lists = []
    positions = np.array([[s.x, s.y] for s in sensors])
    for i in range(n):
        d = np.hypot(positions[:, 0] - positions[i, 0], positions[:, 1] - positions[i, 1])
        reach = NEIGHBOR_RADIUS_FACTOR * sensors[i].radius
        neighbor_lists.append(np.flatnonzero((d <= reach) & (np.arange(n) != i)))

    counts = np.zeros(field.grid_count, dtype=np.int32)
    sensed_cache = []
    evaluations = 0
    for i in range(n):
        idx = evaluator.per_sensor[i][0]
        sensed = idx[evaluator.sensed_subset(i, thetas[i])]
        counts[sensed] += 1
        sensed_cache.append(sensed)
        evaluations += 1
    covered_count = int(np.count_nonzero(counts))

    initial_rate = covered_count / field.grid_count
    best_rate = initial_rate
    best_angles = thetas.copy()
    curve = [best_rate]

    for _ in range(max_iters):
        for i in range(n):
            idx, bearing, zero = evaluator.per_sensor[i]
            torque = 0.0
            uncovered = (counts[idx] == 0) & ~zero
            if np.any(uncovered):
                vx = float(np.sum(np.cos(bearing[uncovered])))
                vy = float(np.sum(np.sin(bearing[uncovered])))
                if vx != 0.0 or vy != 0.0:
                    torque += _wrap_signed(math.atan2(vy, vx) - thetas[i])
            nbrs = neighbor_lists[i]
            if nbrs.size:
                mx = float(np.sum(np.cos(thetas[nbrs])))
                my = float(np.sum(np.sin(thetas[nbrs])))
                if mx != 0.0 or my != 0.0:
                    torque -= REPULSION_WEIGHT * _wrap_signed(
                        math.atan2(my, mx) - thetas[i]
                    )
            if torque == 0.0:
                continue
            step = ROTATION_STEP if torque > 0.0 else -ROTATION_STEP
            thetas[i] = (thetas[i] + step) % TWO_PI

            old = sensed_cache[i]
            counts[old] -= 1
            covered_count -= int(np.count_nonzero(counts[old] == 0))
            new = idx[evaluator.sensed_subset(i, thetas[i])]
            covered_count += int(np.count_nonzero(counts[new] == 0))
            counts[new] += 1
            sensed_cache[i] = new
            evaluations += 1

        rate = covered_count / field.grid_count
        if rate > best_rate:
            best_rate = rate
            best_angles = thetas.copy()
        curve.append(best_rate)

    return EnhancementRun(
        initial_rate=initial_rate,
        final_rate=evaluator.rate(best_angles),
        best_angles=canonicalize_angle(best_angles),
        curve=np.array(curve),
        evaluations=evaluations,
        elapsed=time.perf_counter() - start,
    )
