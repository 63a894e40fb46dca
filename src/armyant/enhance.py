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
from .baselines import PSOParams, pso_run
from .coverage import TWO_PI, CoverageEvaluator, DeploymentScheme
from .rng import RandomSource
from .space import SearchSpace


@dataclass
class EnhancementRun:
    """Outcome of one enhancement run on one deployment."""

    initial_rate: float
    final_rate: float
    best_angles: DeploymentScheme
    curve: np.ndarray
    evaluations: int
    elapsed: float


@dataclass
class VFAParams:
    """Virtual-force rotation: fixed-step descent driven by two torques."""

    rotation_step: float = math.pi / 90.0
    max_iters: int = 100
    attraction_weight: float = 1.0
    repulsion_weight: float = 0.5
    neighbor_radius_factor: float = 2.0

    def __post_init__(self):
        if self.rotation_step <= 0.0:
            raise ValueError("rotation_step must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


def _rates_from_history(history, grid_count):
    # fitness is grid_count/covered, so covered is recoverable exactly
    covered = np.rint(grid_count / np.asarray(history, dtype=float))
    return covered / grid_count


def _search_angles(sensors, field, search, params, rng):
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
    result = search(evaluator.fitness, space, params, rng, seed_positions=[incumbent])
    return EnhancementRun(
        initial_rate=initial_rate,
        final_rate=evaluator.rate(result.best_position),
        best_angles=DeploymentScheme(result.best_position),
        curve=_rates_from_history(result.history, field.grid_count),
        evaluations=result.evaluations,
        elapsed=time.perf_counter() - start,
    )


def enhance_aaso(sensors, field, config=None, rng=None):
    """Army ant search over the clamped angle box [0, 2*pi]^D."""
    if config is None:
        config = optimizer.OptimizerConfig()
    if rng is None:
        rng = RandomSource(config.seed)
    return _search_angles(sensors, field, optimizer.run, config, rng)


def enhance_pso(sensors, field, params=None, rng=None):
    """Inertia-weight PSO baseline over the same clamped angle box."""
    if params is None:
        params = PSOParams(swarm=50, iters=100)
    if rng is None:
        rng = RandomSource(0)
    return _search_angles(sensors, field, pso_run, params, rng)


def _wrap_signed(angle):
    """Reduce an angle difference into (-pi, pi]."""
    out = math.fmod(angle, TWO_PI)
    if out > math.pi:
        out -= TWO_PI
    elif out <= -math.pi:
        out += TWO_PI
    return out


def enhance_vfa(sensors, field, params=None, rng=None):
    """Virtual-force rotation baseline.

    Each sensor feels an attraction torque toward the mean bearing of the
    currently uncovered grids within its sensing range and a repulsion
    torque away from the mean sensing direction of neighbors within twice
    the range, and rotates by a fixed step in the sign of the weighted sum.
    Sensors update sequentially with incremental per-grid coverage counts,
    so only the rotated sensor's candidate grids are re-tested.
    ``evaluations`` counts per-sensor sector recomputations. Deterministic;
    ``rng`` is accepted for interface symmetry and never drawn from.
    """
    start = time.perf_counter()
    sensors = list(sensors)
    if not sensors:
        raise ValueError("need at least one sensor")
    if params is None:
        params = VFAParams()
    evaluator = CoverageEvaluator(sensors, field)
    n = len(sensors)
    thetas = np.array([s.deviation for s in sensors])

    neighbor_lists = []
    positions = np.array([[s.x, s.y] for s in sensors])
    for i in range(n):
        d = np.hypot(positions[:, 0] - positions[i, 0], positions[:, 1] - positions[i, 1])
        reach = params.neighbor_radius_factor * sensors[i].radius
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

    for _ in range(params.max_iters):
        for i in range(n):
            idx, bearing, zero = evaluator.per_sensor[i]
            torque = 0.0
            uncovered = (counts[idx] == 0) & ~zero
            if np.any(uncovered):
                vx = float(np.sum(np.cos(bearing[uncovered])))
                vy = float(np.sum(np.sin(bearing[uncovered])))
                if vx != 0.0 or vy != 0.0:
                    torque += params.attraction_weight * _wrap_signed(
                        math.atan2(vy, vx) - thetas[i]
                    )
            nbrs = neighbor_lists[i]
            if nbrs.size:
                mx = float(np.sum(np.cos(thetas[nbrs])))
                my = float(np.sum(np.sin(thetas[nbrs])))
                if mx != 0.0 or my != 0.0:
                    torque -= params.repulsion_weight * _wrap_signed(
                        math.atan2(my, mx) - thetas[i]
                    )
            if torque == 0.0:
                continue
            step = params.rotation_step if torque > 0.0 else -params.rotation_step
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
        best_angles=DeploymentScheme(best_angles),
        curve=np.array(curve),
        evaluations=evaluations,
        elapsed=time.perf_counter() - start,
    )
