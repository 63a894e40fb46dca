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
around the circle instead of absorbing them). Wrapping measurably stalled
convergence when positions were wrapped but gaps stayed linear. With
shortest-arc gaps, neither a circular PSO nor a circular AASO prototype
stalled (ROADMAP item 9).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import optimizer
from .baselines import pso_run
from .coverage import TWO_PI, CoverageEvaluator, canonicalize_angle, entry_geometry, move_counts
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


def _rates_from_history(history, grid_count):
    # fitness is grid_count/covered, so covered is recoverable exactly; every
    # value above grid_count is the zero-coverage sentinel
    history = np.asarray(history, dtype=float)
    covered = np.where(history > grid_count, 0.0, np.rint(grid_count / history))
    return covered / grid_count


def _search_angles(sensors, field, search, config, rng):
    """Minimize the reciprocal coverage with ``search`` over the angle box.

    ``search`` is ``optimizer.run`` or ``pso_run``; the as-deployed angles
    are its one seed position.
    """
    sensors = list(sensors)
    if not sensors:
        raise ValueError("need at least one sensor")
    evaluator = CoverageEvaluator(sensors, field)
    space = SearchSpace.cube(len(sensors), 0.0, TWO_PI)
    incumbent = np.array([s.deviation for s in sensors])
    initial_rate = evaluator.rate(incumbent)
    result = search(evaluator.fitness, space, config, rng, seed_positions=[incumbent])
    curve = _rates_from_history(result.history, field.grid_count)
    return EnhancementRun(
        initial_rate=initial_rate,
        # the curve's last entry is the best position's rate, recovered exactly
        final_rate=float(curve[-1]),
        best_angles=canonicalize_angle(result.best_position),
        curve=curve,
        evaluations=result.evaluations,
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


def _pull(cos_sin, theta):
    """Signed turn in (-pi, pi] from ``theta`` toward the mean direction of the
    unit vectors whose cosines and sines are the rows of ``cos_sin``; 0.0 when
    they sum to zero (or there are none).

    ``np.add.reduce`` along a row is the pairwise sum that ``np.sum`` runs
    on that row alone, without its Python wrapper.
    """
    x, y = np.add.reduce(cos_sin, axis=1).tolist()
    if x == 0.0 and y == 0.0:
        return 0.0
    return _wrap_signed(math.atan2(y, x) - theta)


def _candidate_geometry(sensor, field, segments):
    """The sensor's candidate grids, their bearings and zero-distance flags.

    ``segments`` is the sensor's ``run_grids`` entry: its candidate grids
    in run order. Candidate order is ascending grid index
    (``candidate_grids``), so one sort restores it.
    """
    # the empty part keeps the dtype when the sensor has no candidate grid
    idx = np.sort(np.concatenate([np.empty(0, dtype=np.intp), *segments]))
    return (idx, *entry_geometry(sensor, field, idx))


def enhance_vfa(sensors, field, max_iters):
    """Virtual-force rotation baseline, deterministic, over ``max_iters`` iterations.

    Each sensor feels an attraction torque toward the mean bearing of the
    currently uncovered grids within its sensing range and a repulsion
    torque, of weight ``REPULSION_WEIGHT``, away from the mean sensing
    direction of neighbors within ``NEIGHBOR_RADIUS_FACTOR`` times the
    range. It rotates by ``ROTATION_STEP`` in the sign of the weighted sum.
    Sensors update sequentially with incremental per-grid coverage counts:
    a rotation finds the sensor's runs with ``sensed_subset`` and touches
    only the grids of the entries whose bounds it crossed
    (``coverage.move_counts``). ``evaluations`` counts these per-sensor
    sector recomputations, one ``sensed_subset`` call each.

    Precomputed once per run: each sensor's neighbor list, and the cosines
    and sines of the bearings of its candidate grids (grids at the sensor's
    own position, which exert no pull, left out), stacked as a (2, m)
    array, from the evaluator's ``run_grids`` (``_candidate_geometry``).
    The cosines and sines of the sensors' deviations are kept in one (2, n)
    array, and a sensor's column is updated when it rotates.
    ``np.cos`` and ``np.sin`` act element by element, so selecting from
    these arrays gives the doubles that the functions would give on the
    selected angles.
    """
    sensors = list(sensors)
    if not sensors:
        raise ValueError("need at least one sensor")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    evaluator = CoverageEvaluator(sensors, field)
    n = len(sensors)
    # Python floats: their ``%`` is np.mod's (see ``canonicalize_scalar``)
    # and their scalar arithmetic is cheaper than NumPy's
    thetas = [s.deviation for s in sensors]
    cos_sin_t = np.stack([np.cos(thetas), np.sin(thetas)])

    neighbor_lists = []
    positions = np.array([[s.x, s.y] for s in sensors])
    for i in range(n):
        d = np.hypot(positions[:, 0] - positions[i, 0], positions[:, 1] - positions[i, 1])
        reach = NEIGHBOR_RADIUS_FACTOR * sensors[i].radius
        neighbor_lists.append(np.flatnonzero((d <= reach) & (np.arange(n) != i)))

    grid_pulls = []
    for sensor, segments in zip(sensors, evaluator.run_grids):
        idx, bearing, zero = _candidate_geometry(sensor, field, segments)
        away = ~zero
        grid_pulls.append((idx[away], np.stack([np.cos(bearing[away]), np.sin(bearing[away])])))

    counts = np.zeros(field.grid_count, dtype=np.int32)
    runs = [[(grids, 0, 0, grids.size) for grids in segments] for segments in evaluator.run_grids]

    def sense(i):
        # move sensor i's grids in ``counts`` to those it senses at thetas[i]
        new = evaluator.sensed_subset(i, thetas[i])
        move_counts(counts, runs[i], new)
        runs[i] = new

    for i in range(n):
        sense(i)
    evaluations = n

    initial_rate = np.count_nonzero(counts) / field.grid_count
    best_rate = initial_rate
    best_angles = np.array(thetas)
    curve = [best_rate]

    for _ in range(max_iters):
        for i, ((idx, cos_sin_b), neighbors) in enumerate(zip(grid_pulls, neighbor_lists)):
            theta = thetas[i]
            attraction = _pull(cos_sin_b.compress(counts[idx] == 0, axis=1), theta)
            repulsion = _pull(cos_sin_t.take(neighbors, axis=1), theta)
            torque = attraction - REPULSION_WEIGHT * repulsion
            if torque == 0.0:
                continue
            step = ROTATION_STEP if torque > 0.0 else -ROTATION_STEP
            thetas[i] = theta = (theta + step) % TWO_PI
            cos_sin_t[0, i] = np.cos(theta)
            cos_sin_t[1, i] = np.sin(theta)
            sense(i)
            evaluations += 1

        rate = np.count_nonzero(counts) / field.grid_count
        if rate > best_rate:
            best_rate = rate
            best_angles = np.array(thetas)
        curve.append(best_rate)

    return EnhancementRun(
        initial_rate=initial_rate,
        final_rate=float(best_rate),
        best_angles=canonicalize_angle(best_angles),
        curve=np.array(curve),
        evaluations=evaluations,
    )
