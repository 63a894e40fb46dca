"""Army ant search optimizer (AASO).

A population of ants minimizes an objective over a box-bounded
continuous space. An archive of up to four prey (the best solutions found
so far) recruits ants each iteration; recruited ants scatter around their
prey with Gaussian noise and attack the mean scatter position, while
unrecruited ants follow two random companions under Cauchy perturbation.
The number of prey shrinks over the run to shift from exploration to
exploitation, and a fitness-weighted "ant bridge" mutates the worse half
of the population when the global best stagnates.

The population is an (N, D) position array with an (N,) fitness vector;
the prey archive holds the (<=4, D) best positions so far, ascending.

Objectives are evaluated a block at a time: they take a C-contiguous
(n, D) array of points and return the (n,) array of their values.
``rowwise`` adapts a callable that scores one point.

Deterministic draw order (per iteration, one ``RandomSource``):
recruit counts for prey 0..active-1, then their index selections; then
ants 0..N-1 in index order (a recruited ant's scatter vectors in prey
order, as one normal block, followed by the attack step scalar; or a
follower's companion indices followed by its Cauchy block); then bridge
draws if triggered. Each iteration makes its sweep's draws first and
computes nothing there. Objective evaluations consume no draws: one block
of the whole population after the sweep, plus one block of the bridge
candidates when the bridge fires.

What a run computes once:

- the recruit wheel of every iteration, as one table (``recruit_wheels``)
  whose row t has the bytes of the wheel built for t alone, since the
  padding in ``truncated_poisson_pmf`` multiplies by 1.0;
- that table's cumulative sums, checked once (``cumulative_wheels``). Each
  row has the bytes of its wheel summed alone, and each iteration spins
  its row with ``RandomSource.spin``, as ``roulette`` spins one wheel;
- one buffer of N * 4 * D doubles, since an ant is recruited at most once
  by each of at most four prey. Each iteration writes its scatter normals
  into it ant by ant; ``normal(out=...)`` draws the doubles that one
  ``normal(k * D)`` array per ant would;
- the prey schedule, as a list.

Each step of an iteration computes in place on a fresh temporary of its
own, and no array handed to the objective is written afterwards.

The attack is one pass over every ant and active prey, in an (N, P, D)
layout: a pair where the ant is not recruited by that prey gets zero
noise, and its scatter is multiplied by 0. Each ant reads only its own
pre-sweep row and the prey. The attack target must add an ant's scatter
rows to +0.0 one after another in prey order, as ``np.mean`` does; another
order rounds differently or flips the sign of a zero. The padding rows
keep every bit of that sum: they add +0.0 or -0.0, x + (+-0.0) = x for
every x but -0.0, and a sum started at +0.0 never holds -0.0. Followers
take the attack step with factor 0, which leaves their rows finite.

The follower chain then overwrites the followers' rows in index order: a
companion with a lower index contributes its new row, any other its
pre-sweep row, as in a sweep that updates positions in place.

The archive always holds four entries, and existing entries win ties, so
a block none of whose values lies strictly below the fourth entry leaves
the archive as it is; the run skips that merge, after the iteration's
block and after the bridge's.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .rng import cumulative_wheels

ARCHIVE_SIZE = 4
BRIDGE_EPS = 1e-12


@dataclass
class OptimizerConfig:
    """Run parameters of every search: AASO, ``pso_run`` and ``random_search_run``.

    Each search reads ``population`` and ``max_iters``; only AASO reads
    ``recruit_init`` (default population/2), ``attack_coeff`` and
    ``stagnation_threshold``.
    """

    population: int = 50
    max_iters: int = 100
    recruit_init: float | None = None
    attack_coeff: float = 2.0
    stagnation_threshold: int = 5

    def __post_init__(self):
        # the searches size arrays and loops by these counts; NumPy integers pass
        for name in ("population", "max_iters", "stagnation_threshold"):
            value = getattr(self, name)
            try:
                setattr(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.population < ARCHIVE_SIZE:
            raise ValueError(
                f"population must be at least {ARCHIVE_SIZE} (the prey archive "
                f"holds four initial solutions), got {self.population}"
            )
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.recruit_init is None:
            self.recruit_init = self.population / 2.0
        if not 0.0 < self.recruit_init <= self.population:
            raise ValueError("recruit_init must lie in (0, population]")
        if not 0.0 < self.attack_coeff < math.inf:
            raise ValueError("attack_coeff must be positive and finite")
        if self.stagnation_threshold < 1:
            raise ValueError("stagnation_threshold must be at least 1")


@dataclass
class IterationState:
    """Snapshot of one iteration, with the archive after it, for the observer."""

    t: int
    num_aver: float
    recruit_map: list
    stagnation_counter: int
    prey_positions: np.ndarray
    prey_fitness: np.ndarray
    bridge_position: np.ndarray | None = None


@dataclass
class RunResult:
    best_position: np.ndarray
    best_fitness: float
    history: np.ndarray
    evaluations: int


def round_half_away(x):
    """round() with halves away from zero, as in the usual numeric packages."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def avg_recruits(t, config):
    """Mean recruit count at iteration t, rising linearly to the population size."""
    n = config.population
    return config.recruit_init + (n - config.recruit_init) * t / config.max_iters


def truncated_poisson_pmf(lam, n_max):
    """Poisson(lam) pmf truncated to {0..n_max} and renormalized, one wheel per lam.

    ``lam`` is a scalar or an array; the wheels lie along a new last axis of
    n_max + 1 weights. Built from the ratio p_k / p_(k-1) = lam / k outward
    from the mode m = min(floor(lam), n_max), whose weight is 1: every other
    weight is a running product of ratios at most 1, so none can overflow.
    Each side's ratios are padded with 1.0 to the whole wheel, which
    multiplies exactly, and the two sides' products meet at the mode, so a
    wheel's bytes do not depend on the other values of ``lam``. There is no
    ``exp`` or ``log`` here. NumPy's loops for those round differently with
    and without AVX-512, while multiplication and division are correctly
    rounded, so the wheel has the same bytes on every CPU.
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    if not np.all((0.0 < lam) & (lam < math.inf)):
        raise ValueError("lam must be positive and finite")
    k = np.arange(n_max + 1)
    m = np.minimum(np.floor(lam), n_max)
    # below the mode p_k = p_(k+1) * (k + 1) / lam, multiplied from the mode down
    below = np.cumprod(np.where(k < m, (k + 1) / lam, 1.0)[..., ::-1], axis=-1)[..., ::-1]
    above = np.cumprod(np.where(k > m, lam / np.maximum(k, 1), 1.0), axis=-1)
    p = below * above
    return p / p.sum(axis=-1, keepdims=True)


def recruit_wheels(config):
    """The run's recruit wheels: row t is ``truncated_poisson_pmf(avg_recruits(t, config), N)``."""
    lam = avg_recruits(np.arange(config.max_iters + 1), config)
    return truncated_poisson_pmf(lam, config.population)


def recruit(n_prey, wheel, rng):
    """Recruit map for the ``n_prey`` active prey, spinning the recruit ``wheel``.

    Each active prey independently draws its recruit count from the wheel
    (a pmf over 0..N), then selects that many distinct ant indices
    uniformly from the whole population of N. An ant may serve several
    prey but appears at most once per prey. Counts for every prey are drawn
    first, then their index selections, in prey order.
    """
    return select_recruits(rng.roulette(wheel, size=n_prey), len(wheel) - 1, rng)


def select_recruits(counts, n, rng):
    """Per prey, ``counts[j]`` distinct ant indices out of n, sorted, in prey order."""
    return [
        np.sort(rng.choice_without_replacement(n, k)) if k > 0 else np.empty(0, dtype=int)
        for k in counts.tolist()
    ]


def scatter_position(prey, ants, eps, space):
    """Gaussian scatter of recruited ants around their prey, row by row.

    The prey-to-ant gap scales the standard-normal ``eps``, so scatter
    shrinks as the population closes in; ``eps`` has the shape of
    ``prey - ants``. The result is boundary-corrected and never evaluated
    against the objective.
    """
    scatter = prey - ants
    scatter *= eps
    scatter += prey  # prey + gap * eps: IEEE addition commutes
    return space.apply_bounds(scatter, out=scatter)


def attack_target(scatters, member):
    """Per-ant mean of its member scatter rows in an (N, P, D) layout.

    ``member[i, j]`` says whether ant i scatters around prey j; the other
    rows of ``scatters`` are padding and are multiplied by 0. As in
    ``np.mean`` over one ant's rows, the rows are added to +0.0 one after
    another, in prey order, and the sum is divided by their count. A
    padding row adds +0.0 or -0.0, which changes no bit: x + (+-0.0) = x,
    and a sum started at +0.0 never holds -0.0. Every ant's first row is
    added to +0.0 as ``row + 0.0``, which is ``0.0 + row`` to the bit (IEEE
    addition commutes; both turn -0.0 into +0.0). An ant with no member row
    gets the target 0.
    """
    if scatters.shape[1] == 0:
        raise ValueError("attack target needs at least one scatter position")
    rows = scatters * member[:, :, None]
    target = rows[:, 0] + 0.0
    for j in range(1, rows.shape[1]):
        target += rows[:, j]
    target /= np.maximum(member.sum(axis=1), 1)[:, None]
    return target


def step_attack(ants, targets, r, attack_coeff, space):
    """Move ants toward their attack targets by a random fraction of the gap.

    Ant m's step factor ``r[m]`` in (0, 1] is shared across dimensions; the
    attack coefficient allows overshoot past the target. A step factor of
    0 leaves the row where it is. The step is computed in place as
    (targets - ants) * (attack_coeff * r) + ants, the factor one product;
    IEEE addition and multiplication commute.
    """
    step = targets - ants
    step *= (attack_coeff * r)[:, None]
    step += ants
    return space.apply_bounds(step, out=step)


def step_follow(companions, noise, space):
    """Move an unrecruited ant to the Cauchy-perturbed mean of two companions.

    Each companion row gets its own row of standard-Cauchy ``noise``; the
    heavy tails keep followers exploring locally. The two perturbed rows
    are added to +0.0, as ``np.mean`` over them does, so two -0.0 give +0.0.
    """
    first, second = companions
    step = first + noise[0]
    step += 0.0  # 0.0 + row, to the bit: IEEE addition commutes
    step += second + noise[1]
    step /= 2.0
    return space.apply_bounds(step, out=step)


def prey_count_raw(t, max_iters):
    """Unclamped prey schedule value: rounds 4 down to 0 across the run."""
    return round_half_away(4.0 - 4.0 * (t - 1) / max_iters)


def prey_count(t, max_iters):
    """Number of active prey at iteration t, clamped to at least one.

    The raw schedule reaches zero near the final iterations; a floor of one
    keeps the exploit phase alive (see ``prey_count_raw`` for the raw value).
    """
    return max(1, prey_count_raw(t, max_iters))


def merge_archive(prey_positions, prey_fitness, positions, fitness):
    """Fold a batch into the best-so-far pool; returns new (positions, fitness).

    The pool keeps the four lowest-fitness solutions ever seen, ascending;
    existing entries win ties (a stable sort with the archive rows first)
    so the global best is stable under equal fitness.
    """
    pool_fitness = np.concatenate((prey_fitness, fitness))
    keep = np.argsort(pool_fitness, kind="stable")[:ARCHIVE_SIZE]
    return np.concatenate((prey_positions, positions))[keep], pool_fitness[keep]


def ant_bridge(positions, fitness, best_fitness):
    """Fitness-weighted centroid of the worse half of the population.

    Weights favor the relatively better ants of the worse half:
    w_k = F_k / sum(F) with F_k = 1 / (fitness_k - best_fitness + eps).
    The epsilon keeps the weights defined for non-positive and tied
    objective values.
    """
    fits = np.asarray(fitness, dtype=float)
    if not np.all(np.isfinite(fits)):
        raise ValueError("ant bridge requires finite fitness values")
    f = 1.0 / (fits - best_fitness + BRIDGE_EPS)
    w = f / f.sum()
    return w @ positions


def bridge_mutate(positions, fitness, bridge, dims, u, objective, space):
    """Single-dimension greedy mutation of each row against the ant bridge.

    Row m's candidate replaces coordinate j = dims[m] with
    2*u[m]*bridge[j] - positions[m, j], u in (0, 1]. Candidates are
    boundary-corrected and evaluated as one block, and each row keeps the
    better of the pair. Returns new (positions, fitness) arrays.
    """
    rows = np.arange(len(dims))
    candidates = positions.copy()
    candidates[rows, dims] = 2.0 * u * bridge[dims] - positions[rows, dims]
    candidates = space.apply_bounds(candidates)
    cand_fitness = objective(candidates)
    better = cand_fitness < fitness
    return np.where(better[:, None], candidates, positions), np.where(better, cand_fitness, fitness)


def rowwise(objective):
    """Adapt an objective that scores one point to the block protocol.

    The returned callable calls ``objective`` on each row of a block, in
    row order, and collects the values as floats.
    """

    def block(x):
        return np.array([float(objective(row)) for row in x])

    return block


def _checked(objective):
    """The block objective; its values must be one finite float per row."""

    def wrapped(x):
        values = np.asarray(objective(x), dtype=float)
        if values.shape != (len(x),):
            raise ValueError(
                f"objective returned shape {values.shape} for a block of {len(x)} points"
            )
        if not np.isfinite(values).all():
            i = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(
                f"objective returned non-finite value {float(values[i])!r} at row {i}: {x[i]!r}"
            )
        return values

    return wrapped


def initialize(config, space, objective, rng, seed_positions=None):
    """Uniform random population and its fitness, evaluated as one block.

    ``seed_positions`` optionally overwrites the first rows of the sampled
    block (the full block is drawn either way, so injecting incumbents does
    not disturb the draw sequence).
    """
    positions = space.sample_uniform(rng, config.population)
    if seed_positions is not None:
        seeds = np.atleast_2d(np.asarray(seed_positions, dtype=float))
        if seeds.shape[0] > config.population or seeds.shape[1] != space.dim:
            raise ValueError("seed positions must fit the population and dimension")
        positions[: seeds.shape[0]] = space.apply_bounds(seeds)
    return positions, objective(positions)


def run(objective, space, config, rng, observer=None, seed_positions=None):
    """Minimize ``objective`` over ``space``; returns the best solution found.

    ``objective`` maps an (n, D) block to its (n,) values (see ``rowwise``).
    ``history`` holds the best fitness after initialization (index 0) and
    after each iteration (index t), so it is non-increasing by construction.
    Exactly N evaluations happen per iteration plus ceil(N/2) extra whenever
    the stagnation bridge fires, plus N at initialization; ``evaluations``
    reports the exact total. ``observer``, when given, is called once per
    iteration with an ``IterationState``.
    """
    obj = _checked(objective)
    evaluations = 0

    def evaluate(x):
        nonlocal evaluations
        evaluations += len(x)
        return obj(x)

    n, d = config.population, space.dim
    positions, fitness = initialize(config, space, evaluate, rng, seed_positions)
    prey, prey_fitness = merge_archive(np.empty((0, d)), np.empty(0), positions, fitness)
    history = [prey_fitness[0]]
    stagnation = 0
    wheels = cumulative_wheels(recruit_wheels(config))
    schedule = [prey_count(t, config.max_iters) for t in range(config.max_iters + 1)]
    normals = np.empty(n * ARCHIVE_SIZE * d)
    spin, normal, uniform_open = rng.spin, rng.normal, rng.uniform_open
    choice, cauchy = rng.choice_without_replacement, rng.cauchy

    for t in range(1, config.max_iters + 1):
        active = min(schedule[t], len(prey))
        recruit_map = select_recruits(spin(wheels[t], active), n, rng)
        member = np.zeros((n, active), dtype=bool)
        for j, idx in enumerate(recruit_map):
            member[idx, j] = True

        # draw phase: every draw of the sweep, ant by ant; nothing moves yet
        filled, r, follow = 0, [], []
        for i, k in enumerate(member.sum(axis=1).tolist()):
            if k:
                normal(out=normals[filled:filled + k * d])
                filled += k * d
                r.append(uniform_open())
            else:
                # two companions other than ant i, skipping over its index
                a, b = choice(n - 1, 2).tolist()
                follow.append((i, a + (a >= i), b + (b >= i), cauchy((2, d))))
                r.append(0.0)

        # one attack pass over the padded (N, P, D) layout, then the
        # follower chain over its rows (see the module docstring)
        noise = np.zeros((n, active, d))
        noise[member] = normals[:filled].reshape(-1, d)
        scatters = scatter_position(prey[:active], positions[:, None], noise, space)
        moved = step_attack(
            positions, attack_target(scatters, member), np.array(r), config.attack_coeff, space
        )
        for i, a, b, cauchy_rows in follow:
            pair = (moved[a] if a < i else positions[a], moved[b] if b < i else positions[b])
            moved[i] = step_follow(pair, cauchy_rows, space)

        positions = moved
        fitness = evaluate(positions)
        best_before = prey[0]
        if (fitness < prey_fitness[-1]).any():  # else no row enters the full archive
            prey, prey_fitness = merge_archive(prey, prey_fitness, positions, fitness)
        stagnation = stagnation + 1 if (prey[0] == best_before).all() else 0

        bridge = None
        if stagnation >= config.stagnation_threshold:
            worse = np.sort(np.argsort(fitness, kind="stable")[-math.ceil(n / 2):])
            bridge = ant_bridge(positions[worse], fitness[worse], prey_fitness[0])
            dims, u = zip(*[(rng.integer(0, d), rng.uniform_open()) for _ in worse])
            positions = positions.copy()  # the rows already evaluated stay as they were
            positions[worse], fitness[worse] = bridge_mutate(
                positions[worse], fitness[worse], bridge, np.array(dims), np.array(u), evaluate, space
            )
            if (fitness[worse] < prey_fitness[-1]).any():
                prey, prey_fitness = merge_archive(
                    prey, prey_fitness, positions[worse], fitness[worse]
                )
            stagnation = 0

        history.append(prey_fitness[0])
        if observer is not None:
            num_aver = avg_recruits(t, config)
            observer(IterationState(t, num_aver, recruit_map, stagnation, prey, prey_fitness, bridge))

    return RunResult(prey[0].copy(), float(prey_fitness[0]), np.array(history), evaluations)
