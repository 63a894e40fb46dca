"""Army ant search optimizer (AASO).

A population of ants minimizes a scalar objective over a box-bounded
continuous space. An archive of up to four prey (the best solutions found
so far) recruits ants each iteration; recruited ants scatter around their
prey with Gaussian noise and attack the mean scatter position, while
unrecruited ants follow two random companions under Cauchy perturbation.
The number of prey shrinks over the run to shift from exploration to
exploitation, and a fitness-weighted "ant bridge" mutates the worse half
of the population when the global best stagnates.

Deterministic draw order (per iteration, one ``RandomSource``):
recruit counts for prey 0..active-1, then their index selections; then
ants 0..N-1 in index order (scatter vectors per recruiting prey in prey
order followed by the attack step scalar, or companion indices followed
by the Cauchy block for followers); then bridge draws if triggered.
The move sweep updates positions in place, so a follower sees the
already-moved positions of lower-indexed companions. Objective
evaluations happen after the sweep, consume no draws, and run
sequentially in ant-index order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import RandomSource

ARCHIVE_SIZE = 4
BRIDGE_EPS = 1e-12


@dataclass
class OptimizerConfig:
    """Run parameters. ``recruit_init`` defaults to population/2."""

    population: int = 50
    max_iters: int = 100
    recruit_init: float | None = None
    attack_coeff: float = 2.0
    stagnation_threshold: int = 5
    seed: int = 0

    def __post_init__(self):
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
        if self.attack_coeff <= 0.0:
            raise ValueError("attack_coeff must be positive")
        if self.stagnation_threshold < 1:
            raise ValueError("stagnation_threshold must be at least 1")


@dataclass
class Ant:
    """One candidate solution: a position and its objective value."""

    position: np.ndarray
    fitness: float


class PreyArchive:
    """Ranked best-so-far solutions, at most four, ascending by fitness.

    ``entries[0]`` is the global best. ``active_count`` is how many of the
    entries currently act as prey; it follows the shrinking prey schedule
    and never exceeds the number of stored entries.
    """

    def __init__(self, entries, active_count=None):
        self.entries = sorted(entries, key=lambda a: a.fitness)[:ARCHIVE_SIZE]
        self.active_count = len(self.entries) if active_count is None else active_count

    @property
    def best(self):
        return self.entries[0]

    def active(self):
        return self.entries[: self.active_count]

    def merge(self, population, active_count):
        """Fold a population into the best-so-far pool and set the active count.

        The pool keeps the four lowest-fitness solutions ever seen; existing
        entries win ties so the global best is stable under equal fitness.
        """
        pool = list(self.entries) + [Ant(a.position.copy(), a.fitness) for a in population]
        pool.sort(key=lambda a: a.fitness)
        self.entries = pool[:ARCHIVE_SIZE]
        self.active_count = max(1, min(active_count, len(self.entries)))


@dataclass
class IterationState:
    """Snapshot of one iteration, handed to the observer callback."""

    t: int
    num_aver: float
    recruit_map: list
    stagnation_counter: int
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
    """Poisson(lam) pmf truncated to {0..n_max} and renormalized.

    Computed in log space so lam near n_max ~ 100 cannot overflow the
    factorial term.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    k = np.arange(n_max + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_max + 1)))))
    log_p = k * math.log(lam) - lam - log_fact
    p = np.exp(log_p - log_p.max())
    return p / p.sum()


def sample_recruit_count(lam, n_max, rng):
    """Roulette-sample how many ants a prey recruits, in {0..n_max}."""
    return rng.roulette(truncated_poisson_pmf(lam, n_max))


def recruit(archive, config, t, rng):
    """Recruit map for the active prey at iteration t.

    Each active prey independently draws its recruit count from the
    truncated Poisson wheel, then selects that many distinct ant indices
    uniformly from the whole population. An ant may serve several prey but
    appears at most once per prey. Counts for every prey are drawn first,
    then their index selections, in prey order.
    """
    n = config.population
    pmf = truncated_poisson_pmf(avg_recruits(t, config), n)
    counts = [rng.roulette(pmf) for _ in archive.active()]
    return [
        np.sort(rng.choice_without_replacement(np.arange(n), k)) if k > 0 else np.empty(0, dtype=int)
        for k in counts
    ]


def scatter_position(prey, ant, rng, space):
    """Gaussian scatter of a recruited ant around its prey.

    The prey-to-ant gap scales a fresh standard-normal vector, so scatter
    shrinks as the population closes in. The result is boundary-corrected
    and never evaluated against the objective.
    """
    eps = rng.normal(prey.shape[0])
    return space.apply_bounds(prey + (prey - ant) * eps)


def attack_target(scatters):
    """Element-wise mean of an ant's scatter positions (one per recruiting prey)."""
    if len(scatters) == 0:
        raise ValueError("attack target needs at least one scatter position")
    return np.mean(scatters, axis=0)


def step_attack(ant, target, config, rng, space):
    """Move an ant toward its attack target by a random fraction of the gap.

    One scalar step factor in (0, 1] is drawn per call and shared across
    dimensions; the attack coefficient allows overshoot past the target.
    """
    r = rng.uniform_open()
    return space.apply_bounds(ant + config.attack_coeff * r * (target - ant))


def step_follow(companions, rng, space):
    """Move an unrecruited ant to the Cauchy-perturbed mean of two companions.

    Each companion gets its own fresh standard-Cauchy vector; the heavy
    tails keep followers exploring locally.
    """
    companions = np.asarray(companions, dtype=float)
    noise = rng.cauchy(companions.shape)
    return space.apply_bounds(np.mean(companions + noise, axis=0))


def prey_count_raw(t, max_iters):
    """Unclamped prey schedule value: rounds 4 down to 0 across the run."""
    return round_half_away(4.0 - 4.0 * (t - 1) / max_iters)


def prey_count(t, max_iters):
    """Number of active prey at iteration t, clamped to at least one.

    The raw schedule reaches zero near the final iterations; a floor of one
    keeps the exploit phase alive (see ``prey_count_raw`` for the raw value).
    """
    return max(1, prey_count_raw(t, max_iters))


def ant_bridge(worse_half, best_fitness):
    """Fitness-weighted centroid of the worse half of the population.

    Weights favor the relatively better ants of the worse half:
    w_k = F_k / sum(F) with F_k = 1 / (fitness_k - best_fitness + eps).
    The epsilon keeps the weights defined for non-positive and tied
    objective values.
    """
    fits = np.array([a.fitness for a in worse_half], dtype=float)
    if not np.all(np.isfinite(fits)):
        raise ValueError("ant bridge requires finite fitness values")
    f = 1.0 / (fits - best_fitness + BRIDGE_EPS)
    w = f / f.sum()
    positions = np.stack([a.position for a in worse_half])
    return w @ positions


def bridge_mutate(ant, bridge, objective, rng, space):
    """Single-dimension greedy mutation against the ant bridge.

    One dimension j is picked uniformly; the candidate replaces coordinate
    j with 2*u*bridge[j] - position[j], u in (0, 1]. The candidate is
    boundary-corrected and evaluated, and the better of the pair survives.
    """
    j = rng.integer(0, ant.position.shape[0])
    u = rng.uniform_open()
    candidate = ant.position.copy()
    candidate[j] = 2.0 * u * bridge[j] - ant.position[j]
    candidate = space.apply_bounds(candidate)
    cand_fit = objective(candidate)
    if cand_fit < ant.fitness:
        return Ant(candidate, cand_fit)
    return ant


def _checked(objective):
    def wrapped(x):
        value = float(objective(x))
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite value {value!r} at {x!r}")
        return value

    return wrapped


def initialize(config, space, objective, rng, seed_positions=None):
    """Uniform random population plus the four-best prey archive.

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
    population = [Ant(positions[i].copy(), objective(positions[i])) for i in range(config.population)]
    archive = PreyArchive([Ant(a.position.copy(), a.fitness) for a in population])
    archive.active_count = prey_count(1, config.max_iters)
    return population, archive


def run(objective, space, config, rng=None, observer=None, seed_positions=None):
    """Minimize ``objective`` over ``space``; returns the best solution found.

    ``history`` holds the best fitness after initialization (index 0) and
    after each iteration (index t), so it is non-increasing by construction.
    Exactly N evaluations happen per iteration plus ceil(N/2) extra whenever
    the stagnation bridge fires, plus N at initialization; ``evaluations``
    reports the exact total. ``observer``, when given, is called once per
    iteration with (IterationState, PreyArchive).
    """
    if rng is None:
        rng = RandomSource(config.seed)
    obj = _checked(objective)
    evaluations = 0

    def evaluate(x):
        nonlocal evaluations
        evaluations += 1
        return obj(x)

    population, archive = initialize(config, space, evaluate, rng, seed_positions)
    history = [archive.best.fitness]
    prev_best_position = archive.best.position.copy()
    stagnation = 0
    n = config.population

    for t in range(1, config.max_iters + 1):
        archive.active_count = min(prey_count(t, config.max_iters), len(archive.entries))
        recruit_map = recruit(archive, config, t, rng)
        active_prey = archive.active()

        # in-place sweep: ants move in index order and later movers see the
        # updated positions of earlier ones; evaluation happens afterwards
        positions = np.stack([a.position for a in population])
        for i in range(n):
            recruiting = [j for j, idx in enumerate(recruit_map) if i in idx]
            if recruiting:
                scatters = [
                    scatter_position(active_prey[j].position, positions[i], rng, space)
                    for j in recruiting
                ]
                positions[i] = step_attack(
                    positions[i], attack_target(scatters), config, rng, space
                )
            else:
                others = np.concatenate((np.arange(i), np.arange(i + 1, n)))
                pair = rng.choice_without_replacement(others, 2)
                positions[i] = step_follow(positions[pair], rng, space)

        population = [Ant(positions[i].copy(), evaluate(positions[i])) for i in range(n)]
        archive.merge(population, prey_count(t, config.max_iters))

        if np.array_equal(archive.best.position, prev_best_position):
            stagnation += 1
        else:
            stagnation = 0

        bridge = None
        if stagnation >= config.stagnation_threshold:
            order = np.argsort([a.fitness for a in population], kind="stable")
            worse = sorted(order[-math.ceil(n / 2):])
            bridge = ant_bridge([population[k] for k in worse], archive.best.fitness)
            for k in worse:
                population[k] = bridge_mutate(population[k], bridge, evaluate, rng, space)
            archive.merge([population[k] for k in worse], prey_count(t, config.max_iters))
            stagnation = 0

        prev_best_position = archive.best.position.copy()
        history.append(archive.best.fitness)
        if observer is not None:
            state = IterationState(
                t=t,
                num_aver=avg_recruits(t, config),
                recruit_map=recruit_map,
                stagnation_counter=stagnation,
                bridge_position=bridge,
            )
            observer(state, archive)

    best = archive.best
    return RunResult(best.position.copy(), best.fitness, np.array(history), evaluations)
