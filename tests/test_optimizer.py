import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armyant.optimizer import (
    OptimizerConfig,
    ant_bridge,
    attack_target,
    avg_recruits,
    bridge_mutate,
    initialize,
    merge_archive,
    prey_count,
    prey_count_raw,
    recruit_wheels,
    round_half_away,
    rowwise,
    run,
    scatter_position,
    select_recruits,
    step_attack,
    step_follow,
    truncated_poisson_pmf,
)
from armyant.rng import RandomSource, cumulative_wheels
from armyant.space import SearchSpace


def sphere(x):
    return float(np.sum(x * x))


BOX = SearchSpace.cube(2, -10.0, 10.0)


# --- configuration -----------------------------------------------------------

def test_config_defaults_and_validation():
    cfg = OptimizerConfig(population=30, max_iters=10)
    assert cfg.recruit_init == 15.0
    assert cfg.attack_coeff == 2.0
    assert cfg.stagnation_threshold == 5
    with pytest.raises(ValueError, match="at least 4"):
        OptimizerConfig(population=3, max_iters=10)
    with pytest.raises(ValueError):
        OptimizerConfig(population=10, max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(population=10, max_iters=5, recruit_init=11.0)
    with pytest.raises(ValueError):
        OptimizerConfig(population=10, max_iters=5, attack_coeff=0.0)
    with pytest.raises(ValueError, match="attack_coeff"):
        OptimizerConfig(population=10, max_iters=5, attack_coeff=math.nan)
    with pytest.raises(ValueError, match="attack_coeff must be positive and finite"):
        OptimizerConfig(population=10, max_iters=5, attack_coeff=math.inf)  # NaN moves
    with pytest.raises(ValueError):
        OptimizerConfig(population=10, max_iters=5, stagnation_threshold=0)


def test_config_counts_must_be_integers():
    # a float count would fail inside a run (array shapes, range) or act rounded up
    for name in ("population", "max_iters", "stagnation_threshold"):
        for value in (30.0, 2.5, "30"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                OptimizerConfig(**{name: value})
    cfg = OptimizerConfig(population=np.int64(30), max_iters=np.int32(10),
                          stagnation_threshold=np.uint8(2))
    assert (cfg.population, cfg.max_iters, cfg.stagnation_threshold) == (30, 10, 2)
    assert all(type(v) is int for v in (cfg.population, cfg.max_iters, cfg.stagnation_threshold))


# --- recruitment schedule and sampling ---------------------------------------

def test_avg_recruits_endpoint_is_population():
    cfg = OptimizerConfig(population=50, max_iters=100)
    assert avg_recruits(100, cfg) == 50.0


def test_avg_recruits_hand_value():
    cfg = OptimizerConfig(population=50, max_iters=100, recruit_init=25.0)
    assert avg_recruits(50, cfg) == 37.5


def test_avg_recruits_degenerate_schedule():
    cfg = OptimizerConfig(population=20, max_iters=10, recruit_init=20.0)
    assert all(avg_recruits(t, cfg) == 20.0 for t in range(1, 11))


def test_truncated_poisson_at_zero():
    # truncation mass above n_max is negligible at lam=2, so the pmf at zero
    # equals the raw Poisson value
    pmf = truncated_poisson_pmf(2.0, 50)
    assert pmf[0] == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert pmf[0] == pytest.approx(0.1353, abs=1e-4)


@pytest.mark.parametrize("lam,n_max", [(0.5, 10), (2.0, 50), (25.0, 50), (100.0, 100), (99.0, 30)])
def test_truncated_poisson_normalizes(lam, n_max):
    pmf = truncated_poisson_pmf(lam, n_max)
    assert pmf.size == n_max + 1
    assert abs(pmf.sum() - 1.0) <= 1e-12
    assert np.all(pmf >= 0.0)


def reached_lams(population, max_iters):
    cfg = OptimizerConfig(population=population, max_iters=max_iters)
    return [avg_recruits(t, cfg) for t in range(max_iters + 1)]


@pytest.mark.parametrize("lams,n_max", [
    ([0.5], 10), ([3.7], 30), ([30.0], 30), ([99.0], 30),
    (reached_lams(50, 100), 50), (reached_lams(30, 500), 30),
], ids=["mode_zero", "small_lam", "lam_equals_n", "lam_above_n", "population_50", "population_30"])
def test_truncated_poisson_matches_factorial_oracle(lams, n_max):
    # the exact truncated pmf from Fractions and math.factorial, rounded once;
    # the ratio recurrence on both sides of the mode stays within 2.5e-15 of
    # it on these inputs (measured), while an exp/log wheel reaches 3.0e-14
    for lam in lams:
        weights = [Fraction(lam) ** k / math.factorial(k) for k in range(n_max + 1)]
        total = sum(weights)
        expected = np.array([float(w / total) for w in weights])
        rel = np.abs(truncated_poisson_pmf(lam, n_max) - expected) / expected
        assert rel.max() < 1e-14, lam


def ratio_wheel(lam, n_max):
    """The wheel as one run of ratios each side of the mode, concatenated."""
    m = min(math.floor(lam), n_max)
    below = np.cumprod(np.arange(m, 0, -1) / lam)[::-1]
    above = np.cumprod(lam / np.arange(m + 1, n_max + 1))
    p = np.concatenate((below, [1.0], above))
    return p / p.sum()


def test_recruit_wheel_table_rows_have_the_bytes_of_one_wheel():
    # the padding with 1.0 and the row-wise sum must not move a bit: each row
    # equals the wheel built for its t alone, and the unpadded recurrence;
    # the cover and bench workloads, C9's 30 x 1000 and every golden config
    configs = [OptimizerConfig(population=n, max_iters=T)
               for n, T in ((50, 100), (30, 500), (30, 1000))]
    configs += [OptimizerConfig(**keywords) for _, _, keywords, *_ in GOLDEN_RUNS.values()]
    for cfg in configs:
        table = recruit_wheels(cfg)
        assert table.shape == (cfg.max_iters + 1, cfg.population + 1)
        for t in range(cfg.max_iters + 1):
            lam = avg_recruits(t, cfg)
            alone = truncated_poisson_pmf(lam, cfg.population)
            oracle = ratio_wheel(lam, cfg.population)
            assert table[t].tobytes() == alone.tobytes() == oracle.tobytes()


def test_truncated_poisson_rejects_a_bad_lam():
    for bad in (0.0, -1.0, math.inf, math.nan):
        for lam in (bad, [2.0, bad, 3.0]):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                truncated_poisson_pmf(lam, 10)


def test_recruit_count_distribution():
    # at t = 0 the mean recruit count is recruit_init, so each prey's count
    # follows the Poisson(1) wheel truncated to the population of 10
    lam, n_max, n_draws = 1.0, 10, 100000
    pmf = truncated_poisson_pmf(lam, n_max)
    cfg = OptimizerConfig(population=n_max, max_iters=10, recruit_init=lam)
    rng = RandomSource(17)
    recruit_map = select_recruits(rng.spin(cumulative_wheels(recruit_wheels(cfg))[0], n_draws), n_max, rng)
    counts = np.bincount([len(idx) for idx in recruit_map], minlength=n_max + 1)
    mode = int(np.argmax(counts))
    assert mode in (0, 1)
    for k in range(n_max + 1):
        p = pmf[k]
        sigma = math.sqrt(p * (1 - p) / n_draws)
        assert abs(counts[k] / n_draws - p) <= max(3 * sigma, 1e-4)


def test_recruit_shapes_and_bounds():
    cfg = OptimizerConfig(population=12, max_iters=10)
    active = prey_count(1, cfg.max_iters)  # four prey, as after initialization
    wheel = cumulative_wheels(recruit_wheels(cfg))[5]
    for seed in range(5):
        rng = RandomSource(seed)
        recruit_map = select_recruits(rng.spin(wheel, active), cfg.population, rng)
        assert len(recruit_map) == active
        for idx in recruit_map:
            assert len(set(idx.tolist())) == len(idx)
            assert all(0 <= i < 12 for i in idx)


# --- move operators -----------------------------------------------------------

def test_scatter_zero_noise_returns_prey():
    prey, ant = np.array([1.0, 2.0]), np.array([3.0, -4.0])
    out = scatter_position(prey, ant, np.array([0.0, 0.0]), BOX)
    assert np.array_equal(out, prey)


def test_scatter_hand_case():
    prey, ant = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    out = scatter_position(prey, ant, np.array([1.0, 1.0]), BOX)
    assert np.array_equal(out, np.array([2.0, 2.0]))


def test_scatter_prey_equals_ant():
    prey = np.array([0.5, -0.25])
    out = scatter_position(prey, prey.copy(), np.array([7.0, -3.0]), BOX)
    assert np.array_equal(out, prey)


def test_scatter_is_boundary_corrected():
    space = SearchSpace.cube(1, 0.0, 1.0)
    out = scatter_position(np.array([0.9]), np.array([0.1]), np.array([5.0]), space)
    assert out[0] == 1.0


def padded(rows, prey_of, n_prey, pad=-3.0):
    """The (N, P, D) layout of ``attack_target``: ant m's rows at prey ``prey_of[m]``.

    Every other slot holds ``pad``, which the membership must zero out.
    """
    scatters = np.full((len(rows), n_prey, 2), pad)
    member = np.zeros((len(rows), n_prey), dtype=bool)
    for m, (ant_rows, prey) in enumerate(zip(rows, prey_of)):
        scatters[m, prey] = np.reshape(ant_rows, (-1, 2))
        member[m, prey] = True
    return scatters, member


def test_attack_target_cases():
    p = np.array([0.3, 0.4])
    assert np.array_equal(attack_target(*padded([[p]], [[0]], 1)), [p])
    assert np.array_equal(attack_target(*padded([[np.zeros(2), np.full(2, 2.0)]], [[1, 3]], 4)),
                          [np.ones(2)])
    assert np.array_equal(attack_target(*padded([[p, p, p, p]], [[0, 1, 2, 3]], 4)), [p])
    with pytest.raises(ValueError):
        attack_target(np.empty((1, 0, 2)), np.empty((1, 0), dtype=bool))


def test_attack_target_sums_rows_in_order():
    # ants owning 1, 3, 2 and 1 rows among four prey, and a follower with
    # none; each target must equal the mean the per-ant form took, np.mean
    # over the ant's rows (a sequential sum), to the bit, including the sign
    # of a zero, whatever the padding slots hold
    rows = [
        [[-0.0, 1.0]],
        [[1e16, -0.0], [1.0, -0.0], [1.0, -0.0]],
        [[0.1, 0.2], [0.7, 0.3]],
        [[-0.0, -0.0]],
        [],
    ]
    for prey_of in ([[0], [0, 1, 3], [1, 2], [2], []], [[2], [0, 2, 3], [0, 3], [0], []]):
        for pad in (-3.0, 3.0, -0.0):
            targets = attack_target(*padded(rows, prey_of, 4, pad))
            for m, ant_rows in enumerate(rows[:-1]):
                expected = np.mean(np.array(ant_rows), axis=0)
                assert targets[m].tobytes() == expected.tobytes()
            assert targets[-1].tobytes() == np.zeros(2).tobytes()  # the follower's target


def test_step_attack_hand_case():
    space = SearchSpace.cube(1, -5.0, 5.0)
    out = step_attack(np.array([[0.0]]), np.array([[1.0]]), np.array([0.5]), 2.0, space)
    assert out[0, 0] == 1.0


def test_step_attack_zero_displacement_and_limit():
    cfg = OptimizerConfig(population=10, max_iters=5)
    ant = np.array([[2.0, -1.0]])
    out = step_attack(ant, ant.copy(), np.array([0.7]), cfg.attack_coeff, BOX)
    assert np.array_equal(out, ant)
    tiny = step_attack(np.zeros((1, 2)), np.ones((1, 2)), np.array([1e-12]), cfg.attack_coeff, BOX)
    assert np.all(np.abs(tiny) < 1e-10)
    # a follower takes the step with factor 0 and stays where it is
    assert np.array_equal(step_attack(ant, np.zeros((1, 2)), np.array([0.0]), 2.0, BOX), ant)


def test_step_follow_zero_noise_is_midpoint():
    companions = np.array([[0.0, 0.0], [2.0, 4.0]])
    out = step_follow(companions, np.zeros((2, 2)), BOX)
    assert np.array_equal(out, np.array([1.0, 2.0]))
    same = np.array([[1.5, 1.5], [1.5, 1.5]])
    out = step_follow(same, np.zeros((2, 2)), BOX)
    assert np.array_equal(out, np.array([1.5, 1.5]))


def test_step_follow_sums_from_positive_zero():
    # np.mean over the two perturbed rows sums them from +0.0, so -0.0
    # companions and noise give +0.0, not -0.0
    companions = np.array([[-0.0, -0.0, 1.0], [-0.0, 0.0, 2.0]])
    noise = np.array([[-0.0, -0.0, 0.5], [-0.0, -0.0, -0.25]])
    space = SearchSpace.cube(3, -10.0, 10.0)
    out = step_follow(companions, noise, space)
    expected = np.mean(companions + noise, axis=0)
    assert out.tobytes() == expected.tobytes()
    assert out.tobytes() == np.array([0.0, 0.0, 1.625]).tobytes()


# --- prey schedule -------------------------------------------------------------

def test_round_half_away():
    assert round_half_away(2.5) == 3
    assert round_half_away(3.5) == 4
    assert round_half_away(-2.5) == -3
    assert round_half_away(1.0) == 1
    assert round_half_away(0.04) == 0


def test_prey_count_hand_values():
    assert prey_count(1, 100) == 4
    assert prey_count(51, 100) == 2
    assert prey_count_raw(100, 100) == 0
    assert prey_count(100, 100) == 1


def test_prey_count_schedule_transitions():
    # T_max = 100: 4 through t=13, 3 through t=38, 2 through t=63, then 1
    values = [prey_count(t, 100) for t in range(1, 101)]
    assert values[:13] == [4] * 13
    assert values[13:38] == [3] * 25
    assert values[38:63] == [2] * 25
    assert values[63:] == [1] * 37
    assert [prey_count_raw(t, 100) for t in (88, 89)] == [1, 0]


def test_prey_count_half_rounds_away_from_zero():
    # T_max = 8 puts the schedule exactly on x.5 values
    assert prey_count_raw(2, 8) == 4  # raw 3.5
    assert prey_count_raw(4, 8) == 3  # raw 2.5


# --- ant bridge ----------------------------------------------------------------

def test_bridge_equal_fitness_is_mean_position():
    positions, fits = np.array([[0.0, 0.0], [2.0, 4.0]]), np.array([5.0, 5.0])
    assert np.allclose(ant_bridge(positions, fits, 1.0), [1.0, 2.0])


def test_bridge_single_ant():
    assert np.array_equal(ant_bridge(np.array([[3.0, -1.0]]), [9.0], 2.0), np.array([3.0, -1.0]))


def test_bridge_weights_sum_to_one():
    positions = np.array([[float(i), 0.0] for i in range(1, 6)])
    fits = np.arange(1.0, 6.0)
    best = 0.5
    f = 1.0 / (np.array([1.0, 2.0, 3.0, 4.0, 5.0]) - best + 1e-12)
    w = f / f.sum()
    assert abs(w.sum() - 1.0) <= 1e-12
    expected = w @ positions
    assert np.allclose(ant_bridge(positions, fits, best), expected)


def test_bridge_rejects_non_finite():
    with pytest.raises(ValueError):
        ant_bridge(np.array([np.zeros(2), np.ones(2)]), [math.inf, 1.0], 0.0)


def test_bridge_mutate_hand_cases():
    space = SearchSpace.cube(2, -10.0, 10.0)
    bridge = np.array([4.0, 6.0])

    def mutate(position, fitness, j, u):
        out, out_fit = bridge_mutate(
            np.array([position]), np.array([fitness]), bridge, np.array([j]), np.array([u]),
            rowwise(sphere), space,
        )
        return out[0], out_fit[0]

    # u = 1 and matching coordinate leaves the position unchanged
    ant = np.array([4.0, 0.0])
    out, _ = mutate(ant, sphere(ant), 0, 1.0)
    assert np.array_equal(out, ant)

    # u = 0.5 mutates coordinate j to bridge[j] - position[j]
    ant = np.array([1.0, 9.0])
    out, _ = mutate(ant, sphere(ant), 1, 0.5)
    assert np.array_equal(out, np.array([1.0, -3.0]))  # improved, accepted

    # a worse candidate is rejected
    out, out_fit = mutate(np.array([0.0, 0.0]), 0.0, 0, 1.0)
    assert np.array_equal(out, np.zeros(2))
    assert out_fit == 0.0


# --- archive -------------------------------------------------------------------

def archive_of(values):
    """Archive holding one 1-D entry per value, with that value as fitness."""
    values = np.asarray(values, dtype=float)
    return merge_archive(np.empty((0, 1)), np.empty(0), values[:, None], values)


def test_archive_unchanged_by_worse_population():
    prey, prey_fit = archive_of(range(4))
    before = list(zip(prey[:, 0], prey_fit))
    prey, prey_fit = merge_archive(prey, prey_fit, np.array([[9.0], [8.0]]), np.array([9.0, 8.0]))
    assert list(zip(prey[:, 0], prey_fit)) == before


def test_archive_new_global_best_becomes_entry_zero():
    prey, prey_fit = archive_of(range(1, 5))
    prey, prey_fit = merge_archive(prey, prey_fit, np.array([[-1.0]]), np.array([-1.0]))
    assert prey_fit[0] == -1.0
    assert prey[0, 0] == -1.0
    fits = prey_fit.tolist()
    assert fits == sorted(fits) and len(fits) == 4


def test_archive_truncates_active_count_not_entries():
    # the prey schedule selects how many entries act as prey; the archive
    # itself keeps all four
    prey, prey_fit = archive_of(range(4))
    prey, prey_fit = merge_archive(prey, prey_fit, np.empty((0, 1)), np.empty(0))
    active_count = prey_count(51, 100)
    assert active_count == 2
    assert len(prey_fit) == 4
    assert len(prey[:active_count]) == 2
    assert np.array_equal(prey[:active_count][0], prey[0])


def test_archive_existing_entries_win_ties():
    prey, prey_fit = archive_of([1.0, 2.0, 3.0, 4.0])
    batch = np.array([[-2.0], [-1.0]])
    prey, prey_fit = merge_archive(prey, prey_fit, batch, np.array([1.0, 2.0]))
    assert prey[:, 0].tolist() == [1.0, -2.0, 2.0, -1.0]
    assert prey_fit.tolist() == [1.0, 1.0, 2.0, 2.0]


def test_archive_best_fitness_non_increasing_over_merges():
    rng = RandomSource(0)
    prey, prey_fit = merge_archive(np.empty((0, 2)), np.empty(0), rng.uniform((4, 2)), rng.uniform(4))
    last = prey_fit[0]
    for _ in range(20):
        prey, prey_fit = merge_archive(prey, prey_fit, rng.uniform((5, 2)), rng.uniform(5))
        assert prey_fit[0] <= last
        last = prey_fit[0]


# --- initialization -------------------------------------------------------------

def test_initialize_ranking_and_counts():
    cfg = OptimizerConfig(population=4, max_iters=10)
    space = SearchSpace.cube(2, 0.0, 1.0)
    calls = []

    def objective(x):
        calls.append(x.copy())
        return float(np.sum(x))

    positions, fitness = initialize(cfg, space, rowwise(objective), RandomSource(2))
    assert len(calls) == 4
    sums = [float(np.sum(x)) for x in positions]
    prey, prey_fit = merge_archive(np.empty((0, 2)), np.empty(0), positions, fitness)
    assert prey_fit[0] == min(sums)
    assert len(prey_fit) == 4


def test_initialize_deterministic():
    cfg = OptimizerConfig(population=30, max_iters=10)
    space = SearchSpace.cube(30, -5.0, 5.0)
    pop_a, _ = initialize(cfg, space, rowwise(sphere), RandomSource(8))
    pop_b, _ = initialize(cfg, space, rowwise(sphere), RandomSource(8))
    assert all(np.array_equal(a, b) for a, b in zip(pop_a, pop_b))


def test_initialize_counts_thirty():
    cfg = OptimizerConfig(population=30, max_iters=10)
    space = SearchSpace.cube(30, -1.0, 1.0)
    evals = 0

    def objective(x):
        nonlocal evals
        evals += 1
        return sphere(x)

    positions, fitness = initialize(cfg, space, rowwise(objective), RandomSource(0))
    assert evals == 30
    assert len(merge_archive(np.empty((0, 30)), np.empty(0), positions, fitness)[1]) == 4


def test_initialize_seed_positions_injected():
    cfg = OptimizerConfig(population=10, max_iters=10)
    space = SearchSpace.cube(3, 0.0, 1.0)
    seed = np.array([0.5, 0.5, 0.5])
    positions, _ = initialize(cfg, space, rowwise(sphere), RandomSource(4), seed_positions=[seed])
    assert np.array_equal(positions[0], seed)


# --- block objectives ------------------------------------------------------------

def test_rowwise_calls_rows_in_order():
    calls = []

    def first(x):
        calls.append(x.copy())
        return x[0]

    block = np.arange(12.0).reshape(4, 3)
    values = rowwise(first)(block)
    assert [c.tolist() for c in calls] == block.tolist()
    assert values.tolist() == [0.0, 3.0, 6.0, 9.0]
    assert values.dtype == float


def test_non_finite_error_names_first_bad_row():
    def objective(x):
        values = np.sum(x, axis=1)
        values[[2, 4]] = [math.inf, math.nan]
        return values

    space = SearchSpace.cube(2, 0.0, 1.0)
    cfg = OptimizerConfig(population=6, max_iters=3)
    with pytest.raises(ValueError, match="non-finite value inf at row 2: ") as info:
        run(objective, space, cfg, RandomSource(0))
    assert repr(space.sample_uniform(RandomSource(0), 6)[2]) in str(info.value)


def test_run_rejects_wrong_value_count():
    cfg = OptimizerConfig(population=6, max_iters=3)
    with pytest.raises(ValueError, match="shape"):
        run(lambda x: np.sum(x), SearchSpace.cube(2, 0.0, 1.0), cfg, RandomSource(0))


def test_run_evaluates_one_contiguous_block_per_step():
    # one population block at initialization and per iteration, plus one
    # block of ceil(N/2) candidates per bridge fire
    shapes = []

    def objective(x):
        assert x.flags.c_contiguous
        shapes.append(x.shape)
        return np.sum(x * x, axis=1)

    bridges = []
    cfg = OptimizerConfig(population=9, max_iters=30, stagnation_threshold=1)
    result = run(objective, SearchSpace.cube(4, -5.12, 5.12), cfg, RandomSource(5),
                 observer=lambda state: bridges.append(state.bridge_position is not None))
    assert shapes.count((9, 4)) == 31
    assert shapes.count((5, 4)) == sum(bridges) > 0
    assert len(shapes) == 31 + sum(bridges)
    assert result.evaluations == sum(n for n, _ in shapes)


# --- full runs -------------------------------------------------------------------

def rastrigin(x):
    return float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))


def floor_l1(x):
    return float(math.floor(np.sum(np.abs(x))))


# name -> (objective, space, config keywords, seed, seed positions, sha256, evaluations);
# the digests were recorded from the per-ant sweep the array sweep replaced
GOLDEN_RUNS = {
    "followers": (sphere, SearchSpace.cube(3, -5.0, 5.0),
                  dict(population=10, max_iters=40), 3, None,
                  "6817dbbe66e45f2977c81558820956a036730f20a8378b7cbb88b32a6127a015", 430),
    "bridge_every_iteration": (rastrigin, SearchSpace.cube(4, -5.12, 5.12),
                               dict(population=9, max_iters=30, stagnation_threshold=1), 5, None,
                               "17f4ced37f65b58a5eeaf3d11cdd78bec88f7909e8c59f0f6196bba4db169f10", 409),
    "seed_positions": (sphere, SearchSpace(np.arange(5.0) - 4.0, np.arange(5.0) + 2.0),
                       dict(population=12, max_iters=25, recruit_init=3.0), 8,
                       [[0.5] * 5, [9.0, -9.0, 0.0, 1.0, 2.0]],
                       "c05f0c07d89a0ff12318aee0af2b06cbfb9225d666fc3c17758b15854a1e2969", 330),
    "ties": (floor_l1, SearchSpace.cube(2, -3.0, 3.0),
             dict(population=8, max_iters=30, stagnation_threshold=2, attack_coeff=0.7), 7, None,
             "f69a1ea30c4246f08c20de0825a036772f9a3ead7dc9eb5f101c00f670625a5a", 308),
    "thirty_dim": (rastrigin, SearchSpace.cube(30, -5.12, 5.12),
                   dict(population=30, max_iters=15), 11, None,
                   "44d22fd859a792b11b03957e95cff2804c2734d7e3c3691f78066cd8d4454b66", 480),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_trajectory_golden(name):
    # bit-identity pin: every evaluated point in order, the history, the best
    # position and the evaluation count hash to the recorded digest
    objective, space, keywords, seed, seeds, expected_digest, expected_evals = GOLDEN_RUNS[name]
    h = hashlib.sha256()

    def probe(x):
        h.update(x.tobytes())
        return objective(x)

    cfg = OptimizerConfig(**keywords)
    result = run(rowwise(probe), space, cfg, RandomSource(seed), seed_positions=seeds)
    h.update(result.history.tobytes())
    h.update(result.best_position.tobytes())
    h.update(str(result.evaluations).encode())
    assert result.evaluations == expected_evals
    assert h.hexdigest() == expected_digest


def test_run_history_monotone_and_budget():
    cfg = OptimizerConfig(population=10, max_iters=40)
    bridges = []
    result = run(
        rowwise(sphere),
        SearchSpace.cube(3, -5.0, 5.0),
        cfg,
        RandomSource(3),
        observer=lambda state: bridges.append(state.bridge_position is not None),
    )
    assert len(result.history) == 41
    assert np.all(np.diff(result.history) <= 0)
    expected = 10 + 10 * 40 + math.ceil(10 / 2) * sum(bridges)
    assert result.evaluations == expected
    assert len(bridges) == 40


def test_run_constant_objective():
    cfg = OptimizerConfig(population=8, max_iters=15)
    result = run(rowwise(lambda x: 7.0), SearchSpace.cube(2, 0.0, 1.0), cfg, RandomSource(0))
    assert result.best_fitness == 7.0
    assert np.all(result.history == 7.0)


def test_run_deterministic_trajectory():
    cfg = OptimizerConfig(population=12, max_iters=30)
    space = SearchSpace.cube(4, -3.0, 3.0)
    a = run(rowwise(sphere), space, cfg, RandomSource(21))
    b = run(rowwise(sphere), space, cfg, RandomSource(21))
    assert np.array_equal(a.history, b.history)
    assert np.array_equal(a.best_position, b.best_position)
    assert a.evaluations == b.evaluations


def test_run_rejects_non_finite_objective():
    cfg = OptimizerConfig(population=5, max_iters=5)
    with pytest.raises(ValueError, match="non-finite"):
        run(rowwise(lambda x: math.nan), SearchSpace.cube(2, 0.0, 1.0), cfg, RandomSource(0))


def test_run_sphere_success_rate():
    # threshold frozen from 50 reference runs: every seed reached well below 1e-3
    space = SearchSpace.cube(2, -5.0, 5.0)
    hits = 0
    for seed in range(1, 51):
        cfg = OptimizerConfig(population=20, max_iters=200)
        hits += run(rowwise(sphere), space, cfg, RandomSource(seed)).best_fitness <= 1e-3
    assert hits >= 45


@pytest.mark.parametrize("seed", [1, 4, 5, 9])
def test_run_affine_equivariance(seed):
    # translating the box and optimum shifts the trajectory by the same vector;
    # the horizon is kept short because float rounding of the translated
    # objective can eventually flip a greedy accept decision and fork the runs
    shift = np.array([3.0, -2.0])
    cfg = OptimizerConfig(population=15, max_iters=30)
    base = run(rowwise(sphere), SearchSpace.cube(2, -5.0, 5.0), cfg, RandomSource(seed))
    shifted_space = SearchSpace(shift + np.full(2, -5.0), shift + np.full(2, 5.0))
    shifted = run(
        rowwise(lambda x: sphere(x - shift)), shifted_space, cfg, RandomSource(seed)
    )
    assert np.allclose(shifted.best_position, base.best_position + shift, atol=1e-8)
    assert np.allclose(shifted.history, base.history, atol=1e-8)


def test_run_positions_respect_bounds():
    seen = []

    def probe(x):
        seen.append(x.copy())
        return sphere(x)

    cfg = OptimizerConfig(population=8, max_iters=20)
    run(rowwise(probe), SearchSpace.cube(3, -1.0, 2.0), cfg, RandomSource(9))
    stacked = np.stack(seen)
    assert np.all(stacked >= -1.0) and np.all(stacked <= 2.0)


def test_observer_sees_schedule():
    cfg = OptimizerConfig(population=10, max_iters=25)
    states = []
    run(rowwise(sphere), SearchSpace.cube(2, -1.0, 1.0), cfg, RandomSource(1), observer=states.append)
    assert [s.t for s in states] == list(range(1, 26))
    assert states[0].num_aver == pytest.approx(avg_recruits(1, cfg))
    for s in states:
        assert len(s.recruit_map) == prey_count(s.t, 25)
        for idx in s.recruit_map:
            assert all(0 <= i < 10 for i in idx)
        # an ant serves at most one slot per prey, so its recruiter count is
        # bounded by the number of active prey (never above four)
        recruiters = np.zeros(10, dtype=int)
        for idx in s.recruit_map:
            recruiters[idx] += 1
        assert recruiters.max() <= len(s.recruit_map) <= 4


def test_archive_best_equals_global_min_of_evaluations():
    values = []

    def tracking(x):
        v = sphere(x)
        values.append(v)
        return v

    cfg = OptimizerConfig(population=10, max_iters=30)
    result = run(rowwise(tracking), SearchSpace.cube(3, -2.0, 2.0), cfg, RandomSource(4))
    assert result.best_fitness == min(values)


# name -> (objective, space, config keywords, seed, seed positions); in the
# last run, bridge candidates enter the archive below its fourth entry but
# not below its first
FOLD_RUNS = {name: GOLDEN_RUNS[name][:5] for name in ("ties", "bridge_every_iteration")}
FOLD_RUNS["bridge_entries"] = (sphere, SearchSpace.cube(2, -5.0, 5.0),
                               dict(population=10, max_iters=30, stagnation_threshold=1), 2, None)


@pytest.mark.parametrize("name", sorted(FOLD_RUNS))
def test_archive_is_the_fold_of_every_evaluated_block(name):
    # a run skips a merge that no row can enter, and merges the bridge's kept
    # rows rather than its candidates; after every iteration the archive must
    # still be merge_archive folded over every block the objective received:
    # the initial population, each iteration's and each bridge's candidates
    objective, space, keywords, seed, seeds = FOLD_RUNS[name]
    fold = (np.empty((0, space.dim)), np.empty(0))
    bridges = []

    def block(x):
        nonlocal fold
        values = rowwise(objective)(x)
        fold = merge_archive(*fold, x.copy(), values)
        return values

    def observer(state):
        assert state.prey_positions.tobytes() == fold[0].tobytes(), state.t
        assert state.prey_fitness.tobytes() == fold[1].tobytes(), state.t
        bridges.append(state.bridge_position is not None)

    cfg = OptimizerConfig(**keywords)
    run(block, space, cfg, RandomSource(seed), observer=observer, seed_positions=seeds)
    assert len(bridges) == cfg.max_iters and any(bridges)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_run_histories_never_increase(seed):
    cfg = OptimizerConfig(population=6, max_iters=10)
    result = run(rowwise(sphere), SearchSpace.cube(2, -4.0, 4.0), cfg, RandomSource(seed))
    assert np.all(np.diff(result.history) <= 0)


def test_runtime_scaling_soft():
    # soft performance check: doubling the iteration count or the population
    # should scale wall time roughly linearly (factor-2 slack on top)
    import time

    space = SearchSpace.cube(40, -1.0, 1.0)

    def timed(pop, iters):
        cfg = OptimizerConfig(population=pop, max_iters=iters)
        start = time.perf_counter()
        run(rowwise(sphere), space, cfg, RandomSource(1))
        return time.perf_counter() - start

    timed(20, 30)  # warm-up
    base = timed(20, 60)
    assert timed(20, 120) <= 4.0 * base + 0.1
    assert timed(40, 60) <= 4.0 * base + 0.1
