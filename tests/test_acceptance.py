"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a FAIL surfaces as an ordinary pytest failure). The heavy
experiments (criteria 4 and 9) take several minutes each; they and
criteria 3 and 5 carry the ``slow`` marker, which ``pytest -m "not slow"``
skips.
"""

import math

import numpy as np
import pytest

import armyant as aa
from armyant.cli import analyze_report
from armyant.coverage import CoverageEvaluator, coverage_naive
from armyant.harness import compare
from armyant.optimizer import (
    OptimizerConfig,
    ant_bridge,
    prey_count,
    prey_count_raw,
    run,
    truncated_poisson_pmf,
)
from armyant.rng import RandomSource
from armyant.space import SearchSpace

PI = math.pi
HEADLINE = dict(length=500.0, width=500.0, interval=5.0, nodes=110, radius=60.0, alpha=PI / 2)


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def headline_field():
    return aa.CoverageField(HEADLINE["length"], HEADLINE["width"], HEADLINE["interval"])


def test_c1_required_nodes_exact_value():
    needed = aa.required_nodes(0.8752, 60.0, PI / 2, 250000.0)
    assert needed == 183
    text = analyze_report(500, 500, 110, 60, 90, target=0.8752)
    assert "183" in text and "73" in text
    report(1, "required_nodes(0.8752) = 183, saving 73")


def test_c2_expected_coverage_and_round_trip():
    value = aa.expected_initial_coverage(110, 60.0, PI / 2, 250000.0)
    # independent evaluation of the closed-form expression
    by_hand = 1.0 - (1.0 - (PI / 2) * 60.0**2 / (2.0 * 250000.0)) ** 110
    assert value == by_hand
    assert abs(value - 0.7139) <= 0.0005
    for d in range(1, 301):
        target = aa.expected_initial_coverage(d, 60.0, PI / 2, 250000.0)
        assert aa.required_nodes(target, 60.0, PI / 2, 250000.0) <= d
    report(2, f"expected coverage {value:.6f} (0.7139 +- 0.0005), round trip holds on [1, 300]")


@pytest.mark.slow
def test_c3_monte_carlo_initial_coverage():
    field = headline_field()
    rates = [
        aa.coverage(
            aa.random_deployment(field, HEADLINE["nodes"], HEADLINE["radius"],
                                 HEADLINE["alpha"], RandomSource(seed)),
            field,
        ).rate
        for seed in range(1, 51)
    ]
    mean = float(np.mean(rates))
    analytic = aa.expected_initial_coverage(110, 60.0, PI / 2, 250000.0)
    assert 0.65 <= mean <= 0.714
    assert mean <= analytic  # border sectors lose area, so the formula is an upper bound
    assert 0.65 <= 0.6832 <= 0.714  # the one published instance sits in the same band
    report(3, f"mean initial coverage {mean:.4f} in [0.65, 0.714], analytic bound {analytic:.4f}")


@pytest.mark.slow
def test_c4_headline_experiment():
    field = headline_field()
    seeds = range(1, 11)
    aaso_final, aaso_20, initial, vfa_final, pso_final = [], [], [], [], []
    for seed in seeds:
        sensors = aa.random_deployment(field, HEADLINE["nodes"], HEADLINE["radius"],
                                       HEADLINE["alpha"], RandomSource(seed))
        cfg = OptimizerConfig(population=50, max_iters=100)
        res = aa.enhance_aaso(sensors, field, cfg, RandomSource(seed))
        aaso_final.append(res.final_rate)
        aaso_20.append(res.curve[20])
        initial.append(res.initial_rate)
        vfa_final.append(aa.enhance_vfa(sensors, field, max_iters=100).final_rate)
        pso = aa.enhance_pso(sensors, field, cfg, RandomSource(seed))
        pso_final.append(pso.final_rate)

    mean_final = float(np.mean(aaso_final))
    mean_20 = float(np.mean(aaso_20))
    improvement = mean_final - float(np.mean(initial))
    mean_vfa = float(np.mean(vfa_final))
    mean_pso = float(np.mean(pso_final))

    assert mean_final >= 0.84
    assert improvement >= 0.12
    assert mean_final >= mean_vfa
    assert mean_final >= mean_pso
    assert mean_20 >= 0.79
    report(4, f"AASO {mean_final:.4f} (iter20 {mean_20:.4f}, +{improvement:.4f}) "
              f">= VFA {mean_vfa:.4f}, PSO {mean_pso:.4f}")


@pytest.mark.slow
def test_c5_small_radius_spot_check():
    field = headline_field()
    finals = []
    for seed in range(1, 11):
        sensors = aa.random_deployment(field, 100, 40.0, PI / 2, RandomSource(seed))
        cfg = OptimizerConfig(population=50, max_iters=100)
        finals.append(aa.enhance_aaso(sensors, field, cfg, RandomSource(seed)).final_rate)
    mean = float(np.mean(finals))
    assert 0.44 <= mean <= 0.52
    report(5, f"R=40 spot check mean {mean:.4f} in [0.44, 0.52]")


def test_c6_brute_force_oracle_equivalence():
    field = aa.CoverageField(200, 200, 5)
    for seed in (3, 7, 11):
        sensors = aa.random_deployment(field, 1, 60.0, PI / 2, RandomSource(seed))
        evaluator = CoverageEvaluator(sensors, field)
        sweep_best = max(
            evaluator.covered_count(np.array([math.radians(a)]))
            for a in np.arange(0.0, 360.0, 0.5)
        )
        cfg = OptimizerConfig(population=20, max_iters=60)
        aaso = aa.enhance_aaso(sensors, field, cfg, RandomSource(seed))
        aaso_count = round(aaso.final_rate * field.grid_count)
        assert abs(aaso_count - sweep_best) <= 1

        pso_cfg = OptimizerConfig(population=50, max_iters=100)
        pso = aa.enhance_pso(sensors, field, pso_cfg, RandomSource(seed))
        pso_count = round(pso.final_rate * field.grid_count)
        assert abs(pso_count - sweep_best) <= 1
    report(6, "single-sensor optimum matches the 0.5 degree exhaustive sweep within 1 grid")


def test_c7_pruning_equivalence():
    rng = RandomSource(20240)
    for _ in range(100):
        interval = 3.0 + float(rng.uniform()) * 4.0
        field = aa.CoverageField(
            interval * (5 + int(rng.uniform() * 45)),
            interval * (5 + int(rng.uniform() * 45)),
            interval,
        )
        assert field.nx <= 50 and field.ny <= 50
        count = 1 + int(rng.uniform() * 10)
        sensors = aa.random_deployment(
            field, count,
            10.0 + float(rng.uniform()) * 60.0,
            0.2 + float(rng.uniform()) * (2 * PI - 0.2),
            rng,
        )
        pruned = aa.coverage(sensors, field)
        naive = coverage_naive(sensors, field)
        assert np.array_equal(pruned.covered, naive.covered)
        assert pruned.rate == naive.rate
    report(7, "pruned coverage identical to all-pairs on 100 random instances")


def test_c8_optimizer_operator_suite():
    # truncated-Poisson normalization and sampling
    for lam, n_max in ((1.0, 10), (25.25, 50), (100.0, 100)):
        pmf = truncated_poisson_pmf(lam, n_max)
        assert abs(pmf.sum() - 1.0) <= 1e-12
    lam, n_max, draws_n = 25.25, 50, 100000
    pmf = truncated_poisson_pmf(lam, n_max)
    rng = RandomSource(808)
    draws = rng.roulette(pmf, size=draws_n)
    for k in range(n_max + 1):
        p = pmf[k]
        sigma = math.sqrt(p * (1.0 - p) / draws_n)
        assert abs(np.mean(draws == k) - p) <= max(3.0 * sigma, 1e-4)

    # prey schedule hand values; the raw schedule bottoms out at zero and is clamped
    assert [prey_count(t, 100) for t in (1, 26, 51, 76, 100)] == [4, 3, 2, 1, 1]
    assert prey_count_raw(100, 100) == 0

    # bridge weights form a convex combination (sum to one)
    positions = np.array([[float(i), 1.0] for i in range(5)])
    bridge = ant_bridge(positions, 2.0 + np.arange(5.0), 1.5)
    xs = positions[:, 0]
    assert xs.min() - 1e-9 <= bridge[0] <= xs.max() + 1e-9
    assert abs(bridge[1] - 1.0) <= 1e-12  # identical coordinates stay fixed

    # monotone best-so-far histories and bit-identical seeded trajectories
    space = SearchSpace.cube(5, -3.0, 3.0)
    sphere = aa.rowwise(lambda x: float(np.sum(x * x)))
    cfg = OptimizerConfig(population=12, max_iters=40)
    first = run(sphere, space, cfg, RandomSource(99))
    second = run(sphere, space, cfg, RandomSource(99))
    assert np.all(np.diff(first.history) <= 0)
    assert np.array_equal(first.history, second.history)
    assert np.array_equal(first.best_position, second.best_position)
    report(8, "pmf normalization, 3-sigma sampling, schedule, bridge and determinism checks hold")


@pytest.mark.slow
def test_c9_benchmark_sanity():
    functions = ["sphere", "rosenbrock", "rastrigin", "ackley", "griewank", "schwefel"]
    stats = compare(["aaso", "random"], functions, runs=50, base_seed=1,
                    config=OptimizerConfig(population=30, max_iters=1000), dim=30)
    by_key = {(s.algorithm, s.function): s for s in stats}
    wins = sum(
        by_key[("aaso", f)].mean < by_key[("random", f)].mean for f in functions
    )
    assert wins >= 5

    sphere_finals = by_key[("aaso", "sphere")].finals
    hits = int(np.sum(sphere_finals <= 1e-2))
    assert hits >= 45
    report(9, f"AASO beats random search on {wins}/6 functions; sphere <= 1e-2 in {hits}/50 runs")
