import csv

import numpy as np
import pytest

import armyant.harness
from armyant import optimizer
from armyant.coverage import CoverageField, random_deployment
from armyant.enhance import enhance_aaso, enhance_pso, enhance_vfa
from armyant.harness import compare, compare_cover, write_statistics_csv, write_trace_csv
from armyant.optimizer import OptimizerConfig
from armyant.rng import RandomSource

FIELD = CoverageField(60, 60, 5)
COVER_CONFIG = OptimizerConfig(population=6, max_iters=4)


def deploy(rng):
    return random_deployment(FIELD, 4, 20.0, np.pi / 2, rng)


def test_compare_validation():
    with pytest.raises(ValueError):
        compare(["aaso"], ["sphere"], 1, 0, OptimizerConfig(), 2)
    with pytest.raises(ValueError):
        compare(["simulated_annealing"], ["sphere"], 2, 0, OptimizerConfig(), 2)


def test_compare_checks_every_name_before_the_first_run(monkeypatch):
    calls = []
    real_run = optimizer.run

    def spy(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(optimizer, "run", spy)
    for algorithms, functions, message in (
        (["aaso", "annealing"], ["sphere", "rastrigin"], "unknown algorithm 'annealing'"),
        (["aaso"], ["sphere", "nosuch"], "unknown benchmark function 'nosuch'"),
    ):
        with pytest.raises(ValueError, match=message):
            compare(algorithms, functions, 5, 1, OptimizerConfig(30, 300), 30)
    assert calls == []
    compare(["aaso"], ["sphere"], 2, 1, OptimizerConfig(4, 1), 2)
    assert len(calls) == 2  # the spy sees every run


def test_identical_algorithm_entries_identical_statistics():
    stats = compare(
        ["random", "random"], ["sphere"], runs=2, base_seed=5,
        config=OptimizerConfig(population=8, max_iters=5), dim=3,
    )
    a, b = stats
    assert (a.best, a.mean, a.std) == (b.best, b.mean, b.std)
    assert all(np.array_equal(x, y) for x, y in zip(a.histories, b.histories))


def test_statistics_recomputable_from_traces():
    stats = compare(
        ["aaso", "pso"], ["sphere", "rastrigin"], runs=3, base_seed=1,
        config=OptimizerConfig(population=8, max_iters=20), dim=3,
    )
    for s in stats:
        finals = np.array([h[-1] for h in s.histories])
        assert s.best == finals.min()
        assert s.mean == finals.mean()
        assert s.std == finals.std(ddof=1)
        assert s.best <= s.mean
        assert s.std >= 0.0
        assert s.runs == 3


def test_paired_budgets_align():
    stats = compare(
        ["pso", "random"], ["sphere"], runs=2, base_seed=3,
        config=OptimizerConfig(population=6, max_iters=10), dim=2,
    )
    # all traces share the per-iteration recording grid
    for s in stats:
        for h in s.histories:
            assert len(h) == 11


def test_failed_statistics_write_keeps_previous_file(tmp_path):
    config = OptimizerConfig(population=5, max_iters=4)
    path = tmp_path / "statistics.csv"
    write_statistics_csv(compare(["random"], ["sphere"], 2, 0, config, 2), path)
    before = path.read_bytes()

    class FailsHalfway:
        @property
        def algorithm(self):
            raise OSError("disk full")

    stats = compare(["pso"], ["rastrigin"], 2, 7, config, 2)
    with pytest.raises(OSError, match="disk full"):
        write_statistics_csv(stats + [FailsHalfway()], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["statistics.csv"]


def test_csv_writers(tmp_path):
    config = OptimizerConfig(population=5, max_iters=4)
    stats = compare(["random"], ["sphere"], runs=2, base_seed=0, config=config, dim=2)
    stats_path = tmp_path / "stats.csv"
    write_statistics_csv(stats, stats_path)
    rows = list(csv.reader(open(stats_path)))
    assert rows[0] == ["algorithm", "function", "runs", "best", "mean", "std"]
    assert len(rows) == 2
    assert float(rows[1][3]) == stats[0].best

    trace_path = tmp_path / "trace.csv"
    write_trace_csv(stats[0].histories[0], trace_path)
    rows = list(csv.reader(open(trace_path)))
    assert rows[0] == ["iter", "best_fitness"]
    values = np.array([float(r[1]) for r in rows[1:]])
    assert np.array_equal(values, stats[0].histories[0])


def test_compare_cover_runs_equal_direct_enhancer_calls():
    deployments, failures = compare_cover(deploy, FIELD, ["aaso", "pso", "vfa"], [3, 1], COVER_CONFIG)
    assert failures == []
    assert list(deployments) == [3, 1]
    for seed, (sensors, runs) in deployments.items():
        assert list(runs) == ["aaso", "pso", "vfa"]
        # the deployment and each search draw from seed's own stream
        assert [s.deviation for s in sensors] == [s.deviation for s in deploy(RandomSource(seed))]
        direct = {
            "aaso": enhance_aaso(sensors, FIELD, COVER_CONFIG, RandomSource(seed)),
            "pso": enhance_pso(sensors, FIELD, COVER_CONFIG, RandomSource(seed)),
            "vfa": enhance_vfa(sensors, FIELD, COVER_CONFIG.max_iters),
        }
        for name, run in runs.items():
            assert run.curve.tobytes() == direct[name].curve.tobytes()
            assert run.best_angles.tobytes() == direct[name].best_angles.tobytes()
            assert run.evaluations == direct[name].evaluations


def test_compare_cover_checks_every_name_before_the_first_deployment():
    calls = []

    def spy(rng):
        calls.append(rng)
        return deploy(rng)

    for algorithms in (["aaso", "random"], ["annealing"]):
        with pytest.raises(ValueError, match="unknown algorithm"):
            compare_cover(spy, FIELD, algorithms, [1, 2], COVER_CONFIG)
    assert calls == []


def test_compare_cover_rejects_a_repeated_seed_or_algorithm_before_the_first_deployment():
    # the result is keyed by seed and algorithm: a repeat used to run and
    # then be dropped without notice
    calls = []

    def spy(rng):
        calls.append(rng)
        return deploy(rng)

    for algorithms, seeds, message in (
        (["aaso", "aaso"], [1], "algorithms lists 'aaso' more than once"),
        (["vfa"], [1, 2, 1], "seeds lists 1 more than once"),
    ):
        with pytest.raises(ValueError, match=message):
            compare_cover(spy, FIELD, algorithms, seeds, COVER_CONFIG)
    assert calls == []
    # the check reads the seeds and algorithms once, so iterators still run
    deployments, _ = compare_cover(spy, FIELD, iter(["vfa"]), iter([1, 2]), COVER_CONFIG)
    assert [list(runs) for _, runs in deployments.values()] == [["vfa"], ["vfa"]]


def test_compare_cover_failed_deployment_skips_only_its_seed():
    def deploy_all_but_2(rng):
        sensors = deploy(rng)
        if rng.seed == 2:
            raise ValueError("no sensors for seed 2")
        return sensors

    deployments, failures = compare_cover(deploy_all_but_2, FIELD, ["vfa"], [1, 2, 3], COVER_CONFIG)
    assert failures == [(2, "deploy", "no sensors for seed 2")]
    assert list(deployments) == [1, 3]
    assert all(list(runs) == ["vfa"] for _, runs in deployments.values())


def test_compare_cover_lists_a_seed_that_is_not_an_integer():
    # seeds 1.2 and 1.7 used to pass the repeat check and both run seed 1
    deployments, failures = compare_cover(deploy, FIELD, ["vfa"], [1.2, 1.7], COVER_CONFIG)
    assert deployments == {}
    assert failures == [(seed, "deploy", f"seed must be an integer, got {seed!r}") for seed in (1.2, 1.7)]


def test_compare_cover_failed_run_is_listed_and_others_kept():
    deployments, failures = compare_cover(lambda rng: [], FIELD, ["pso", "vfa"], [4], COVER_CONFIG)
    assert failures == [(4, "pso", "need at least one sensor"), (4, "vfa", "need at least one sensor")]
    assert deployments == {4: ([], {})}


def test_compare_cover_programming_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("enhancer called wrongly")

    monkeypatch.setattr(armyant.harness, "enhance_pso", broken)
    with pytest.raises(TypeError, match="enhancer called wrongly"):
        compare_cover(deploy, FIELD, ["vfa", "pso"], [1], COVER_CONFIG)
