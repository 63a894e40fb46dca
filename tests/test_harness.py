import csv

import numpy as np
import pytest

from armyant import optimizer
from armyant.harness import compare, write_statistics_csv, write_trace_csv
from armyant.optimizer import OptimizerConfig


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
