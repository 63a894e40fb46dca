"""Repeated-run comparison harness with paired seeds and CSV reporting.

Every search of a comparison runs with the one ``OptimizerConfig``, and
the statistics file is written all at once or not at all.
"""

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import baselines, optimizer
from .benchmarks import get_benchmark
from .config import ALGORITHMS, _check_distinct
from .enhance import enhance_aaso, enhance_pso, enhance_vfa
from .rng import RandomSource


@dataclass
class RunStatistics:
    """Best/mean/std of final fitness over repeated runs of one pairing."""

    algorithm: str
    function: str
    runs: int
    best: float
    mean: float
    std: float
    histories: list = field(default_factory=list, repr=False)

    @property
    def finals(self):
        return np.array([h[-1] for h in self.histories])


def compare(algorithms, functions, runs, base_seed, config, dim):
    """Run every algorithm on every ``dim``-dimensional function with paired seeds.

    Run r of each pairing uses seed base_seed + r, and every search gets the
    one ``config``, so all algorithms see identical seeds and budgets
    (``config.population`` evaluations at initialization and in each of
    ``config.max_iters`` iterations, plus AASO's bridge extras). Returns one
    RunStatistics per (algorithm, function) with per-run traces attached.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs for statistics")
    _check_algorithms(algorithms, "bench")
    funcs = [get_benchmark(fname, dim) for fname in functions]
    results = []
    for name in algorithms:
        # looked up per call, never from a table built at import, so that a
        # patched module attribute (perfbench/tracer.py) sees every run
        search = {
            "aaso": optimizer.run, "pso": baselines.pso_run, "random": baselines.random_search_run
        }[name]
        for func in funcs:
            histories = [
                search(func, func.box, config, RandomSource(base_seed + r)).history
                for r in range(runs)
            ]
            finals = np.array([h[-1] for h in histories])
            results.append(
                RunStatistics(
                    algorithm=name,
                    function=func.name,
                    runs=runs,
                    best=float(finals.min()),
                    mean=float(finals.mean()),
                    std=float(finals.std(ddof=1)),
                    histories=histories,
                )
            )
    return results


def compare_cover(deploy, field, algorithms, seeds, config):
    """Enhance one deployment per seed with every algorithm.

    Seed ``s`` deploys ``deploy(RandomSource(s))``, and each AASO or PSO run
    draws from a fresh ``RandomSource(s)``: the deployment and the searches
    share seed ``s``'s stream. VFA runs ``config.max_iters`` iterations.
    Returns ``{seed: (sensors, {algorithm: EnhancementRun})}`` in seed order
    and the ``(seed, "deploy" or algorithm, message)`` of every
    ``ValueError`` or ``OSError``. Other exceptions propagate. A repeated
    seed or algorithm raises ``ValueError`` before the first deployment.
    """
    seeds, algorithms = list(seeds), list(algorithms)
    _check_algorithms(algorithms, "cover")
    _check_distinct("seeds", seeds)
    _check_distinct("algorithms", algorithms)
    deployments, failures = {}, []
    for seed in seeds:
        try:
            sensors = deploy(RandomSource(seed))
        except (ValueError, OSError) as exc:
            failures.append((seed, "deploy", str(exc)))
            continue
        runs = {}
        for name in algorithms:
            try:
                # module globals, looked up per call, as in ``compare``
                if name == "vfa":
                    runs[name] = enhance_vfa(sensors, field, config.max_iters)
                else:
                    enhance = enhance_aaso if name == "aaso" else enhance_pso
                    runs[name] = enhance(sensors, field, config, RandomSource(seed))
            except (ValueError, OSError) as exc:
                failures.append((seed, name, str(exc)))
        deployments[seed] = sensors, runs
    return deployments, failures


def _check_algorithms(algorithms, kind):
    # every name is checked before the first run
    for name in algorithms:
        if name not in ALGORITHMS[kind]:
            raise ValueError(f"unknown algorithm {name!r}")


def write_atomic(path, write, newline=None):
    """Write ``path`` through ``write(fh)`` all at once or not at all.

    The text goes to a temporary file beside ``path`` that then replaces
    it, so a failed write leaves the previous file as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_statistics_csv(stats, path):
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "function", "runs", "best", "mean", "std"])
        for s in stats:
            writer.writerow([s.algorithm, s.function, s.runs, repr(s.best), repr(s.mean), repr(s.std)])

    write_atomic(path, write, newline="")


def write_trace_csv(history, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "best_fitness"])
        for i, v in enumerate(history):
            writer.writerow([i, repr(float(v))])
