"""Repeated-run comparison harness with paired seeds and CSV reporting."""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import baselines, optimizer
from .benchmarks import get_benchmark
from .config import ALGORITHMS
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


def algorithm_params(name, population, iterations, recruit_init=None, attack_coeff=2.0, stagnation=5):
    """Parameters of one ``aaso`` or ``pso`` run, from the experiment values."""
    if name == "aaso":
        return optimizer.OptimizerConfig(
            population=population,
            max_iters=iterations,
            recruit_init=recruit_init,
            attack_coeff=attack_coeff,
            stagnation_threshold=stagnation,
        )
    return baselines.PSOParams(swarm=population, iters=iterations)


def _run_algorithm(name, func, seed, population, iterations, aaso):
    rng = RandomSource(seed)
    if name == "random":
        budget = population * (iterations + 1)
        return baselines.random_search_run(func, func.box, budget, rng, record_every=population)
    params = algorithm_params(name, population, iterations, *aaso)
    # looked up per call, never from a table built at import, so that a
    # patched module attribute (perfbench/tracer.py) sees every run
    search = optimizer.run if name == "aaso" else baselines.pso_run
    return search(func, func.box, params, rng)


def compare(
    algorithms, functions, runs, base_seed, population=30, iterations=1000, dim=30,
    recruit_init=None, attack_coeff=2.0, stagnation=5,
):
    """Run every algorithm on every function with paired per-run seeds.

    Run r of each pairing uses seed base_seed + r, so all algorithms see
    identical seeds and budgets (population x iterations evaluations, plus
    the optimizers' initialization sweep). ``recruit_init``,
    ``attack_coeff`` and ``stagnation`` set the AASO runs (see
    ``algorithm_params``). Returns one RunStatistics per (algorithm,
    function) with per-run traces attached.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs for statistics")
    aaso = (recruit_init, attack_coeff, stagnation)
    results = []
    for name in algorithms:
        if name not in ALGORITHMS["bench"]:
            raise ValueError(f"unknown algorithm {name!r}")
        for fname in functions:
            func = get_benchmark(fname, dim)
            histories = [
                _run_algorithm(name, func, base_seed + r, population, iterations, aaso).history
                for r in range(runs)
            ]
            finals = np.array([h[-1] for h in histories])
            results.append(
                RunStatistics(
                    algorithm=name,
                    function=fname,
                    runs=runs,
                    best=float(finals.min()),
                    mean=float(finals.mean()),
                    std=float(finals.std(ddof=1)),
                    histories=histories,
                )
            )
    return results


def write_statistics_csv(stats, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "function", "runs", "best", "mean", "std"])
        for s in stats:
            writer.writerow([s.algorithm, s.function, s.runs, repr(s.best), repr(s.mean), repr(s.std)])


def write_trace_csv(history, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "best_fitness"])
        for i, v in enumerate(history):
            writer.writerow([i, repr(float(v))])
