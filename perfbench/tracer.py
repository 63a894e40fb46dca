"""In-process tracer for one benchmark pass, installed from outside ``src/``.

Wraps the public callables of each ``armyant`` module at every module
attribute that holds them, so callers that imported a name directly see
the wrapper too. Three kinds of wrapper:

- span: coarse calls (enhancers, optimizer runs, evaluator builds, writers).
  Each keeps name, start, end and parent in memory; self time is the
  duration minus child spans and the hot time measured directly inside.
- hot: per-call aggregate timer plus a count (objectives, evaluator calls).
- count: a bare call counter (``RandomSource`` draws, ``apply_bounds``).

Counts are snapshotted at span entry and exit, so a span knows how many
draws and bound corrections happened inside it. ``layer_metrics`` turns
one traced pass into the per-layer metrics of ``BENCHMARK.json``.
"""

import importlib
import inspect
import math
import sys
import time
from collections import Counter

_clock = time.perf_counter

LAYER_UNITS = {
    "coverage.eval_us": "us",
    "coverage.ns_per_entry": "ns",
    "coverage.eval_calls": "count",
    "coverage.entries": "count",
    "coverage.bytes_per_eval": "B",
    "coverage.build_ms": "ms",
    "coverage.builds": "count",
    "coverage.subset_us": "us",
    "coverage.subset_calls": "count",
    "coverage.share": "fraction",
    "optimizer.move_ms_per_iter": "ms",
    "optimizer.evals": "count",
    "optimizer.bridge_fires": "count",
    "optimizer.objective_share": "fraction",
    "rng.draws_per_iter": "count",
    "space.bounds_calls_per_iter": "count",
    "baselines.pso_move_ms_per_iter": "ms",
    "baselines.random_us_per_sample": "us",
    "benchmarks.objective_us": "us",
    "enhance.vfa_ms_per_iter": "ms",
    "enhance.overhead_ms": "ms",
    "harness.overhead_ms": "ms",
    "cli.write_ms": "ms",
    "cli.bytes_written": "B",
    "svgplot.render_ms": "ms",
    "config.parse_ms": "ms",
}


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "child", "hot", "counts", "info")

    def __init__(self, sid, name, parent):
        self.sid, self.name, self.parent = sid, name, parent
        self.start = self.end = None
        self.child = 0.0  # duration of direct child spans
        self.hot = 0.0  # outermost hot-call time measured directly inside
        self.counts = None
        self.info = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child - self.hot

    def as_dict(self):
        return {
            "id": self.sid, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end, "self": self.self_time,
            "counts": self.counts, **self.info,
        }


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.hot_calls = Counter()
        self.hot_time = Counter()
        self.counts = Counter()
        self._hot_depth = 0
        self.evaluator_entries = {}  # id(evaluator) -> per-entry array length
        self.evaluator_shapes = []  # (entries, bytes_per_eval) per build

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            s = Span(len(self.spans), name, parent.sid if parent else None)
            self.spans.append(s)
            self.stack.append(s)
            before = Counter(self.counts)
            s.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = _clock()
                self.stack.pop()
                if parent is not None:
                    parent.child += s.duration
                s.counts = dict(self.counts - before)
            if on_exit is not None:
                on_exit(s, args, kwargs, result)
            return result

        return wrapper

    def hot(self, name, fn):
        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self._hot_depth -= 1
                self.hot_calls[name] += 1
                self.hot_time[name] += dt
                if self._hot_depth == 0 and self.stack:
                    self.stack[-1].hot += dt

        return wrapper

    def run_span(self, name, fn):
        """Span around an optimizer run; its ``objective`` argument is timed as hot."""
        inner = self.span(name, fn, on_exit=self._record_run)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["objective"] = self.hot(f"{name}.objective", bound.arguments["objective"])
            return inner(*bound.args, **bound.kwargs)

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        # by module path: the package re-exports a function named ``coverage``
        baselines, benchmarks, cli, coverage, enhance, harness, optimizer, rng, space = (
            importlib.import_module(f"armyant.{name}")
            for name in ("baselines", "benchmarks", "cli", "coverage", "enhance",
                         "harness", "optimizer", "rng", "space")
        )
        RandomSource, SearchSpace = rng.RandomSource, space.SearchSpace

        modules = [m for name, m in sys.modules.items() if name.startswith("armyant")]

        def patch(obj, wrapper):
            """Replace ``obj`` at every armyant module attribute that holds it."""
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is obj:
                        setattr(m, attr, wrapper)

        for name, fn in (("optimizer.run", optimizer.run), ("baselines.pso_run", baselines.pso_run),
                         ("baselines.random_search_run", baselines.random_search_run)):
            patch(fn, self.run_span(name, fn))
        for fn in (enhance.enhance_aaso, enhance.enhance_pso, enhance.enhance_vfa):
            patch(fn, self.span(f"enhance.{fn.__name__}", fn, on_exit=self._record_enhance))
        patch(harness.compare, self.span("harness.compare", harness.compare))
        patch(cli.parse_config, self.span("config.parse_config", cli.parse_config))
        patch(cli.render_deployment_svg, self.span("svgplot.render", cli.render_deployment_svg))
        for fn in (cli._write_curve_csv, coverage.write_deployment,
                   harness.write_statistics_csv, harness.write_trace_csv):
            patch(fn, self.span(f"cli.write.{fn.__name__}", fn))

        ev = coverage.CoverageEvaluator
        ev.__init__ = self.span("coverage.build", ev.__init__, on_exit=self._record_build)
        ev.covered_mask = self._evaluator_hot("coverage.covered_mask", ev.covered_mask)
        ev.sensed_subset = self.hot("coverage.sensed_subset", ev.sensed_subset)
        benchmarks.BenchmarkFunction.__call__ = self.hot(
            "benchmarks.objective", benchmarks.BenchmarkFunction.__call__
        )
        for method in ("uniform", "uniform_open", "normal", "cauchy", "integer",
                       "choice_without_replacement", "roulette"):
            setattr(RandomSource, method, self.count("rng.draws", getattr(RandomSource, method)))
        SearchSpace.apply_bounds = self.count("space.apply_bounds", SearchSpace.apply_bounds)

    def _evaluator_hot(self, name, fn):
        timed = self.hot(name, fn)
        entries = self.evaluator_entries

        def wrapper(evaluator, *args, **kwargs):
            self.counts["coverage.entries_evaluated"] += entries.get(id(evaluator), 0)
            return timed(evaluator, *args, **kwargs)

        return wrapper

    # -- span exit hooks ------------------------------------------------

    def _record_build(self, span, args, kwargs, result):
        # computed, not measured: the per-entry arrays an evaluation reads
        # plus the grid-sized output mask
        import numpy as np

        evaluator = args[0]
        arrays = [v for v in vars(evaluator).values() if isinstance(v, np.ndarray) and v.ndim >= 1]
        entries = max((a.shape[0] for a in arrays), default=0)
        per_entry = sum(a.nbytes for a in arrays if a.shape[0] == entries)
        self.evaluator_entries[id(evaluator)] = entries
        self.evaluator_shapes.append((entries, per_entry + evaluator.grid_count))

    def _record_run(self, span, args, kwargs, result):
        span.info["iterations"] = len(result.history) - 1
        span.info["evaluations"] = int(result.evaluations)
        config = args[2] if len(args) > 2 else kwargs.get("config")
        population = getattr(config, "population", None)
        if population is not None:
            span.info["population"] = population

    def _record_enhance(self, span, args, kwargs, result):
        span.info["iterations"] = len(result.curve) - 1

    # -- results --------------------------------------------------------

    def dump(self):
        return [s.as_dict() for s in self.spans]

    def layer_metrics(self, bytes_written):
        """Per-layer metrics of one traced pass (see perfbench/README.md)."""
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def spans(*names):
            return [s for n in names for s in by_name.get(n, [])]

        def total(items, attr):
            return sum(getattr(s, attr) for s in items)

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        aaso = spans("optimizer.run")
        aaso_iters = sum(s.info["iterations"] for s in aaso)
        aaso_counts = Counter()
        for s in aaso:
            aaso_counts.update(s.counts)
        bridge_fires = 0.0
        for s in aaso:
            n, t = s.info["population"], s.info["iterations"]
            bridge_fires += (s.info["evaluations"] - n * (t + 1)) / math.ceil(n / 2)
        pso = spans("baselines.pso_run")
        rnd = spans("baselines.random_search_run")
        builds = spans("coverage.build")
        enhancers = spans("enhance.enhance_aaso", "enhance.enhance_pso", "enhance.enhance_vfa")
        vfa = spans("enhance.enhance_vfa")
        vfa_builds = [b for b in builds if b.parent in {s.sid for s in vfa}]
        aaso_pso_enhance = spans("enhance.enhance_aaso", "enhance.enhance_pso")
        compares = spans("harness.compare")
        writers = [s for n, group in by_name.items() if n.startswith("cli.write.") for s in group]
        parses = spans("config.parse_config")

        mask_calls = self.hot_calls["coverage.covered_mask"]
        mask_time = self.hot_time["coverage.covered_mask"]
        subset_calls = self.hot_calls["coverage.sensed_subset"]
        subset_time = self.hot_time["coverage.sensed_subset"]
        evaluator_time = mask_time + subset_time + total(builds, "duration")
        shapes = self.evaluator_shapes
        return {
            "coverage.eval_us": ratio(mask_time, mask_calls, 1e6),
            "coverage.ns_per_entry": ratio(mask_time, self.counts["coverage.entries_evaluated"], 1e9),
            "coverage.eval_calls": mask_calls,
            "coverage.entries": ratio(sum(e for e, _ in shapes), len(shapes)),
            "coverage.bytes_per_eval": ratio(sum(b for _, b in shapes), len(shapes)),
            "coverage.build_ms": ratio(total(builds, "duration"), len(builds), 1e3),
            "coverage.builds": len(builds),
            "coverage.subset_us": ratio(subset_time, subset_calls, 1e6),
            "coverage.subset_calls": subset_calls,
            "coverage.share": ratio(evaluator_time, total(enhancers, "duration")),
            "optimizer.move_ms_per_iter": ratio(total(aaso, "self_time"), aaso_iters, 1e3),
            "optimizer.evals": self.hot_calls["optimizer.run.objective"],
            "optimizer.bridge_fires": bridge_fires,
            "optimizer.objective_share": ratio(total(aaso, "hot"), total(aaso, "duration")),
            "rng.draws_per_iter": ratio(aaso_counts["rng.draws"], aaso_iters),
            "space.bounds_calls_per_iter": ratio(aaso_counts["space.apply_bounds"], aaso_iters),
            "baselines.pso_move_ms_per_iter": ratio(
                total(pso, "self_time"), sum(s.info["iterations"] for s in pso), 1e3
            ),
            "baselines.random_us_per_sample": ratio(
                total(rnd, "self_time"), sum(s.info["evaluations"] for s in rnd), 1e6
            ),
            "benchmarks.objective_us": ratio(
                self.hot_time["benchmarks.objective"], self.hot_calls["benchmarks.objective"], 1e6
            ),
            "enhance.vfa_ms_per_iter": ratio(
                total(vfa, "duration") - total(vfa_builds, "duration"),
                sum(s.info["iterations"] for s in vfa), 1e3,
            ),
            "enhance.overhead_ms": ratio(total(aaso_pso_enhance, "self_time"), len(aaso_pso_enhance), 1e3),
            "harness.overhead_ms": ratio(total(compares, "self_time"), len(compares), 1e3),
            "cli.write_ms": total(writers, "duration") * 1e3,
            "cli.bytes_written": bytes_written,
            "svgplot.render_ms": total(spans("svgplot.render"), "duration") * 1e3,
            "config.parse_ms": ratio(total(parses, "duration"), len(parses), 1e3),
        }
