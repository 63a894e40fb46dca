#!/usr/bin/env python3
"""Benchmark of the ``armyant`` CLI: ``cover run`` and ``bench run`` workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload cover --seed 1 --seconds 55 --trace 0

One closed-loop client: each pass is one child process (``child.py``) that
runs the workload's fixed work as ``armyant.cli.main`` invocations, one per
algorithm and seed (cover) or algorithm and function (bench), one process at
a time, BLAS threads pinned to 1. Configs are
generated from ``--seed`` into a private directory under ``perfbench/_work``
and removed afterwards. Passes repeat the same inputs until ``--seconds``
is used up (at least two), so every run also checks that reruns give the
same fingerprint. The first pass's outputs go through the oracle.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics plus the
tracing overhead. The last stdout line is the JSON result; the lines before
it are a human-readable report. See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170.0
# set-up-only children before each untraced pass, spread over the run so a
# slow stretch of the host weighs on set-up no more than on the passes
SETUP_PROBES_PER_PASS = 2
# CLI seeds per cover pass: the cost of an invocation depends on the
# deployment by up to ~10 %, so a pass averages over more than one
COVER_SEEDS = 2
# fixed here, so the bench workload stays the same if the library gains functions
FUNCTIONS = ("sphere", "rosenbrock", "rastrigin", "ackley", "griewank", "schwefel")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "cover": {"command": "cover", "area_m": 500.0, "grid": 5.0, "population": 50, "iterations": 100,
              "algorithms": ("aaso", "pso", "vfa")},
    "cover-fine": {"command": "cover", "area_m": 500.0, "grid": 1.0, "population": 20, "iterations": 10,
                   "algorithms": ("aaso", "pso", "vfa")},
    "bench": {"command": "bench", "functions": FUNCTIONS, "dimension": 30, "population": 30,
              "iterations": 500, "runs": 2, "algorithms": ("aaso", "pso", "random")},
}

COVER_CONFIG = """\
kind = cover
area_length_m = {area_m}
area_width_m = {area_m}
grid_interval_m = {grid}
node_count = 110
radius_m = 60
view_angle_deg = 90
algorithms = {algorithm}
population = {population}
iterations = {iterations}
seeds = {seed_list}
"""

BENCH_CONFIG = """\
kind = bench
functions = {function_list}
dimension = {dimension}
population = {population}
iterations = {iterations}
runs = {runs}
base_seed = {base_seed}
algorithms = {algorithm}
"""


class BenchError(Exception):
    pass


def workload_inputs(name, seed):
    """The workload's parameters with its CLI seeds drawn from ``seed``.

    The CLI seeds the deployment and the optimizer from the same value; the
    benchmark passes seeds through unchanged so a fix to that shows up.
    """
    wl = dict(WORKLOADS[name], name=name)
    draw = random.Random(f"{name}/{seed}")
    if wl["command"] == "cover":
        wl["seeds"] = [draw.randrange(1, 2**31) for _ in range(COVER_SEEDS)]
    else:
        wl["base_seed"] = draw.randrange(1, 2**31)
    return wl


def write_configs(wl, work):
    """One config per invocation of a pass: per algorithm and seed (cover) or
    per algorithm and function (bench), so that each timed invocation is short."""
    configs = []
    for algorithm in wl["algorithms"]:
        if wl["command"] == "cover":
            for seed in wl["seeds"]:
                text = COVER_CONFIG.format(algorithm=algorithm, seed_list=seed, **wl)
                configs.append({"name": f"{algorithm}-{seed}", "algorithm": algorithm,
                                "seeds": [seed], "text": text})
            continue
        for function in wl["functions"]:
            text = BENCH_CONFIG.format(algorithm=algorithm, function_list=function, **wl)
            configs.append({"name": f"{algorithm}-{function}", "algorithm": algorithm,
                            "functions": [function], "text": text})
    for inv in configs:
        path = work / f"{inv['name']}.conf"
        path.write_text(inv.pop("text"))
        inv["config"] = str(path)
    return configs


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(work, tag, plan, extra=()):
    """Start one child, time it until READY, wait for it; (setup_s, result)."""
    plan_path, result_path = work / f"{tag}.plan.json", work / f"{tag}.result.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path), *extra]
    with open(work / f"{tag}.stderr", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                cwd=ROOT, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if ready.strip() != "READY" or proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"child {tag} failed (exit {proc.returncode}): {err.read()[-2000:]}")
    if "--setup-only" in extra:
        return setup_s, None
    return setup_s, json.loads(result_path.read_text())


def make_plan(wl, configs, pass_dir):
    return {
        "command": wl["command"],
        "invocations": [dict(inv, out=str(pass_dir / inv["name"])) for inv in configs],
    }


def machine():
    import numpy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_passes(wl, configs, work, seconds, modes):
    """Run cycles of passes, one pass per entry of ``modes`` (traced or not),
    until the next cycle would overrun ``seconds``; at least two passes.
    Each untraced pass is preceded by set-up-only children, whose set-up
    times it keeps under ``probe_setups``.

    Returns the pass records, the failure reasons, the first pass's quality
    numbers, and the attempted and failed unit counts.
    """
    import oracle

    passes, start = [], time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for traced in modes:
            i = len(passes)
            plan = make_plan(wl, configs, work / f"pass{i}")
            extra = ("--trace", str(HERE / "out" / f"spans_{wl['name']}.json")) if traced else ()
            probes = [] if traced else [
                run_child(work, f"setup{i}-{k}", plan, ("--setup-only",))[0] for k in range(SETUP_PROBES_PER_PASS)
            ]
            setup_s, result = run_child(work, f"pass{i}", plan, extra)
            result.update(traced=traced, setup_s=setup_s, probe_setups=probes, plan=plan,
                          fingerprint=oracle.fingerprint(wl, plan["invocations"]))
            passes.append(result)
        now = time.perf_counter()
        if len(passes) >= 2 and now - start + (now - cycle_start) > seconds:
            break

    first = passes[0]
    failed, reasons, quality = oracle.check(wl, first["plan"]["invocations"], first["runs"])
    units = oracle.units(wl)
    per_invocation = len(units) // len(configs)
    failed_count = len(failed)
    for p in passes[1:]:
        if p["fingerprint"] != first["fingerprint"]:
            failed_count += len(units)
            reasons.append(f"repeated pass fingerprint {p['fingerprint']} != {first['fingerprint']}")
        else:
            failed_count += per_invocation * sum(r["exit"] != 0 for r in p["runs"])
    return passes, reasons, quality, len(units) * len(passes), failed_count


def quickest(passes):
    """Per invocation, in plan order: (algorithm, its quickest time over the passes).

    Other load on a shared host only ever slows an invocation, and comes in
    bursts shorter than a pass, so the quickest repeat of each short
    invocation is the figure that depends least on what else the host runs.
    """
    return [(run["algorithm"], min(p["runs"][i]["seconds"] for p in passes))
            for i, run in enumerate(passes[0]["runs"])]


def end_to_end(wl, passes, setups, quality):
    baseline = "vfa" if wl["command"] == "cover" else "random"
    times = quickest(passes)

    def algorithm_s(algorithm):
        return sum(t for a, t in times if a == algorithm)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(t for _, t in times), "s"),
        "aaso_s": (algorithm_s("aaso"), "s"),
        "pso_s": (algorithm_s("pso"), "s"),
        "baseline_s": (algorithm_s(baseline), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
        "quality_score": (
            quality["covr_final"] if wl["command"] == "cover" else quality["fitness_gain_log10"], "score"
        ),
    }


def traced_metrics(passes):
    """Median per-layer metrics over the traced passes, plus tracing overhead."""
    from tracer import LAYER_UNITS

    traced = [p for p in passes if p["traced"]]
    metrics = {name: (statistics.median(p["layers"][name] for p in traced), unit)
               for name, unit in LAYER_UNITS.items()}
    walls = {t: statistics.median(sum(r["seconds"] for r in p["runs"]) for p in passes if p["traced"] == t)
             for t in (False, True)}
    metrics["trace.overhead_s"] = (walls[True] - walls[False], "s")
    return metrics


def report(wl, args, passes, reasons, quality, attempted, failed, metrics):
    """Human-readable lines before the JSON result, and a record in perfbench/out."""
    inputs = f"seeds {wl['seeds']}" if wl["command"] == "cover" else f"base_seed {wl['base_seed']}"
    record = {
        "workload": wl["name"], "seed": args.seed, "trace": args.trace, "cli_inputs": inputs,
        "machine": machine(), "passes": len(passes),
        "fingerprints": sorted({p["fingerprint"] for p in passes}),
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "quality": quality, "failures": reasons,
        "pass_seconds": [{inv["name"]: r["seconds"] for inv, r in zip(p["plan"]["invocations"], p["runs"])}
                         for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.trace:
        baseline = "vfa" if wl["command"] == "cover" else "random"
        record["named"] = {f"{baseline}_s": metrics["baseline_s"][0], **quality}
    (HERE / "out" / f"last_{wl['name']}_trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {wl['name']}  seed {args.seed}  {inputs}  passes {len(passes)}  trace {args.trace}")
    print("machine " + "  ".join(f"{k} {v}" for k, v in record["machine"].items()))
    print(f"fingerprint {' '.join(record['fingerprints'])}")
    print(f"attempted {attempted}  failed {failed}  failed_ratio {failed / attempted:.6g} fraction")
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    # per-algorithm and per-workload names behind the shared baseline_s / quality_score
    units = {"vfa_s": "s", "random_s": "s", "covr_final": "fraction",
             "fitness_log10": "log10", "fitness_gain_log10": "log10"}
    for name, value in record.get("named", {}).items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and reaped
    # and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "armyant" / "cli.py").is_file():
        print(f"error: {SRC / 'armyant'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = workload_inputs(args.workload, args.seed)
    (HERE / "_work").mkdir(exist_ok=True)
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        configs = write_configs(wl, work)
        if args.trace:
            passes, reasons, quality, attempted, failed = run_passes(wl, configs, work, args.seconds, (False, True))
            metrics = traced_metrics(passes)
        else:
            passes, reasons, quality, attempted, failed = run_passes(wl, configs, work, args.seconds, (False,))
            setups = [s for p in passes for s in (*p["probe_setups"], p["setup_s"])]
            metrics = end_to_end(wl, passes, setups, quality)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(wl, args, passes, reasons, quality, attempted, failed, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
