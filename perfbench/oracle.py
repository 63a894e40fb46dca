"""Output checks and determinism fingerprints for one benchmark pass.

Each check reads back what the CLI wrote and recomputes it independently:
``cover`` artifacts against the unpruned ``coverage_naive`` reference,
``bench`` statistics against the per-run traces. A check returns the set
of failed units (seed x algorithm, or algorithm x function x run), the
reasons, and the pass's quality numbers.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

from armyant.coverage import CoverageField, coverage_naive, read_deployment


def _read_column(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{os.path.basename(path)}: bad header")
    return [float(row[1]) for row in rows[1:]]


def _nondecreasing(values):
    return all(b >= a for a, b in zip(values, values[1:]))


def check_cover(wl, invocations, runs):
    """Every seed x algorithm: one record, a monotone curve, and a final
    rate equal to the unpruned recomputation of the written deployment."""
    field = CoverageField(wl["area_m"], wl["area_m"], wl["grid"])
    failed, reasons, aaso_rates = set(), [], []
    positions = {}
    for inv, run in zip(invocations, runs):
        alg, out = inv["algorithm"], inv["out"]
        for seed in inv["seeds"]:
            try:
                if run["exit"] != 0:
                    raise ValueError(f"exit code {run['exit']}")
                if f"FAILED seed {seed} " in run["stderr"]:
                    raise ValueError("reported FAILED")
                with open(os.path.join(out, "results.json")) as fh:
                    records = [r for r in json.load(fh) if r["algorithm"] == alg and r["seed"] == seed]
                if len(records) != 1:
                    raise ValueError(f"{len(records)} records in results.json")
                final = records[0]["final_rate"]
                curve = _read_column(os.path.join(out, f"curve_{alg}_{seed}.csv"), ["iter", "covr"])
                if len(curve) != wl["iterations"] + 1 or not _nondecreasing(curve):
                    raise ValueError("curve has the wrong length or decreases")
                sensors = read_deployment(os.path.join(out, f"deployment_final_{alg}_{seed}.csv"))
                recomputed = coverage_naive(sensors, field).rate
                if not recomputed == final == curve[-1]:
                    raise ValueError(f"final rate {final!r}, curve end {curve[-1]!r}, recomputed {recomputed!r}")
                xy = np.array([[s.x, s.y] for s in sensors])
                if not np.array_equal(positions.setdefault(seed, xy), xy):
                    raise ValueError("sensor positions differ between algorithms")
                if alg == "aaso":
                    aaso_rates.append(final)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                failed.add((alg, seed))
                reasons.append(f"{alg} seed {seed}: {exc}")
    quality = {"covr_final": float(np.mean(aaso_rates)) if aaso_rates else math.nan}
    return failed, reasons, quality


def check_bench(wl, invocations, runs):
    """Every trace finite and non-increasing; statistics.csv has one row per
    (algorithm, function) whose best/mean/std match the trace finals."""
    failed, reasons = set(), []
    log_finals, log_gains = [], []
    for inv, run in zip(invocations, runs):
        alg, out, functions = inv["algorithm"], inv["out"], inv["functions"]
        try:
            if run["exit"] != 0:
                raise ValueError(f"exit code {run['exit']}")
            with open(os.path.join(out, "statistics.csv"), newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != ["algorithm", "function", "runs", "best", "mean", "std"]:
                raise ValueError("statistics.csv: bad header")
            stats = [r for r in rows[1:] if r[0] == alg]
            if sorted(r[1] for r in stats) != sorted(functions) or len(stats) != len(rows) - 1:
                raise ValueError("statistics.csv: not one row per function")
        except (OSError, ValueError, IndexError) as exc:
            failed.update((alg, f, r) for f in functions for r in range(wl["runs"]))
            reasons.append(f"{alg}: {exc}")
            continue
        for row in stats:
            fname, finals = row[1], []
            for r in range(wl["runs"]):
                seed = wl["base_seed"] + r
                try:
                    trace = _read_column(
                        os.path.join(out, f"trace_{alg}_{fname}_{seed}.csv"), ["iter", "best_fitness"]
                    )
                    if len(trace) != wl["iterations"] + 1 or not all(map(math.isfinite, trace)):
                        raise ValueError("trace has the wrong length or a non-finite value")
                    if not _nondecreasing(trace[::-1]):
                        raise ValueError("trace increases")
                except (OSError, ValueError, IndexError) as exc:
                    failed.add((alg, fname, r))
                    reasons.append(f"{alg} {fname} seed {seed}: {exc}")
                    continue
                finals.append(trace[-1])
                if alg == "aaso":
                    log_finals.append(math.log10(trace[-1]) if trace[-1] > 0 else -math.inf)
                    log_gains.append(math.log10((1.0 + trace[0]) / (1.0 + trace[-1])))
            if len(finals) != wl["runs"]:
                continue
            values = np.array(finals)
            runs_col, best, mean, std = int(row[2]), float(row[3]), float(row[4]), float(row[5])
            if not (
                runs_col == wl["runs"]
                and best == values.min()
                and math.isclose(mean, values.mean(), rel_tol=1e-12, abs_tol=1e-300)
                and math.isclose(std, values.std(ddof=1), rel_tol=1e-9, abs_tol=1e-300)
            ):
                failed.update((alg, fname, r) for r in range(wl["runs"]))
                reasons.append(f"{alg} {fname}: statistics row does not match the traces")
    quality = {
        "fitness_log10": float(np.mean(log_finals)) if log_finals else math.nan,
        "fitness_gain_log10": float(np.mean(log_gains)) if log_gains else math.nan,
    }
    return failed, reasons, quality


def units(wl):
    if wl["command"] == "cover":
        return [(a, s) for a in wl["algorithms"] for s in wl["seeds"]]
    return [(a, f, r) for a in wl["algorithms"] for f in wl["functions"] for r in range(wl["runs"])]


def check(wl, invocations, runs):
    checker = check_cover if wl["command"] == "cover" else check_bench
    return checker(wl, invocations, runs)


def fingerprint(wl, invocations):
    """sha256 over results.json and curves (cover) or statistics and traces (bench)."""
    keep = ("results.json", "curve_") if wl["command"] == "cover" else ("statistics.csv", "trace_")
    digest = hashlib.sha256()
    for inv in invocations:
        for name in sorted(os.listdir(inv["out"])):
            if name.startswith(keep):
                digest.update(f"{inv['algorithm']}/{name}\n".encode())
                with open(os.path.join(inv["out"], name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()
