"""Command-line front end: coverage experiments, benchmarks, deployment math."""

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import parse_config, parse_seed_list
from .coverage import (
    CoverageField,
    expected_initial_coverage,
    random_deployment,
    read_deployment,
    required_nodes,
    with_deviations,
    write_deployment,
)
from .harness import (
    compare,
    compare_cover,
    write_atomic,
    write_series_csv,
    write_statistics_csv,
    write_trace_csv,
)
from .svgplot import render_deployment_svg


def _ensure_output_dir(path):
    os.makedirs(path, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise OSError(f"output directory {path!r} is not writable")


def _write_curve_csv(curve, path):
    write_series_csv(curve, path, ("iter", "covr"))


def run_cover(spec):
    """Run every seed x algorithm and write curves, layouts and summaries.

    Returns a process exit code: 0 only when every run completed.
    """
    _ensure_output_dir(spec.output_dir)
    out = spec.output_dir
    field = CoverageField(spec.area_length_m, spec.area_width_m, spec.grid_interval_m)
    alpha = math.radians(spec.view_angle_deg)

    def deploy(rng):
        if spec.deployment_path:
            return read_deployment(spec.deployment_path)
        return random_deployment(field, spec.node_count, spec.radius_m, alpha, rng)

    deployments, failures = compare_cover(
        deploy, field, spec.algorithms, spec.seeds, spec.optimizer_config()
    )

    def remove(paths):
        # a failed deployment or run leaves none of its files; if one cannot
        # be removed, the failure is still reported
        for path in paths:
            with contextlib.suppress(OSError):
                os.remove(path)

    results, failed_layouts = [], set()
    for seed, (sensors, runs) in deployments.items():
        initial_path = os.path.join(out, f"layout_initial_{seed}.svg")
        try:
            render_deployment_svg(sensors, field, initial_path)
        except (ValueError, OSError) as exc:
            # failed as a deployment: none of the seed's runs is written or
            # reported, and no part of its initial layout is left
            failed_layouts.add(seed)
            failures.append((seed, "deploy", str(exc)))
            remove([initial_path])
            continue
        for algorithm, run in runs.items():
            curve_path = os.path.join(out, f"curve_{algorithm}_{seed}.csv")
            layout_path = os.path.join(out, f"layout_final_{algorithm}_{seed}.svg")
            deployment_path = os.path.join(out, f"deployment_final_{algorithm}_{seed}.csv")
            try:
                _write_curve_csv(run.curve, curve_path)
                final_sensors = with_deviations(sensors, run.best_angles)
                render_deployment_svg(final_sensors, field, layout_path)
                write_deployment(final_sensors, deployment_path)
                results.append(
                    {
                        "algorithm": algorithm,
                        "seed": seed,
                        "initial_rate": run.initial_rate,
                        "final_rate": run.final_rate,
                        "angles_deg": [math.degrees(a) for a in run.best_angles],
                        "evaluations": run.evaluations,
                        "iterations": spec.iterations,
                    }
                )
            except (ValueError, OSError) as exc:
                failures.append((seed, algorithm, str(exc)))
                remove([curve_path, layout_path, deployment_path])

    def write_results(fh):
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")

    def write_summary(fh):
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "runs", "mean_final", "std_final"])
        for algorithm in spec.algorithms:
            values = np.array([r["final_rate"] for r in results if r["algorithm"] == algorithm])
            if values.size:
                std = float(values.std(ddof=1)) if values.size > 1 else 0.0
                writer.writerow(
                    [algorithm, values.size, repr(float(values.mean())), repr(std)]
                )

    write_atomic(os.path.join(out, "results.json"), write_results)
    write_atomic(os.path.join(out, "summary.csv"), write_summary, newline="")

    # a seed whose initial layout failed reports that failure alone
    failures = [f for f in failures if f[0] not in failed_layouts or f[1] == "deploy"]
    if failures:
        seed_at = {seed: i for i, seed in enumerate(spec.seeds)}
        stage_at = {name: i for i, name in enumerate(["deploy", *spec.algorithms])}
        failures.sort(key=lambda f: (seed_at[f[0]], stage_at[f[1]]))
        for seed, stage, message in failures:
            print(f"FAILED seed {seed} ({stage}): {message}", file=sys.stderr)
        return 1
    return 0


def run_bench(spec):
    """Benchmark comparison: statistics CSV plus one trace file per run."""
    _ensure_output_dir(spec.output_dir)
    out = spec.output_dir
    stats = compare(
        spec.algorithms, spec.functions, spec.runs, spec.base_seed,
        spec.optimizer_config(), spec.dimension,
    )
    write_statistics_csv(stats, os.path.join(out, "statistics.csv"))
    for s in stats:
        for r, history in enumerate(s.histories):
            path = os.path.join(out, f"trace_{s.algorithm}_{s.function}_{spec.base_seed + r}.csv")
            try:
                write_trace_csv(history, path)
            except OSError:
                # the run still fails, but leaves no truncated trace behind
                with contextlib.suppress(OSError):
                    os.remove(path)
                raise
    return 0


def analyze_report(length, width, nodes, radius, fov_deg, target=None):
    """Deployment math: expected initial coverage, required node count."""
    area = length * width
    alpha = math.radians(fov_deg)
    lines = [
        f"monitoring area: {length:g} m x {width:g} m (H = {area:g} m^2)",
        f"sensing radius: {radius:g} m, view angle: {fov_deg:g} deg",
        f"nodes deployed: {nodes}",
    ]
    expected = expected_initial_coverage(nodes, radius, alpha, area)
    lines.append(f"expected initial coverage: {expected:.6f} ({100.0 * expected:.2f}%)")
    if target is not None:
        needed = required_nodes(target, radius, alpha, area)
        lines.append(f"required nodes for target coverage {target:g}: {needed}")
        lines.append(f"node saving vs deployed: {needed - nodes}")
    return "\n".join(lines)


def _parse_area(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("area must look like 500x500")
    return float(parts[0]), float(parts[1])


def _parse_seeds(text):
    try:
        return parse_seed_list(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="armyant",
        description="Army ant search optimization and directional-sensor coverage experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="coverage enhancement experiments")
    cover_sub = cover.add_subparsers(dest="action", required=True)
    cover_run = cover_sub.add_parser("run", help="run a coverage experiment from a config file")
    cover_run.add_argument("--config", required=True, help="key = value config file")
    cover_run.add_argument(
        "--seeds", type=_parse_seeds, help="override config seeds, e.g. 1..10 or 3,7"
    )
    cover_run.add_argument("--out", help="override output directory")

    bench = sub.add_parser("bench", help="benchmark function comparisons")
    bench_sub = bench.add_subparsers(dest="action", required=True)
    bench_run = bench_sub.add_parser("run", help="run a benchmark comparison from a config file")
    bench_run.add_argument("--config", required=True)
    bench_run.add_argument("--out", help="override output directory")

    analyze = sub.add_parser("analyze", help="deployment coverage math")
    analyze.add_argument("--area", required=True, type=_parse_area, metavar="LxW")
    analyze.add_argument("--nodes", required=True, type=int)
    analyze.add_argument("--radius", required=True, type=float)
    analyze.add_argument("--fov", required=True, type=float, metavar="DEG")
    analyze.add_argument("--target", type=float, help="target coverage rate in (0,1)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            length, width = args.area
            print(analyze_report(length, width, args.nodes, args.radius, args.fov, args.target))
            return 0
        spec = parse_config(args.config)
        if spec.kind != args.command:
            raise ValueError(f"config kind is {spec.kind!r}, expected {args.command!r}")
        if getattr(args, "seeds", None):
            spec.seeds = args.seeds
            spec.validate()
        if args.out:
            spec.output_dir = args.out
        return run_cover(spec) if args.command == "cover" else run_bench(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
