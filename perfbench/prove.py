#!/usr/bin/env python3
"""Run the benchmark over a range of seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/prove.py --seeds 101-110 [--workloads cover,bench] [--trace 0]
        [--record untraced]

Runs ``run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints per metric the median,
quartiles and spread (q3 - q1) / median as ``statistics.quantiles(n=4)``
gives them. ``--record KEY`` also stores the summary, the fingerprints and
the failure counts under ``workloads.<name>.KEY`` in ``perfbench/baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(results, trace):
    names = results[0]["metrics"]
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": names[name]["unit"]}
        if trace:
            entry["values"] = values
        else:
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry.update(median=statistics.median(values), q1=q1, q3=q3,
                         spread=(q3 - q1) / statistics.median(values))
        summary[name] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 101-110")
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="key under which to store the summary in baseline.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}

    for workload in workloads:
        results, fingerprints = [], {}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            record = json.loads((HERE / "out" / f"last_{workload}_trace{args.trace}.json").read_text())
            fingerprints[str(seed)] = record["fingerprints"]
            print(f"{workload} seed {seed}: failed {results[-1]['failed']}/{results[-1]['attempted']}",
                  file=sys.stderr, flush=True)
        summary = summarise(results, args.trace)
        print(f"{workload}  seeds {args.seeds[0]}-{args.seeds[-1]}  trace {args.trace}"
              f"  failed {sum(r['failed'] for r in results)}")
        for name, entry in summary.items():
            if args.trace:
                print(f"  {name:32s} " + " ".join(f"{v:.6g}" for v in entry["values"]) + f" {entry['unit']}")
            else:
                print(f"  {name:32s} median {entry['median']:.6g} {entry['unit']}"
                      f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  spread {entry['spread']:.4f}")
        if args.record:
            baseline.setdefault("workloads", {}).setdefault(workload, {})[args.record] = {
                "seeds": args.seeds,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "fingerprints": fingerprints,
                "metrics": summary,
            }
            baseline_path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
