#!/usr/bin/env python3
"""Benchmark comparison: AASO vs PSO vs random search, 50 paired runs.

Six classic functions at dimension 30 with a 30 x 1000 evaluation budget.
Writes statistics.csv plus one convergence trace per run. Expect several
minutes of runtime.

Usage: python scripts/run_benchmarks.py [outdir]
"""

import os
import sys
import tempfile
from pathlib import Path

from armyant.cli import main

CONFIG = """\
kind = bench
algorithms = aaso,pso,random
functions = sphere,rosenbrock,rastrigin,ackley,griewank,schwefel
dimension = 30
population = 30
iterations = 1000
runs = 50
base_seed = 1
"""


if __name__ == "__main__":
    outdir = sys.argv[1] if len(sys.argv) > 1 else "bench_out"
    with tempfile.NamedTemporaryFile("w", suffix=".conf", delete=False) as fh:
        fh.write(CONFIG)
        config_path = fh.name
    try:
        code = main(["bench", "run", "--config", config_path, "--out", outdir])
    finally:
        os.unlink(config_path)
    print(f"artifacts in {Path(outdir).resolve()}")
    sys.exit(code)
