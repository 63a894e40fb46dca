#!/usr/bin/env python3
"""Headline coverage experiment: 110 directional sensors on a 500 m square.

Deploys randomly per seed, then compares the army ant search optimizer
against the virtual-force and PSO baselines over 10 paired seeds. Artifacts
(curves, layouts, results.json, summary.csv) land in the output directory.

Usage: python scripts/run_headline.py [outdir]
"""

import os
import sys
import tempfile
from pathlib import Path

from armyant.cli import main

CONFIG = """\
kind = cover
area_length_m = 500
area_width_m = 500
grid_interval_m = 5
node_count = 110
radius_m = 60
view_angle_deg = 90
algorithms = aaso,vfa,pso
population = 50
iterations = 100
seeds = 1..10
"""


if __name__ == "__main__":
    outdir = sys.argv[1] if len(sys.argv) > 1 else "headline_out"
    with tempfile.NamedTemporaryFile("w", suffix=".conf", delete=False) as fh:
        fh.write(CONFIG)
        config_path = fh.name
    try:
        code = main(["cover", "run", "--config", config_path, "--out", outdir])
    finally:
        os.unlink(config_path)
    print(f"artifacts in {Path(outdir).resolve()}")
    sys.exit(code)
