"""Smoke test of the benchmark tracer in ``perfbench/tracer.py``.

The tracer wraps library functions by name, so a rename in ``src/`` can
break ``perfbench/run.py --trace 1`` without failing any other test. It
patches module attributes for good, so it runs in its own process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BENCH = """
kind = bench
algorithms = aaso,pso,random
functions = sphere
runs = 2
population = 6
iterations = 4
dimension = 3
"""

COVER = """
kind = cover
area_length_m = 60
area_width_m = 60
grid_interval_m = 5
node_count = 4
radius_m = 20
algorithms = aaso,pso,vfa
population = 6
iterations = 4
seeds = 1
"""

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import armyant.cli as cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
codes = [cli.main([kind, "run", "--config", conf, "--out", out])
         for kind, conf, out in (sys.argv[2:5], sys.argv[5:8])]
spans = sorted({s["name"] for s in tracer.dump()})
print(json.dumps({"codes": codes, "spans": spans, "layers": tracer.layer_metrics(0)}))
"""


def test_tracer_wraps_every_search_and_enhancer(tmp_path):
    (tmp_path / "bench.conf").write_text(BENCH)
    (tmp_path / "cover.conf").write_text(COVER)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = [
        str(ROOT / "perfbench"),
        "bench", str(tmp_path / "bench.conf"), str(tmp_path / "bench_out"),
        "cover", str(tmp_path / "cover.conf"), str(tmp_path / "cover_out"),
    ]
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    for name in (
        "optimizer.run", "baselines.pso_run", "baselines.random_search_run",
        "enhance.enhance_aaso", "enhance.enhance_pso", "enhance.enhance_vfa",
        "harness.compare", "cli.write.write_statistics_csv", "cli.write.write_trace_csv",
        "cli.write._write_curve_csv", "cli.write.write_deployment", "svgplot.render",
        "config.parse_config", "coverage.build",
    ):
        assert name in result["spans"]
    assert result["layers"]["optimizer.evals"] > 0
    # VFA's per-rotation sensing goes through the traced ``sensed_subset``
    assert result["layers"]["coverage.subset_calls"] > 0
    assert result["layers"]["enhance.vfa_ms_per_iter"] > 0
