"""One benchmark pass in its own process: the workload's CLI invocations.

Prints ``READY`` once ``armyant.cli`` is imported and every config is
parsed (the parent times set-up up to that line), then runs each
invocation through ``armyant.cli.main``, timing it from outside, and
writes a JSON result file. With ``--trace`` it first installs the tracer
from ``perfbench/tracer.py`` and adds the per-layer metrics and spans.

Usage: python child.py PLAN.json RESULT.json [--trace SPANS.json] [--setup-only]
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _tree_bytes(path):
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(path)
        for name in files
    )


def main(argv):
    plan_path, result_path = argv[0], argv[1]
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    with open(plan_path) as fh:
        plan = json.load(fh)

    import armyant.cli as cli

    for inv in plan["invocations"]:
        cli.parse_config(inv["config"])
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    runs = []
    for inv in plan["invocations"]:
        args = [plan["command"], "run", "--config", inv["config"], "--out", inv["out"]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(args)
            seconds = time.perf_counter() - t0
        runs.append({"algorithm": inv["algorithm"], "seconds": seconds, "exit": code,
                     "stderr": err.getvalue()})

    result = {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out_bytes = sum(_tree_bytes(inv["out"]) for inv in plan["invocations"])
        result["layers"] = tracer.layer_metrics(out_bytes)
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
