"""Mutation check of the exactness invariants that the coverage kernel and AASO rest on.

Run from anywhere, for all mutants or the named ones:

    python tests/run_mutants.py [name ...]

Each mutant replaces one exact text in ``src/armyant`` and breaks one
invariant that a docstring proves. For each, the script copies ``src/``
to a temporary directory, applies the mutant there (the checkout is never
edited) and runs ``tests/test_coverage.py``, ``tests/test_enhance.py``
and ``tests/test_optimizer.py`` with ``-x -m "not slow"`` against the
copy. A mutant is killed when the tests fail. The exit status is 1 when
a mutant survives or its text is not found exactly once. pytest does not
collect this file; it takes minutes, so it stays out of the test suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = [str(ROOT / "tests" / name)
         for name in ("test_coverage.py", "test_enhance.py", "test_optimizer.py")]

# name, file under src/armyant, exact old text, its replacement, the invariant broken.
# Left out as equivalent: bucketing the keys, not the queries, by
# B * fl(key / 2*pi). fl(B / 2*pi) = B * fl(1 / 2*pi) exceeds B / 2*pi by a
# relative error below 2**-53, so that floor lags the queries' by one bucket
# only on the first double of a bucket; a key there lies at or below every
# query of a later bucket and is found by the halvings from its own, so no
# count moves.
MUTANTS = [
    ("reduce-one-add", "coverage.py",
     "    for _ in range(2):\n        np.add(diff, TWO_PI, out=diff, where=diff < 0.0)",
     "    for _ in range(1):\n        np.add(diff, TWO_PI, out=diff, where=diff < 0.0)",
     "_reduce_angle needs both conditional adds to equal np.mod on (-2P, P/2]"),
    ("sensed-half-strict", "coverage.py",
     "return (diff <= half) | (diff >= upper)",
     "return (diff < half) | (diff >= upper)",
     "_sensed tests d <= h, as np.mod's reference test does"),
    ("sensed-upper-strict", "coverage.py",
     "return (diff <= half) | (diff >= upper)",
     "return (diff <= half) | (diff > upper)",
     "_sensed tests d >= U, as np.mod's reference test does"),
    ("canonical-minus-zero", "coverage.py",
     "return np.where(angle >= TWO_PI, 0.0, angle + 0.0)",
     "return np.where(angle >= TWO_PI, 0.0, angle)",
     "canonicalize_angle turns -0.0 into +0.0, whose bit pattern is the query 0"),
    ("query-bucket-product", "coverage.py",
     "at = (theta * self._scale[:, None]).astype(np.intp)",
     "at = (theta / TWO_PI * np.rint(self._scale * TWO_PI)[:, None]).astype(np.intp)",
     "keys and queries land in their buckets by one rounded product"),
    ("steps-one-short", "coverage.py",
     "self._steps = int(np.frexp(filled.max(initial=1) - 1)[1])",
     "self._steps = int(np.frexp(filled.max(initial=1) - 1)[1]) - 1",
     "_steps halvings settle the fullest bucket"),
    ("marks-b-a2-signs", "coverage.py",
     "np.array([1.0, 1.0, -1.0, -1.0])",
     "np.array([1.0, -1.0, 1.0, -1.0])",
     "the marks are the indicator's steps: + at a and a2, - at b"),
    ("marks-no-end", "coverage.py",
     "np.array([1.0, 1.0, -1.0, -1.0])",
     "np.array([1.0, 1.0, -1.0, 0.0])",
     "the end mark returns the running sum to 0 before the next segment"),
    ("word-53", "coverage.py",
     "_WORD = 51",
     "_WORD = 53",
     "with more than 51 rows a position's seven marks can round"),
    ("word-52", "coverage.py",
     "_WORD = 51",
     "_WORD = 52",
     "with more than 51 rows a position's seven marks can round"),
    ("attack-target-copy", "optimizer.py",
     "target = scatters[first] + 0.0",
     "target = scatters[first].copy()",
     "attack_target adds the first row to +0.0, as np.mean does"),
]


def run(mutant, scratch):
    _, path, old, new, _ = mutant
    src = Path(scratch) / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "armyant" / path
    text = target.read_text()
    if text.count(old) != 1:
        return "not found once", 0.0
    target.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-m", "not slow", "-p", "no:cacheprovider",
         *TESTS],
        # from the scratch directory, so that hypothesis keeps the mutants'
        # failing examples out of the checkout's example database
        cwd=scratch, env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - started
    # pytest exits 1 when a test fails; any other code is an error of the run
    outcome = {0: "SURVIVED", 1: "killed"}.get(done.returncode, f"error {done.returncode}")
    return outcome, elapsed


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        sys.exit(f"unknown mutant in {names}; known: {[m[0] for m in MUTANTS]}")
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in chosen:
            outcome, elapsed = run(mutant, scratch)
            failed |= outcome != "killed"
            print(f"{mutant[0]:<20} {outcome:<15} {elapsed:6.1f} s  {mutant[4]}", flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
