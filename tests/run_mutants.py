"""Mutation check of the exactness invariants that the coverage kernel and AASO rest on.

Run from anywhere, for all mutants or the named ones:

    python tests/run_mutants.py [name ...]

Each mutant replaces one exact text in ``src/armyant`` and breaks one
invariant that a docstring proves. For each, the script copies ``src/``
to a temporary directory, applies the mutant there (the checkout is never
edited) and runs ``tests/test_coverage.py``, ``tests/test_enhance.py``,
``tests/test_optimizer.py``, ``tests/test_baselines.py`` and
``tests/test_rng.py`` with ``-x -m "not slow"`` against the copy. A mutant
is killed when the tests fail. The exit status is 1 when a mutant survives or its text is not
found exactly once. pytest does not collect this file; it takes minutes,
so it stays out of the test suite.
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
         for name in ("test_coverage.py", "test_enhance.py", "test_optimizer.py",
                      "test_baselines.py", "test_rng.py")]

# name, file under src/armyant, exact old text, its replacement, the invariant broken.
# Left out as equivalent: bucketing the keys, not the queries, by
# B * fl(key / 2*pi). fl(B / 2*pi) = B * fl(1 / 2*pi) exceeds B / 2*pi by a
# relative error below 2**-53, so that floor lags the queries' by one bucket
# only on the first double of a bucket; a key there lies at or below every
# query of a later bucket and is found by the halvings from its own, so no
# count moves.
MUTANTS = [
    # the evaluator and coverage_naive both sense through _in_sector, so the
    # two move together under these; is_sensed's examples at the sector's
    # edges, (30, 30) and (30, -30), see them
    ("sensed-half-strict", "coverage.py",
     "| (diff <= half_angle) |",
     "| (diff < half_angle) |",
     "_in_sector senses d <= h, the lower edge of the sector"),
    ("sensed-upper-strict", "coverage.py",
     "| (diff >= TWO_PI - half_angle)",
     "| (diff > TWO_PI - half_angle)",
     "_in_sector senses d >= U, the upper edge of the sector"),
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
    ("bound-bracket-wraps", "coverage.py",
     "ok = ((first < last)",
     "ok = ((first != last)",
     "_bound bisects only a bracket that does not cross 0"),
    ("bisect-two-branches", "coverage.py",
     "branch = (diff < 0.0).astype(np.intp) + (diff < -TWO_PI)",
     "branch = (diff < 0.0).astype(np.intp)",
     "_bisect_intervals numbers np.mod's branches by the multiples of 2*pi added: 0, 1 or 2"),
    ("attack-target-copy", "optimizer.py",
     "target = rows[:, 0] + 0.0",
     "target = rows[:, 0].copy()",
     "attack_target adds the first row to +0.0, as np.mean does"),
    ("follow-sum-start", "optimizer.py",
     "    step += 0.0  #",
     "    pass  #",
     "step_follow adds the two rows to +0.0, as np.mean does"),
    # only a coefficient that is not a power of two rounds (x * c) * r apart
    # from x * (c * r): the ties golden's 0.7
    ("step-factor-two-products", "optimizer.py",
     "step *= (attack_coeff * r)[:, None]",
     "step *= attack_coeff\n    step *= r[:, None]",
     "step_attack scales the gap by one product c * r"),
    # the recruit wheels sum to 1 only up to rounding, so this one is seen
    # on a wheel whose total is not 1
    ("spin-unscaled", "rng.py",
     "u = self._gen.random(size) * cum[-1]",
     "u = self._gen.random(size) * 1.0",
     "a spin scales its uniform by the wheel's own total cum[-1]"),
    ("archive-skip-best", "optimizer.py",
     "if (fitness < prey_fitness[-1]).any():",
     "if (fitness < prey_fitness[0]).any():",
     "a merge is skipped only when no row lies below the archive's fourth entry"),
    ("archive-skip-best-bridge", "optimizer.py",
     "if (fitness[worse] < prey_fitness[-1]).any():",
     "if (fitness[worse] < prey_fitness[0]).any():",
     "a merge is skipped only when no row lies below the archive's fourth entry"),
    ("random-tie-later", "baselines.py",
     "if f < best_fit:",
     "if f <= best_fit:",
     "random search's best moves only on a strictly lower value: ties keep the earliest sample"),
    ("random-row-offset", "baselines.py",
     "best, best_fit = group[j * n + i], f",
     "best, best_fit = group[i], f",
     "block j of an objective call starts at row j * population"),
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
            print(f"{mutant[0]:<24} {outcome:<15} {elapsed:6.1f} s  {mutant[4]}", flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
