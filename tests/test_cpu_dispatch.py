"""The ``cover`` goldens hold with NumPy's AVX-512 loops switched off.

NumPy picks its SIMD loops by the CPU when it is imported, and
``NPY_DISABLE_CPU_FEATURES`` switches dispatched ones off. The goldens were
recorded with AVX-512 loops, so this test re-runs the ``cover`` goldens in a
child process without them: on an AVX-512 host, a ``cover`` result that
depends on the SIMD level fails here instead of on a machine without it.
The ``bench`` golden is left out: ``benchmarks.ackley``'s ``np.exp`` differs
by an ulp between the loops, which changes its artifacts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # NumPy 1.x
    from numpy.core import _multiarray_umath as umath

ROOT = Path(__file__).resolve().parent.parent

COVER_GOLDENS = [
    "tests/test_cli.py::test_run_artifacts_golden[cover]",
    "tests/test_enhance.py::test_enhance_golden",
    "tests/test_enhance.py::test_vfa_headline_golden",
]

CHECK_OFF = """
import sys
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
still_on = [f for f in sys.argv[1:] if umath.__cpu_features__.get(f)]
print(" ".join(still_on))
"""


def present_avx512_features():
    """The AVX-512 features this CPU has that NumPy dispatches on.

    Only dispatched features can be switched off; naming any other makes
    NumPy warn at import.
    """
    return [
        f for f in umath.__cpu_dispatch__
        if umath.__cpu_features__.get(f) and ("AVX512" in f or f == "X86_V4")
    ]


def test_cover_goldens_hold_without_avx512_loops():
    features = present_avx512_features()
    if not features:
        pytest.skip("NumPy dispatches no AVX-512 loop on this CPU")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    check = subprocess.run([sys.executable, "-c", CHECK_OFF, *features], env=env,
                           capture_output=True, text=True, timeout=60)
    assert check.returncode == 0, check.stderr
    assert check.stdout.strip() == "", f"still dispatched: {check.stdout}"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *COVER_GOLDENS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
