"""The goldens and AASO's recruit wheel hold with NumPy's AVX-512 loops off.

NumPy picks its SIMD loops by the CPU when it is imported, and
``NPY_DISABLE_CPU_FEATURES`` switches dispatched ones off. The goldens were
recorded with AVX-512 loops, so these tests re-run the ``cover`` goldens and
the AASO trajectory goldens in a child process without them, and compare the
bytes of the recruit wheel over every (lam, n) that the workloads and the
example configs reach: on an AVX-512 host, a result that depends on the SIMD
level fails here instead of on a machine without it.

The ``bench`` golden is left out: ``benchmarks.ackley``'s ``np.exp`` differs
by an ulp between the loops, which changes its artifacts. The BLAS kernel is
not varied either. ``optimizer.ant_bridge``'s ``w @ positions`` is an
OpenBLAS ``dgemv``, and OpenBLAS picks that kernel by the CPU, so four of the
five trajectory goldens fail under ``OPENBLAS_CORETYPE=Haswell``.
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

GOLDENS = [
    "tests/test_cli.py::test_run_artifacts_golden[cover]",
    "tests/test_enhance.py::test_enhance_golden",
    "tests/test_enhance.py::test_vfa_headline_golden",
    "tests/test_optimizer.py::test_run_trajectory_golden",
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

# (population, iterations): the cover and bench workloads and examples/bench.conf;
# each run's wheel table, as ``optimizer.run`` builds it
WHEEL_DIGEST = """
import hashlib
from armyant.optimizer import OptimizerConfig, recruit_wheels
h = hashlib.sha256()
for population, iterations in ((50, 100), (30, 500), (30, 1000)):
    h.update(recruit_wheels(OptimizerConfig(population=population, max_iters=iterations)).tobytes())
print(h.hexdigest())
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


def child_env(disabled=""):
    """This process's environment with ``src`` importable and ``disabled`` off."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def avx512_off_env():
    """A child environment with every AVX-512 loop off; skips without any."""
    features = present_avx512_features()
    if not features:
        pytest.skip("NumPy dispatches no AVX-512 loop on this CPU")
    env = child_env(" ".join(features))
    check = subprocess.run([sys.executable, "-c", CHECK_OFF, *features], env=env,
                           capture_output=True, text=True, timeout=60)
    assert check.returncode == 0, check.stderr
    assert check.stdout.strip() == "", f"still dispatched: {check.stdout}"
    return env


def test_goldens_hold_without_avx512_loops():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *GOLDENS],
        cwd=ROOT, env=avx512_off_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


def test_recruit_wheel_bytes_hold_without_avx512_loops():
    digests = []
    for env in (child_env(), avx512_off_env()):
        done = subprocess.run([sys.executable, "-c", WHEEL_DIGEST], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    default, off = digests
    assert off == default
