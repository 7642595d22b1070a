import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the three variables as a fresh interpreter sees them after importing
# depthlab, and the thread count of numpy's bundled OpenBLAS when there is one.
PROBE = """
import ctypes, glob, os
import depthlab, numpy
print(*(os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")))
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
print(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_() if libs else "n/a")
"""


def imported_settings(**env_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split("\n")[:2]


@pytest.mark.parametrize(
    "env_vars,expected",
    [({}, ("1 1 1", "1")), ({"OPENBLAS_NUM_THREADS": "2"}, ("2 1 1", "2"))],
)
def test_import_pins_blas_threads_unless_set(env_vars, expected):
    variables, blas_threads = imported_settings(**env_vars)
    assert variables == expected[0]
    assert blas_threads in (expected[1], "n/a")


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats roughly doubles the resident memory of a process that
    # loads only numpy and scipy.special; the package uses two special
    # functions and must not pull it in.
    env = {**os.environ, "PYTHONPATH": SRC}
    code = "import sys, depthlab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
