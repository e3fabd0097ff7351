"""The package's default of one OpenBLAS thread, seen from fresh processes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salpeter_bounds

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counting OS threads needs /proc/self/task")

_SRC = str(Path(salpeter_bounds.__file__).resolve().parents[1])

_PROBE = """
import json, os
import salpeter_bounds as sb
sb.solver.solve_once_3d(sb.exponential(1.0, 1.0), 1.0, 2.0, 20.0, 1024)
print(json.dumps({"openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir("/proc/self/task"))}))
"""


def _probe(env_vars: dict) -> dict:
    """OPENBLAS_NUM_THREADS and the OS thread count of a fresh process that
    imports the package and runs one eigensolve."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_default_is_one_blas_thread_and_one_os_thread():
    assert _probe({}) == {"openblas": "1", "threads": 1}


def test_preset_openblas_thread_count_is_kept():
    assert _probe({"OPENBLAS_NUM_THREADS": "2"})["openblas"] == "2"


def test_omp_thread_count_leaves_openblas_unset():
    assert _probe({"OMP_NUM_THREADS": "2"})["openblas"] is None
