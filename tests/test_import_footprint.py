"""What importing sigforge loads: no dataclass code generation, no
fractions, decimal or csv until a run uses them, and numpy's OpenBLAS with
one thread unless the caller chose a count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import dataclasses, inspect, sys
import sigforge.cli
print(sorted({"fractions", "decimal", "csv"} & set(sys.modules)))
print(sorted(
    name
    for module in ("sigcore", "linalg", "bounds", "sphere", "harness")
    for name, obj in vars(sys.modules["sigforge." + module]).items()
    if inspect.isclass(obj) and obj.__module__ == "sigforge." + module
    and dataclasses.is_dataclass(obj)
))
"""

THREAD_PROBE = """
import os
import sigforge
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""

# Variables OpenBLAS falls back to when OPENBLAS_NUM_THREADS is unset.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_probe(probe, **env):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(base, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()


def test_cli_import_footprint():
    assert run_probe(PROBE) == ["[]", "[]"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
def test_numpy_loads_with_one_blas_thread():
    assert run_probe(THREAD_PROBE) == ["1 None"]
    tasks, value = run_probe(THREAD_PROBE, OPENBLAS_NUM_THREADS="2")[0].split()
    assert value == "2"
    if len(os.sched_getaffinity(0)) >= 2:
        assert tasks == "2"
