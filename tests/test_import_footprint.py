"""What importing the CLI loads: no dataclass code generation beyond
SearchResult's, and no fractions, decimal or csv until a run uses them."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_footprint():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == ["[]", "['SearchResult']"]
