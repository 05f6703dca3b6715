"""The package names that perfbench reaches into still exist.

perfbench/worker.py imports package modules by name, and the tracer in
perfbench/spans.py replaces package functions by name.  A rename or a
deletion in the package would break ``perfbench/run.py --trace 1`` with no
other test failing, so these tests read those names from perfbench (without
writing anything there) and look each one up.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")

# attributes the tracer patches besides its TRACED table
PATCHED = [
    ("cli", "_COMMANDS"),
    ("cli", "_emit"),
    ("autnr", "transvection_table"),
    ("parallel", "pmap"),
]


def _tree(name: str) -> ast.Module:
    with open(os.path.join(BENCH, name)) as f:
        return ast.parse(f.read())


def _traced() -> dict[str, list[str]]:
    """The TRACED table of spans.py, read from its source."""
    for node in _tree("spans.py").body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TRACED"):
            return ast.literal_eval(node.value)
    raise AssertionError("spans.py has no TRACED table")


def _worker_imports() -> list[str]:
    return [alias.name for node in ast.walk(_tree("worker.py"))
            if isinstance(node, ast.ImportFrom) and node.module == "pencilgraphs"
            for alias in node.names]


def test_worker_imports_exist():
    names = _worker_imports()
    assert "autnr" in names and "parallel" in names
    for name in names:
        importlib.import_module(f"pencilgraphs.{name}")


def test_traced_and_patched_names_exist():
    pairs = [(m, f) for m, names in _traced().items() for f in names] + PATCHED
    for modname, fname in pairs:
        mod = importlib.import_module(f"pencilgraphs.{modname}")
        assert hasattr(mod, fname), f"pencilgraphs.{modname}.{fname} is gone"
    cli = importlib.import_module("pencilgraphs.cli")
    for verb in cli._COMMANDS:
        assert callable(getattr(cli, f"cmd_{verb}"))
    graphbuild = importlib.import_module("pencilgraphs.graphbuild")
    assert callable(graphbuild.PencilGraph.nbr_mask)
    assert "_nbr_masks" in graphbuild.PencilGraph.__dataclass_fields__


def test_traced_worker_installs(tmp_path):
    """A traced set-up probe imports everything and installs every wrapper."""
    result = tmp_path / "result.json"
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", "desk-verify", "--seed", "1", "--rep", "0",
           "--trace", "1", "--spawned", repr(time.monotonic()),
           "--workdir", str(tmp_path), "--result", str(result), "--setup-only"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["ops"] == 0 and data["failed_ops"] == 0
    assert "layers" in data
