"""Module-level lru caches hold only what a run needs.

Importing the package leaves every one empty.  A module that filled a
cache at import would move work out of the timed queries into the import,
so a speed-up measured on the queries would be partly an artifact of where
the work ran.  No verb fills ``hrho.build_group``, the tests' BFS reference
for the auxiliary group.  Each check runs in a fresh interpreter,
so no other test has touched the caches.
"""

import json
import os
import subprocess
import sys

import pytest

import pencilgraphs

CODE = """
import importlib, json, pkgutil
import pencilgraphs
sizes = {}
for info in pkgutil.iter_modules(pencilgraphs.__path__):
    mod = importlib.import_module("pencilgraphs." + info.name)
    for name, obj in vars(mod).items():
        if callable(getattr(obj, "cache_info", None)):
            sizes[f"{info.name}.{name}"] = obj.cache_info().currsize
print(json.dumps(sizes))
"""


VERB = """
import contextlib, io, json, sys
from pencilgraphs import cli, hrho
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, hrho.build_group.cache_info().currsize]))
"""


def _fresh(code, *args):
    """json.loads of what code prints in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(pencilgraphs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_import_leaves_lru_caches_empty():
    sizes = _fresh(CODE)
    # the scan sees the neighbour kernel's caches, so it is not vacuous
    assert {"gf2.coset_table", "graphbuild._copy_dual_points",
            "graphbuild._copy_tables", "graphbuild.component"} <= set(sizes)
    assert {name: n for name, n in sizes.items() if n} == {}


@pytest.mark.parametrize("args", [
    ["hrho", "--rho", "5"],
    ["census", "--rho", "5"],
    ["hrho", "--rho", "4"],
    ["report", "-r", "3", "-s", "1"],
], ids=["hrho-5", "census-5", "hrho-4", "report-3-1"])
def test_build_group_runs_only_for_distances(args):
    """No verb fills build_group: the Cayley distances come from the class
    certificate and the orders from Schreier-Sims, so only the tests' BFS
    reference lists the group."""
    assert _fresh(VERB, *args) == [0, 0]
