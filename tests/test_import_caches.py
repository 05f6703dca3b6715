"""Importing the package leaves every module-level lru cache empty.

A module that filled a cache at import would move work out of the timed
queries into the import, so a speed-up measured on the queries would be
partly an artifact of where the work ran.  The check runs in a fresh
interpreter, so no other test has touched the caches.
"""

import json
import os
import subprocess
import sys

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


def test_import_leaves_lru_caches_empty():
    src = os.path.dirname(os.path.dirname(pencilgraphs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", CODE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    sizes = json.loads(res.stdout)
    # the scan sees the neighbour kernel's caches, so it is not vacuous
    assert {"gf2.coset_table", "graphbuild._copy_dual_points",
            "graphbuild._copy_tables", "graphbuild.component"} <= set(sizes)
    assert {name: n for name, n in sizes.items() if n} == {}
