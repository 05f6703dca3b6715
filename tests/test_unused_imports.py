"""Every name a package module imports is read somewhere in that module.

No linter ships with the test toolchain, so this is the unused-import check
on the AST: a name bound by ``import`` or ``from ... import`` that no
``Name`` node ever loads is reported.  ``__init__`` is exempt, since its
imports are the package's re-exports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "pencilgraphs")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_checker_reports_unused_names():
    src = ("from __future__ import annotations\n"
           "import os, sys as system\n"
           "from a.b import c, d as e\n"
           "import x.y\n"
           "def f(p: c) -> None:\n"
           "    return os.sep, x.y\n")
    assert unused_imports(src) == ["e (line 3)", "system (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as f:
        assert unused_imports(f.read()) == []
