"""Every public top-level function of the package is referenced somewhere.

A function that nothing in ``src/``, ``tests/``, ``scripts/`` or
``perfbench/`` names is dead code.  A name counts as referenced when any
file reads it as a name, an attribute or an imported name, or holds it as a
whole string (``perfbench/spans.py`` wraps functions by name); its own
``def`` does not count.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pencilgraphs")
TREES = ("src", "tests", "scripts", "perfbench")


def public_functions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def referenced_names(source: str) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _sources():
    for tree in TREES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, tree)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name)) as f:
                        yield f.read()


def test_checker_finds_unreferenced_functions():
    src = ("def used(): pass\n"
           "def traced(): pass\n"
           "def dead(): return used()\n"
           "def _private(): pass\n"
           "class C:\n"
           "    def method(self): pass\n"
           "NAMES = ['traced']\n")
    names = public_functions(src)
    assert names == ["used", "traced", "dead"]
    assert [n for n in names if n not in referenced_names(src)] == ["dead"]


def test_every_public_function_is_referenced():
    read = set()
    for source in _sources():
        read |= referenced_names(source)
    unreferenced = []
    for module in sorted(os.listdir(SRC)):
        if module.endswith(".py"):
            with open(os.path.join(SRC, module)) as f:
                unreferenced += [f"{module}: {name}"
                                 for name in public_functions(f.read())
                                 if name not in read]
    assert unreferenced == []

