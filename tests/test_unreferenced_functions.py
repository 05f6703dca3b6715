"""Every public top-level function of the package is used by the program.

A function that nothing in ``src/``, ``scripts/`` or ``perfbench/`` names
is dead code, even when a test calls it: a test alone does not keep a
function alive.  The few that only tests call are listed in ``TEST_ONLY``,
each with its reason, and an entry that no longer needs listing fails the
check too.  A name counts as referenced when any file reads it as a name, an
attribute or an imported name, or holds it as a whole string
(``perfbench/spans.py`` wraps functions by name); its own ``def`` does not
count.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pencilgraphs")
TREES = ("src", "scripts", "perfbench")

# module.function -> why it stays although only tests call it
TEST_ONLY = {
    "autnr.apply": "applies a synthesized generator to any pencil, the "
                   "literal form of the maps the tests check",
    "gf2.parse_mask": "the inverse of mask_str, which reads the golden "
                      "generator text",
    "hrho.eta_by_rules": "the paper's alternate construction of the "
                         "two-line lower level, checked against "
                         "two_line_lower",
    "hrho.ds_cycle": "the definition of a cycle's differences that the "
                     "type_of docstring uses",
    "pencil.decode": "the public query API: a pencil from its key",
}


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
                unreferenced += [f"{module[:-3]}.{name}"
                                 for name in public_functions(f.read())
                                 if name not in read]
    unlisted = sorted(set(unreferenced) - set(TEST_ONLY))
    stale = sorted(set(TEST_ONLY) - set(unreferenced))
    assert (unlisted, stale) == ([], [])
