"""A function takes only what it reads.

A built ``PencilGraph`` carries its case as ``g.ctx``, so a public function
that took a ``SpaceCtx`` beside the graph would hold two sources of (r, sigma)
that nothing checks against each other.  The pencil-level queries take
``(ctx, pencil)``, since a pencil does not carry its case.  The first check
reads the parameter annotations of every public top-level function.

The second check reads the body of every function and method, nested ones
too: each parameter but ``self`` and ``cls`` is read somewhere in it, so no
caller passes a value that nothing uses.

The third check does the same for the fields of the package's dataclasses:
each is read as an attribute somewhere in ``src/``, ``scripts/`` or
``perfbench/``, unless its class serializes ``self.__dict__``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pencilgraphs")


def _annotation_name(node) -> str | None:
    """The last name of an annotation: SpaceCtx and gf2.SpaceCtx alike."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def ctx_and_graph_functions(source: str) -> list[str]:
    out = []
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            args = node.args
            kinds = {_annotation_name(a.annotation)
                     for a in args.posonlyargs + args.args + args.kwonlyargs}
            if {"SpaceCtx", "PencilGraph"} <= kinds:
                out.append(node.name)
    return out


def test_checker_finds_ctx_beside_graph():
    src = ("def both(ctx: SpaceCtx, g: PencilGraph): pass\n"
           "def dotted(g: graphbuild.PencilGraph, *, c: gf2.SpaceCtx): pass\n"
           "def graph(g: PencilGraph): pass\n"
           "def query(ctx: SpaceCtx, v: VTuple): pass\n"
           "def _private(ctx: SpaceCtx, g: PencilGraph): pass\n")
    assert ctx_and_graph_functions(src) == ["both", "dotted"]


def test_no_public_function_takes_ctx_beside_graph():
    found = []
    for module in sorted(os.listdir(SRC)):
        if module.endswith(".py"):
            with open(os.path.join(SRC, module)) as f:
                found += [f"{module}: {name}"
                          for name in ctx_and_graph_functions(f.read())]
    assert found == []


def unread_parameters(source: str) -> list[str]:
    """function.parameter for each parameter that its body never loads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs
                                      + [args.vararg, args.kwarg]) if a]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"{node.name}.{p}" for p in params
                    if p not in ("self", "cls") and p not in read]
    return out


def test_checker_finds_unread_parameters():
    src = ("def used(a, *args, b=1, **kw): return a, args, b, kw\n"
           "def unused(a, b, *args, c, **kw): return a\n"
           "def outer(x):\n"
           "    def inner(y): return x\n"
           "    return inner\n"
           "def stored(z): z = 1\n"
           "class C:\n"
           "    def method(self, v): return self\n"
           "    @classmethod\n"
           "    def make(cls): return 0\n")
    # outer's x counts as read: inner, nested in its body, loads it
    assert sorted(unread_parameters(src)) == [
        "inner.y", "method.v", "stored.z", "unused.args", "unused.b",
        "unused.c", "unused.kw"]


def test_every_parameter_is_read():
    found = []
    for module in sorted(os.listdir(SRC)):
        if module.endswith(".py"):
            with open(os.path.join(SRC, module)) as f:
                found += [f"{module}: {name}"
                          for name in unread_parameters(f.read())]
    assert found == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if _annotation_name(f) == "dataclass":
            return True
    return False


def unread_fields(defining: list[str], reading: list[str]) -> list[str]:
    """Class.field for each dataclass field in the defining sources that no
    reading source loads as an attribute; a class that reads
    ``self.__dict__`` serializes every field and is skipped."""
    read = {n.attr for source in reading for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = []
    for source in defining:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            if any(isinstance(n, ast.Attribute) and n.attr == "__dict__"
                   and isinstance(n.value, ast.Name) and n.value.id == "self"
                   for n in ast.walk(node)):
                continue
            out += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in read]
    return out


def test_checker_finds_unread_fields():
    src = ("@dataclass\n"
           "class Read:\n"
           "    a: int\n"
           "    b: int = 0\n"
           "    def total(self): return self.a\n"
           "@dataclasses.dataclass(frozen=True)\n"
           "class Dotted:\n"
           "    c: int\n"
           "    e: int\n"
           "@dataclass\n"
           "class Dumped:\n"
           "    d: int\n"
           "    def as_dict(self): return dict(self.__dict__)\n"
           "class Plain:\n"
           "    f: int\n"
           "x = Dotted(1, 2).c\n"
           "x.b = 3\n")
    # b is only stored, e never named; Dumped serializes its __dict__
    assert unread_fields([src], [src]) == ["Read.b", "Dotted.e"]


def test_every_dataclass_field_is_read():
    def sources(*trees):
        for tree in trees:
            for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, tree)):
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        with open(os.path.join(dirpath, name)) as f:
                            yield f.read()

    assert unread_fields(list(sources("src")),
                         list(sources("src", "scripts", "perfbench"))) == []
