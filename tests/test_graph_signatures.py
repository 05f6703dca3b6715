"""A function on a built graph takes the graph alone.

A built ``PencilGraph`` carries its case as ``g.ctx``, so a public function
that took a ``SpaceCtx`` beside the graph would hold two sources of (r, sigma)
that nothing checks against each other.  The pencil-level queries take
``(ctx, pencil)``, since a pencil does not carry its case.  The check reads
the parameter annotations of every public top-level function.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "pencilgraphs")


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
