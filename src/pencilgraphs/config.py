"""Incidence configurations from the clique copies: Menger and Levi graphs.

Points are the graph vertices, lines the maximal-clique copies.  Every check
reads one incidence form: the sorted ``lines``, and ``through``, the
ascending indices of the lines through each point.  A point's adjacency
row must list, each once, the other points of its lines, its Menger row;
``graphbuild.row_faults`` checks it one point at a time, so no edge set is
built.  The lines are the BFS's own clique copies, whose unions the BFS
took as the rows: the Menger check re-reads the build.  The graph's independent tie to the paper's edge rule
is ``graphbuild.adjacent`` (see "Check the graph against the literal edge
rule" in ROADMAP.md).  For sigma = 1 the configuration is square; a duality
is searched for on the Levi graph's rows, read from ``through`` and
``lines`` by the extension search of ``homog``, and the dual Menger check
compares the rows of the dual lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from pencilgraphs import decomp, homog
from pencilgraphs.graphbuild import PencilGraph, held_by, row_faults


class ConfigError(RuntimeError):
    pass


@dataclass
class IncidenceStructure:
    n_points: int
    lines: list[tuple[int, ...]]  # sorted point tuples
    lines_per_point: int
    points_per_line: int

    @property
    def params(self) -> tuple[int, int, int, int]:
        return (self.n_points, self.lines_per_point,
                len(self.lines), self.points_per_line)

    @cached_property
    def through(self) -> list[list[int]]:
        """The ascending indices of the lines through each point."""
        return held_by(self.n_points, zip(self.lines, range(len(self.lines))))

    def check_balance(self) -> bool:
        m, c, n, d = self.params
        return (c * m == d * n
                and all(len(ln) == d for ln in self.lines)
                and all(len(lns) == c for lns in self.through))


def build_config(g: PencilGraph) -> IncidenceStructure:
    copies, incidence = decomp.enumerate_clique_copies(g)
    lines = sorted(copies.values())
    c = incidence[0]
    if any(x != c for x in incidence):
        raise ConfigError("point degrees differ")
    return IncidenceStructure(len(g.vertices), lines, c, 2 * g.ctx.s)


def _rows_match(g: PencilGraph, lines, through) -> bool:
    """Each vertex x's row of g lists, each once, the other members of the
    lines through x (``lines[k] for k in through[x]``)."""
    return len(through) == len(g) and all(
        row_faults(list(g.neighbors_of(x)), x,
                   map(lines.__getitem__, lns)) is None
        for x, lns in enumerate(through))


def menger_equals_graph(cfg: IncidenceStructure, g: PencilGraph) -> bool:
    return _rows_match(g, cfg.lines, cfg.through)


REFINE_ROUNDS = 4  # colour-refinement passes before the duality search


def _refine_colors(cfg: IncidenceStructure, colors: list[int]):
    nb = cfg.n_points
    for _ in range(REFINE_ROUNDS):
        line_colors = colors[nb:]
        sig = [(colors[p], tuple(sorted(line_colors[li] for li in lns)))
               for p, lns in enumerate(cfg.through)]
        sig += [(line_colors[li], tuple(sorted(colors[p] for p in ln)))
                for li, ln in enumerate(cfg.lines)]
        relab = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [relab[s] for s in sig]
        if new == colors:
            break
        colors = new
    return colors


DUALITY_NODE_CAP = 5_000_000
SELF_DUAL_VERTEX_CAP = 1000  # larger graphs search only under --enable-heavy


def self_duality_map(cfg: IncidenceStructure):
    """A Levi-graph automorphism exchanging points and lines, or None.

    Only defined for square configurations (m = n and c = d); returns the
    combined permutation of the Levi graph, points 0..nb-1 then line li as
    nb + li, when found.  The search is :func:`homog._backtrack` on the
    rows ``through`` (offset by nb) and ``lines``, each vertex sent to one
    of the same refined colour on the other side.
    """
    m, c, n, d = cfg.params
    if m != n or c != d:
        return None
    nb = cfg.n_points
    rows = [[nb + li for li in lns] for lns in cfg.through] + cfg.lines
    # swap-color refinement: colors must be color-blind, so start uniform
    colors = _refine_colors(cfg, [0] * len(rows))
    # x may go to y when they share a colour and lie on opposite sides
    dom = [(col, x < nb) for x, col in enumerate(colors)]
    img = [(col, x >= nb) for x, col in enumerate(colors)]
    try:
        dual, _ = homog._backtrack(rows.__getitem__, dom, img, {},
                                   DUALITY_NODE_CAP)
    except homog.HomogError:
        raise ConfigError("duality search exceeded node cap") from None
    return dual


def dual_menger_isomorphic(cfg: IncidenceStructure, g: PencilGraph,
                           duality: list[int]) -> bool:
    """The duality relabeling carries the dual Menger graph, lines joined
    through a common point, onto g.  Line li is relabelled as the point
    duality[nb + li]; a duality not one-to-one onto the points gives False.
    """
    nb = cfg.n_points
    image = duality[nb:]
    if sorted(image) != list(range(nb)):
        return False
    line_at = sorted(range(nb), key=image.__getitem__)  # inverse of image
    dual_lines = [[image[li] for li in lns] for lns in cfg.through]
    return _rows_match(g, dual_lines, [cfg.lines[li] for li in line_at])
