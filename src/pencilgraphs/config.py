"""Incidence configurations from the clique copies: Menger and Levi graphs.

Points are the graph vertices, lines the maximal-clique copies.  The Menger
graph must reproduce the source graph edge for edge; for sigma = 1 the
configuration is square and a color-swapping Levi automorphism (a duality)
is searched for directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from pencilgraphs import decomp, homog
from pencilgraphs.gf2 import SpaceCtx
from pencilgraphs.graphbuild import PencilGraph


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

    def check_balance(self) -> bool:
        m, c, n, d = self.params
        if c * m != d * n:
            return False
        count = [0] * self.n_points
        for ln in self.lines:
            if len(ln) != d:
                return False
            for p in ln:
                count[p] += 1
        return all(x == c for x in count)


def build_config(ctx: SpaceCtx, g: PencilGraph) -> IncidenceStructure:
    copies, incidence = decomp.enumerate_clique_copies(ctx, g)
    lines = sorted(copies.values())
    c = incidence[0]
    if any(x != c for x in incidence):
        raise ConfigError("point degrees differ")
    return IncidenceStructure(len(g.vertices), lines, c, 2 * ctx.s)


def menger_edges(cfg: IncidenceStructure) -> set[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    for ln in cfg.lines:
        for i in range(len(ln)):
            for j in range(i + 1, len(ln)):
                out.add((ln[i], ln[j]))
    return out


def menger_equals_graph(cfg: IncidenceStructure, g: PencilGraph) -> bool:
    edges = {(i, j) for i, j in g.edges()}
    return menger_edges(cfg) == edges


@dataclass
class LeviGraph:
    """Bipartite incidence graph; black = points, white = lines."""

    n_black: int
    n_white: int
    adj: list[int] = field(repr=False)  # bitmasks over combined indexing

    def __len__(self) -> int:
        return self.n_black + self.n_white

    def color(self, x: int) -> int:
        return 0 if x < self.n_black else 1

    def degree(self, x: int) -> int:
        return self.adj[x].bit_count()


def levi_graph(cfg: IncidenceStructure) -> LeviGraph:
    nb, nw = cfg.n_points, len(cfg.lines)
    adj = [0] * (nb + nw)
    for li, ln in enumerate(cfg.lines):
        if not ln:
            raise ConfigError("empty line")
        w = nb + li
        for p in ln:
            adj[p] |= 1 << w
            adj[w] |= 1 << p
    return LeviGraph(nb, nw, adj)


REFINE_ROUNDS = 4  # colour-refinement passes before the duality search


def _refine_colors(lv: LeviGraph, colors: list[int]):
    for _ in range(REFINE_ROUNDS):
        sig = []
        for x in range(len(lv)):
            m = lv.adj[x]
            nb = []
            while m:
                low = m & -m
                m ^= low
                nb.append(colors[low.bit_length() - 1])
            nb.sort()
            sig.append((colors[x], tuple(nb)))
        relab = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [relab[s] for s in sig]
        if new == colors:
            break
        colors = new
    return colors


DUALITY_NODE_CAP = 5_000_000


def self_duality_map(cfg: IncidenceStructure):
    """A Levi-graph automorphism exchanging the color classes, or None.

    Only defined for square configurations (m = n and c = d); returns the
    combined permutation of the Levi graph when found.  The search is
    :func:`homog._backtrack` on color-swapping candidates.
    """
    m, c, n, d = cfg.params
    if m != n or c != d:
        return None
    lv = levi_graph(cfg)
    size = len(lv)
    # swap-color refinement: colors must be color-blind, so start uniform
    colors = _refine_colors(lv, [0] * size)
    classes: dict[int, int] = {}
    for x in range(size):
        classes.setdefault(colors[x], 0)
        classes[colors[x]] |= 1 << x

    black_mask = (1 << lv.n_black) - 1
    white_mask = ((1 << size) - 1) ^ black_mask
    cand = [
        (classes[colors[x]] & (white_mask if x < lv.n_black else black_mask))
        for x in range(size)
    ]
    try:
        dual, _ = homog._backtrack(lv.adj, cand, {}, DUALITY_NODE_CAP)
    except homog.HomogError:
        raise ConfigError("duality search exceeded node cap") from None
    return dual


def dual_menger_isomorphic(cfg: IncidenceStructure, g: PencilGraph,
                           duality: list[int]) -> bool:
    """The duality relabeling carries the dual Menger graph onto g."""
    nb = cfg.n_points
    # dual Menger: vertices = lines, edges = lines sharing a point
    point_lines: list[list[int]] = [[] for _ in range(nb)]
    for li, ln in enumerate(cfg.lines):
        for p in ln:
            point_lines[p].append(li)
    dual_edges = set()
    for lns in point_lines:
        for i in range(len(lns)):
            for j in range(i + 1, len(lns)):
                a, b = lns[i], lns[j]
                dual_edges.add((min(a, b), max(a, b)))
    # map line li to the point duality[nb + li]
    mapped = set()
    for a, b in dual_edges:
        x, y = duality[nb + a], duality[nb + b]
        mapped.add((min(x, y), max(x, y)))
    return mapped == {(i, j) for i, j in g.edges()}
