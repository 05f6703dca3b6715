"""Adjacency test, neighbor generation and graph construction.

Two pencils are adjacent iff they have equal slices through some hyperplane
not containing either initial entry; neighbor generation therefore walks the
m0 maximal-clique copies incident to a vertex instead of scanning pairs.

Within a copy, a pencil's entry i is the coset of its A0 that holds the least
point of slice entry i.  Those least points do not depend on the block that
extends U0 to A0, so they are found once per copy, and each of the 2s pencils
is one itemgetter gather from its A0's point-to-coset table.

The BFS build does not call neighbors(v) per vertex: it builds each clique
copy once, when its first member is expanded, keeps the copy's vertex ids
until all 2s members have been expanded, and takes each row as the union of
the vertex's m0 copies minus the vertex itself.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from pencilgraphs import gf2, pencil
from pencilgraphs.gf2 import SpaceCtx
from pencilgraphs.pencil import VTuple


class BuildError(RuntimeError):
    pass


class CapError(BuildError):
    """A build refused because it would pass the vertex cap."""


DEFAULT_CAP = 1 << 20


def adjacent(ctx: SpaceCtx, v: VTuple, w: VTuple):
    """Return the mask of the hyperplane U(v, w) if v ~ w, else None.

    Checks the three edge conditions literally; condition 3 is evaluated even
    where it is implied by the first two (rho = 2), as a cross-check.
    Raises PencilError unless v and w are well-formed pencils of ctx.
    """
    pencil.validate(ctx, v)
    pencil.validate(ctx, w)
    half = 1 << (ctx.sigma - 1)
    inter = v[0] & w[0]
    if inter.bit_count() != half - 1:
        return None
    if v[0] == w[0]:
        return None
    u = inter
    for i in range(1, ctx.m1 + 1):
        m = v[i] & w[i]
        if m.bit_count() != half:
            return None
        if m != gf2.coset_mask(inter, gf2.min_point(m)):
            return None
        u |= m
    if u.bit_count() != (1 << (ctx.r - 1)) - 1 or not gf2.is_xor_closed(u):
        return None
    return u


@lru_cache(maxsize=64)
def _copy_dual_points(r: int, a0_mask: int) -> tuple[int, ...]:
    """Dual points y whose hyperplane does not contain a0 (one per clique copy)."""
    hp = gf2.hyperplane_masks(r)
    return tuple(
        y for y in range(1, 1 << r) if hp[y - 1] & a0_mask != a0_mask
    )


def clique_slices(ctx: SpaceCtx, v: VTuple) -> list[tuple[int, VTuple]]:
    """The m0 clique-copy slices at v: (hyperplane mask, sliced pencil)."""
    hp = gf2.hyperplane_masks(ctx.r)
    out = []
    for y in _copy_dual_points(ctx.r, v[0]):
        h = hp[y - 1]
        out.append((h, tuple(m & h for m in v)))
    if len(out) != ctx.m0:
        raise BuildError(f"{len(out)} clique copies at a vertex, expected {ctx.m0}")
    return out


def clique_copy_vertices(ctx: SpaceCtx, h: int, sl: VTuple) -> list[VTuple]:
    """All 2s pencils whose slice through hyperplane h equals sl."""
    u0 = sl[0]
    # m1 >= 3 slice entries, so itemgetter returns a tuple, never one item
    pick = itemgetter(*map(gf2.min_point, sl[1:]))
    out = []
    # U0 lies in h, so each coset of U0 is inside h or disjoint from it
    for blk in gf2.coset_table(ctx.r, u0)[0]:
        if blk & h:
            continue
        a0 = u0 | blk
        out.append((a0,) + pick(gf2.coset_table(ctx.r, a0)[1]))
    if len(out) != 2 * ctx.s:
        raise BuildError(f"{len(out)} pencils on a slice, expected {2 * ctx.s}")
    return out


def neighbors(ctx: SpaceCtx, v: VTuple) -> list[VTuple]:
    """The s(t-1)m1 neighbors of v, in deterministic copy-then-vertex order.

    Raises PencilError unless v is a well-formed pencil of ctx.
    """
    pencil.validate(ctx, v)
    out = []
    for h, sl in clique_slices(ctx, v):
        for w in clique_copy_vertices(ctx, h, sl):
            if w != v:
                out.append(w)
    return out


@dataclass
class PencilGraph:
    """A built graph: indexed vertices plus flat constant-degree adjacency."""

    ctx: SpaceCtx
    vertices: list[VTuple]
    index: dict[VTuple, int]
    adj: array  # flat, stride = degree
    degree: int
    is_component: bool
    component_id: array | None = None
    n_components: int = 1
    _nbr_masks: list[int] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.vertices)

    def neighbors_of(self, i: int) -> array:
        d = self.degree
        return self.adj[i * d : (i + 1) * d]

    def edge_count(self) -> int:
        return len(self.vertices) * self.degree // 2

    def edges(self):
        d = self.degree
        for i in range(len(self.vertices)):
            for j in self.adj[i * d : (i + 1) * d]:
                if i < j:
                    yield i, j

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.nbr_mask(i) >> j & 1)

    def nbr_mask(self, i: int) -> int:
        if self._nbr_masks is None:
            d = self.degree
            masks = []
            for k in range(len(self.vertices)):
                m = 0
                for j in self.adj[k * d : (k + 1) * d]:
                    m |= 1 << j
                masks.append(m)
            self._nbr_masks = masks
        return self._nbr_masks[i]

    def vperm_of(self, image) -> tuple[int, ...] | None:
        """The vertex permutation v -> image(v), or None when an image is
        not a vertex of the graph.  Injectivity is not checked."""
        index = self.index
        out = []
        for v in self.vertices:
            j = index.get(image(v))
            if j is None:
                return None
            out.append(j)
        return tuple(out)

    def vertex_display(self, i: int) -> str:
        return pencil.display(self.vertices[i])


def _bfs_close(ctx: SpaceCtx, seeds: list[VTuple], cap: int,
               vertices: list[VTuple], index: dict[VTuple, int],
               adj_rows: list[array]) -> list[int]:
    """Deterministic BFS closure; returns the new vertex indices.

    A vertex's row is the union of its m0 clique copies minus itself.  The
    first of a copy's 2s members to be expanded builds it and gives its new
    members ids, in the copy-then-vertex order of neighbors(v); the copy then
    stays open, keyed by (h,) + slice, until all 2s members are expanded.
    Numbering and rows are those of a BFS that calls neighbors(v) per vertex.
    """
    size = 2 * ctx.s
    open_copies: dict[tuple, list] = {}  # key -> [member ids, expansions]
    new_ids = []
    frontier = []
    for s in seeds:
        if s not in index:
            index[s] = len(vertices)
            vertices.append(s)
            adj_rows.append(None)
            new_ids.append(index[s])
            frontier.append(s)
    while frontier:
        frontier.sort(key=pencil.encode_tuple)
        next_frontier = []
        for v in frontier:
            i = index[v]
            row = []
            for h, sl in clique_slices(ctx, v):
                key = (h,) + sl
                copy = open_copies.get(key)
                if copy is None:
                    ids = []
                    for w in clique_copy_vertices(ctx, h, sl):
                        j = index.get(w)
                        if j is None:
                            if len(vertices) >= cap:
                                raise CapError(
                                    f"vertex cap {cap} exceeded; raise --cap-vertices"
                                )
                            j = len(vertices)
                            index[w] = j
                            vertices.append(w)
                            adj_rows.append(None)
                            new_ids.append(j)
                            next_frontier.append(w)
                        ids.append(j)
                    copy = open_copies[key] = [ids, 0]
                copy[1] += 1
                if copy[1] == size:
                    del open_copies[key]
                row += copy[0]
            row.sort()
            lo, hi = bisect_left(row, i), bisect_right(row, i)
            if hi - lo != ctx.m0:
                raise BuildError(f"vertex {i} occurs {hi - lo} times in its "
                                 f"clique copies, expected {ctx.m0}")
            del row[lo:hi]
            adj_rows[i] = array("i", row)
        frontier = next_frontier
    if open_copies:
        raise BuildError(
            f"{len(open_copies)} clique copies not closed by {size} expansions"
        )
    return new_ids


def build_component(ctx: SpaceCtx, cap: int = DEFAULT_CAP) -> PencilGraph:
    """BFS closure of the base vertex under adjacency; vertex 0 is the base."""
    predicted = pencil.component_order(ctx)
    if predicted > cap:
        raise CapError(
            f"predicted component order {predicted} exceeds cap {cap}"
        )
    vertices: list[VTuple] = []
    index: dict[VTuple, int] = {}
    adj_rows: list[array] = []
    _bfs_close(ctx, [pencil.base_vertex_tuple(ctx)], cap, vertices, index, adj_rows)
    flat = array("i")
    for row in adj_rows:
        flat.extend(row)
    return PencilGraph(ctx, vertices, index, flat, ctx.degree, True)


def build_full(ctx: SpaceCtx, cap: int = DEFAULT_CAP) -> PencilGraph:
    """All pencils over every A0, with per-component BFS; reports components."""
    total = pencil.total_pencil_count(ctx)
    if total > cap:
        raise CapError(f"full graph order {total} exceeds cap {cap}")
    vertices: list[VTuple] = []
    index: dict[VTuple, int] = {}
    adj_rows: list[array] = []
    comp_of: dict[int, int] = {}
    n_comp = 0
    for a0 in gf2.subspace_masks(ctx.r, ctx.sigma):
        for seed in pencil.tuples_through(ctx, a0):
            if seed in index:
                continue
            new_ids = _bfs_close(ctx, [seed], cap, vertices, index, adj_rows)
            for i in new_ids:
                comp_of[i] = n_comp
            n_comp += 1
    if len(vertices) != total:
        raise BuildError(f"full graph has {len(vertices)} pencils, expected {total}")
    flat = array("i")
    for row in adj_rows:
        flat.extend(row)
    comp = array("i", (comp_of[i] for i in range(len(vertices))))
    return PencilGraph(ctx, vertices, index, flat, ctx.degree, False,
                       component_id=comp, n_components=n_comp)


def component_sizes(g: PencilGraph) -> list[int]:
    if g.component_id is None:
        return [len(g)]
    sizes = [0] * g.n_components
    for c in g.component_id:
        sizes[c] += 1
    return sizes


def bfs_metrics(g: PencilGraph, source: int) -> tuple[array, int]:
    """Distances from source and the source's eccentricity."""
    dist = array("i", [-1]) * len(g.vertices)
    dist[source] = 0
    frontier = [source]
    d = g.degree
    ecc = 0
    while frontier:
        nxt = []
        for i in frontier:
            base = i * d
            for k in range(base, base + d):
                j = g.adj[k]
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        if nxt:
            ecc += 1
        frontier = nxt
    return dist, ecc


def diameter(g: PencilGraph, assume_vertex_transitive: bool = False) -> int:
    """Max eccentricity; single-source when vertex-transitivity is asserted."""
    dist, ecc = bfs_metrics(g, 0)
    if min(dist) < 0:
        raise BuildError("diameter of a disconnected graph")
    if assume_vertex_transitive:
        return ecc
    best = ecc
    for src in range(1, len(g.vertices)):
        _, e = bfs_metrics(g, src)
        best = max(best, e)
    return best


@lru_cache(maxsize=8)
def component(r: int, sigma: int, cap: int = DEFAULT_CAP) -> PencilGraph:
    """Cached component build (graphs are immutable once built)."""
    return build_component(SpaceCtx(r, sigma), cap)


@lru_cache(maxsize=4)
def full_graph(r: int, sigma: int, cap: int = DEFAULT_CAP) -> PencilGraph:
    return build_full(SpaceCtx(r, sigma), cap)
