"""Adjacency test, neighbor generation and graph construction.

Two pencils are adjacent iff they have equal slices through some hyperplane
not containing either initial entry; neighbor generation therefore walks the
m0 maximal-clique copies incident to a vertex instead of scanning pairs.

Within a copy, a pencil's entry i is the coset of its A0 that holds any
point of slice entry i, say its top point.  gf2.coset_table keeps one led
point table per A0, whose index 0 holds A0 and index p + 1 the coset of p;
the bit length of a slice entry is its top point + 1.  One itemgetter of
(0, bit lengths of the slice entries) therefore gathers a whole pencil from
its led table.  A second cache keeps, per (U0, h) flag, the 2s led tables
of the A0 = U0 | block whose block misses h, so a copy is one C-level map of
that itemgetter over them, with no Python step per member or per block.

The component BFS does not call neighbors(v) per vertex: it builds each
clique copy once, when its first member is expanded, takes each row as the
union of the vertex's m0 copies minus the vertex itself, and keeps every
copy, with its member ids, on the graph for decomp.

Each component is one GL(r,2)-orbit, and relabelling the entry positions of
every pencil commutes with GL(r,2) and preserves adjacency, so the full graph
is (2^rho - 1)!/|GL(rho,2)| relabelled copies of the base component; it is
built that way, with no BFS of its own.  It keeps no clique copies, since
no verb reads them: report reads only its component ids.

A built graph also keeps a private, lazily built label-row index for
linear_vperm.  A pencil's A0 and its m1 cosets partition the points, so
vertex i is one row of 2^r bytes whose byte x is the entry position that
holds point x (0 for A0).  A point table T with an entry permutation psi
sends row L to psi[L[T^-1]]: over the n rows stored as one bytes object,
that is 2^r strided column copies and one translate, and each image row
finds its vertex id with one dict lookup.  The rows are derived; the mask
tuple stays the only public form of a pencil.

It keeps a second private, lazily built index, its clique copies as a copy
family: one itemgetter of the copies' members in turn, the copy size 2s and
the set of copies, each a sorted id tuple.  permutes_copies gathers the
members' images under a vertex permutation, cuts them into copies and sorts
each, all at C level, and looks every image up in the set.  The index is
built only after row_faults finds that every row lists, each once, the other
members of the vertex's copies, the rule build_component builds rows by;
decomp.verify_decomposition checks both copy families, and config the
Menger rows, with the same routine.  Every edge then lies in a copy and
every copy is a clique, so a permutation that maps each copy onto a copy
maps edges onto edges: it is an automorphism.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, permutations
from operator import itemgetter

from pencilgraphs import gf2, pencil
from pencilgraphs.gf2 import SpaceCtx
from pencilgraphs.pencil import VTuple


class BuildError(RuntimeError):
    pass


class CapError(BuildError):
    """A build refused because it would pass the vertex cap."""


class MapError(ValueError):
    """A point table or entry permutation that linear_vperm cannot apply."""


class VertexIdError(IndexError):
    """A vertex id that is not an int in 0..n-1 of the graph."""


DEFAULT_CAP = 1 << 20

# (one itemgetter of every copy's members in turn, copy size, set of
# copies), each copy a sorted tuple of vertex ids
CopyFamily = tuple[itemgetter, int, frozenset]


def copy_family(copies, size: int) -> CopyFamily:
    """The copies, sorted tuples of size vertex ids each, as a CopyFamily."""
    copies = list(copies)
    # the gather has at least two indices, so it returns a tuple
    if size < 2 or not copies or any(len(c) != size for c in copies):
        raise BuildError(f"not a family of copies of {size} >= 2 members")
    return itemgetter(*chain.from_iterable(copies)), size, frozenset(copies)


def held_by(n: int, groups) -> list[list]:
    """For each of n vertices, the members of each (holders, members) group
    whose holders include it, one entry per group."""
    held: list[list] = [[] for _ in range(n)]
    for holders, members in groups:
        for i in holders:
            held[i].append(members)
    return held


def row_faults(row: list[int], i: int, groups
               ) -> tuple[list[int], list[int], int] | None:
    """None when the sorted row of vertex i lists, each once, the members
    of groups other than i; else those members that are not on the row and
    those counted more than once, each sorted, and the number of distinct
    members other than i."""
    others = sorted(chain.from_iterable(groups))
    del others[bisect_left(others, i):bisect_right(others, i)]
    if others == row:
        return None
    distinct = set(others)
    return (sorted(distinct.difference(row)),
            sorted({a for a, b in zip(others, others[1:]) if a == b}),
            len(distinct))


def adjacent(ctx: SpaceCtx, v: VTuple, w: VTuple):
    """Return the mask of the hyperplane U(v, w) if v ~ w, else None.

    Checks the three edge conditions literally; condition 3, "U is a
    hyperplane", is membership in gf2.hyperplane_set and is evaluated even
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
    if u not in gf2.hyperplane_set(ctx.r):
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
        out.append((h, tuple(map(h.__and__, v))))
    if len(out) != ctx.m0:
        raise BuildError(f"{len(out)} clique copies at a vertex, expected {ctx.m0}")
    return out


@lru_cache(maxsize=None)
def _copy_tables(r: int, u0_mask: int, h: int) -> tuple[tuple[int, ...], ...]:
    """The led tables of the A0 = U0 | block whose block misses h, in block
    order; U0 lies in h, so each coset of U0 is inside h or disjoint from it."""
    return tuple(gf2.coset_table(r, u0_mask | blk)[1]
                 for blk in gf2.coset_table(r, u0_mask)[0] if not blk & h)


def clique_copy_vertices(ctx: SpaceCtx, h: int, sl: VTuple) -> list[VTuple]:
    """All 2s pencils whose slice through hyperplane h equals sl."""
    tables = _copy_tables(ctx.r, sl[0], h)
    if len(tables) != 2 * ctx.s:
        raise BuildError(f"{len(tables)} pencils on a slice, "
                         f"expected {2 * ctx.s}")
    # bit_length of a slice entry is its top point + 1, the led-table index
    # of that point's coset; 1 + m1 >= 4 indices, so itemgetter returns a
    # tuple, never one item
    return list(map(itemgetter(0, *map(int.bit_length, sl[1:])), tables))


def neighbors(ctx: SpaceCtx, v: VTuple) -> list[VTuple]:
    """The s(t-1)m1 neighbors of v, in deterministic copy-then-vertex order.

    Raises PencilError unless v is a well-formed pencil of ctx.
    """
    pencil.validate(ctx, v)
    out = []
    for h, sl in clique_slices(ctx, v):
        copy = clique_copy_vertices(ctx, h, sl)
        try:
            copy.remove(v)
        except ValueError:
            raise BuildError(f"{pencil.display(v)} is missing from its clique "
                             f"copy through {gf2.mask_str(h)}") from None
        out += copy
    return out


@dataclass
class PencilGraph:
    """A built graph: indexed vertices plus flat constant-degree adjacency."""

    ctx: SpaceCtx
    vertices: list[VTuple]
    index: dict[VTuple, int]
    adj: array  # flat, stride = degree
    # key (h,) + slice -> sorted ids of the copy's 2s members; a full
    # graph keeps none
    clique_copies: dict[tuple, tuple[int, ...]] = field(repr=False)
    component_id: array | None = None
    n_components: int = 1
    # indexes derived from the fields above, each built by its first use:
    # nbr_mask, linear_vperm (label rows, row -> vertex id), clique_family
    # and decomp.enumerate_turan_copies ((Turan copies, incidence)); none is
    # an init field, so dataclasses.replace starts each afresh
    _nbr_masks: list[int] | None = field(
        default=None, init=False, repr=False, compare=False)
    _label_rows: tuple[bytes, dict[bytes, int]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _clique_family: CopyFamily | None = field(
        default=None, init=False, repr=False, compare=False)
    _turan_copy_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.ctx.degree

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
        """Whether j is on the sorted row of i.  Raises VertexIdError unless
        both ids are ints in 0..n-1."""
        n = len(self.vertices)
        if (type(i) is not int or type(j) is not int
                or not (0 <= i < n and 0 <= j < n)):
            raise VertexIdError(f"vertex ids {i!r}, {j!r} are not both "
                                f"ints in 0..{n - 1}")
        lo = i * self.degree
        hi = lo + self.degree
        k = bisect_left(self.adj, j, lo, hi)
        return k < hi and self.adj[k] == j

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

    def _split(self, buf: bytes):
        """buf cut into rows of 2^r bytes, one per vertex, in vertex order."""
        w = 1 << self.ctx.r
        return map(buf.__getitem__, map(slice, range(0, len(buf), w),
                                        range(w, len(buf) + w, w)))

    def _label_index(self) -> tuple[bytes, dict[bytes, int]]:
        """The label rows, one bytes of n * 2^r, and row -> vertex id."""
        if self._label_rows is None:
            w = 1 << self.ctx.r
            rows = bytearray(len(self.vertices) * w)
            for off, v in zip(range(0, len(rows), w), self.vertices):
                for k, m in enumerate(v):
                    for x in gf2.points_of(m):
                        rows[off + x] = k
            rows = bytes(rows)
            self._label_rows = rows, dict(zip(self._split(rows),
                                              range(len(self.vertices))))
        return self._label_rows

    def linear_vperm(self, table, psi) -> tuple[int, ...] | None:
        """The vertex permutation of "apply the point table to every entry,
        then send entry k to position psi[k]", or None when an image is not
        a vertex of the graph.

        Equals vperm_of(lambda v: autnr.apply_point_map(ctx, table, psi, v)).
        psi[0] is not read.  Raises MapError unless table is a permutation of
        0..2^r-1 that fixes 0 and psi[1:] is a permutation of 1..m1.
        """
        w, m1 = 1 << self.ctx.r, self.ctx.m1
        try:
            t, p = bytes(table), bytes(psi)
        except (TypeError, ValueError):
            raise MapError("point table and entry permutation must be "
                           "sequences of small ints") from None
        if len(t) != w or t[0] != 0 or sorted(t) != list(range(w)):
            raise MapError(f"point table is not a permutation of 0..{w - 1} "
                           "fixing 0")
        if len(p) != m1 + 1 or sorted(p[1:]) != list(range(1, m1 + 1)):
            raise MapError(f"entry permutation is not a permutation of "
                           f"1..{m1}")
        rows, ids = self._label_index()
        # image row = psi[row[T^-1]]: column T[x] of the image is column x
        img = bytearray(len(rows))
        for x, y in enumerate(t):
            img[y::w] = rows[x::w]
        img = bytes(img).translate(bytes(1) + p[1:] + bytes(255 - m1))
        vperm = tuple(map(ids.get, self._split(img)))
        return None if None in vperm else vperm

    def clique_family(self) -> CopyFamily:
        """The clique copies as a CopyFamily.  Raises BuildError unless each
        row lists, each once, the members other than the vertex of the
        copies that hold it."""
        if self._clique_family is None:
            copies = self.clique_copies.values()
            held = held_by(len(self.vertices), zip(copies, copies))
            for i, cs in enumerate(held):
                if row_faults(self.neighbors_of(i).tolist(), i,
                              cs) is not None:
                    raise BuildError(f"row {i} is not the other members of "
                                     f"its clique copies")
            self._clique_family = copy_family(self.clique_copies.values(),
                                              2 * self.ctx.s)
        return self._clique_family

    def permutes_copies(self, vperm, family: CopyFamily | None = None
                        ) -> bool:
        """Whether vperm is a permutation of the vertices that maps every
        copy of family, by default the clique copies, onto a copy of it."""
        n = len(self.vertices)
        if len(vperm) != n or set(vperm) != set(range(n)):
            return False
        gather, size, copies = family or self.clique_family()
        images = iter(gather(vperm))
        return copies.issuperset(map(tuple, map(sorted,
                                                zip(*[images] * size))))

    def vertex_display(self, i: int) -> str:
        return pencil.display(self.vertices[i])


def build_component(ctx: SpaceCtx, cap: int = DEFAULT_CAP) -> PencilGraph:
    """Deterministic BFS closure of the base vertex; vertex 0 is the base.

    A vertex's row is the union of its m0 clique copies minus itself.  The
    first of a copy's 2s members to be expanded builds it and gives its new
    members ids, in the copy-then-vertex order of neighbors(v); the copy then
    stays open, keyed by (h,) + slice, until all 2s members are expanded, and
    is kept, with its sorted ids, in clique_copies.  Numbering and rows are
    those of a BFS that calls neighbors(v) per vertex.
    """
    predicted = pencil.component_order(ctx)
    if predicted > cap:
        raise CapError(
            f"predicted component order {predicted} exceeds cap {cap}"
        )
    size = 2 * ctx.s
    base = pencil.base_vertex_tuple(ctx)
    vertices = [base]
    index = {base: 0}
    adj_rows: list[array | None] = [None]
    open_copies: dict[tuple, list] = {}  # key -> [member ids, expansions]
    copies: dict[tuple, tuple[int, ...]] = {}
    frontier = [base]
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
                            next_frontier.append(w)
                        ids.append(j)
                    copy = open_copies[key] = [ids, 0]
                copy[1] += 1
                if copy[1] == size:
                    del open_copies[key]
                    copies[key] = tuple(sorted(copy[0]))
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
    flat = array("i")
    for row in adj_rows:
        flat.extend(row)
    return PencilGraph(ctx, vertices, index, flat, copies)


def build_full(ctx: SpaceCtx, cap: int = DEFAULT_CAP) -> PencilGraph:
    """All pencils: the base component relabelled by entry permutations.

    Relabelling the entry positions of every pencil by one permutation pi
    preserves adjacency, so pi maps the base component onto a component.
    The permutations are walked in itertools order, and each pi that sends
    the base vertex to a new pencil appends one copy: the base vertices
    relabelled, in base order, with the base rows and ids shifted by the
    copy's offset.  No verb reads a full graph's clique copies, so none are
    kept: clique_copies is {}, and clique_family() raises BuildError.
    """
    total = pencil.total_pencil_count(ctx)
    if total > cap:
        raise CapError(f"full graph order {total} exceeds cap {cap}")
    base = component(ctx.r, ctx.sigma, cap)
    n = len(base)
    v0 = base.vertices[0]
    vertices: list[VTuple] = []
    index: dict[VTuple, int] = {}
    adj = array("i")
    comp = array("i")
    for perm in permutations(range(1, ctx.m1 + 1)):
        pick = itemgetter(*perm)
        if (v0[0],) + pick(v0) in index:
            continue
        off = len(vertices)
        vertices += [(v[0],) + pick(v) for v in base.vertices]
        index.update(zip(vertices[off:], range(off, off + n)))
        adj.extend(map(off.__add__, base.adj))
        comp.extend(array("i", [off // n]) * n)
    if not len(vertices) == len(index) == total:
        raise BuildError(f"relabelled copies hold {len(vertices)} pencils, "
                         f"{len(index)} distinct, expected {total}")
    return PencilGraph(ctx, vertices, index, adj, {}, component_id=comp,
                       n_components=len(vertices) // n)


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


# lru_cache keys a call by its spelling, so component(r, s) and
# component(r, s, DEFAULT_CAP) are two entries; both public caches resolve
# through a private one keyed by all three values, so each graph is built
# once per process and held once, however cap is passed.
@lru_cache(maxsize=8)
def _component(r: int, sigma: int, cap: int) -> PencilGraph:
    return build_component(SpaceCtx(r, sigma), cap)


@lru_cache(maxsize=4)
def _full_graph(r: int, sigma: int, cap: int) -> PencilGraph:
    return build_full(SpaceCtx(r, sigma), cap)


@lru_cache(maxsize=8)
def component(r: int, sigma: int, cap: int = DEFAULT_CAP) -> PencilGraph:
    """Cached component build (graphs are immutable once built)."""
    return _component(r, sigma, cap)


@lru_cache(maxsize=4)
def full_graph(r: int, sigma: int, cap: int = DEFAULT_CAP) -> PencilGraph:
    return _full_graph(r, sigma, cap)
