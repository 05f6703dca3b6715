"""Maximal-clique and maximal-Turan copy families and the double decomposition.

Every edge lies in exactly one copy of each family; a clique copy is a
hyperplane slice shared by its 2s vertices, and a Turan copy is anchored by
any of its vertices via the pivot-orbit construction of its parts.

Each Turan copy is found once.  A copy spans a (sigma+1)-subspace W: its t
parts are labelled by the t sigma-subspaces of W, so the vertex set fixes W.
A vertex x lies in at most one copy of a given W, the one anchored at
(x, i) for the entry i of x inside W.  So the pairs (vertex, W) are claims:
a newly found copy claims (x, W) for each of its s*t members, an anchor
whose pair is already claimed is skipped, and a second claim on a pair means
two different copies through one anchor and raises.  The first anchor of a
copy in vertex-then-entry order is never skipped, so the copies come out in
the same order, with the same parts, as from the all-anchor walk.

The edge-cover check names the edge (x, y) by the slot of y in x's sorted
adjacency row, and keeps one array of copy indices per slot and family.
It does not count how often each pair of vertices lies in a clique copy:
two clique copies sharing a pair either cover the edge twice or contain a
non-edge, and the cover pass already reports both.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from pencilgraphs import gf2, graphbuild, hrho, pencil
from pencilgraphs.gf2 import SpaceCtx
from pencilgraphs.graphbuild import PencilGraph
from pencilgraphs.pencil import VTuple


class DecompError(RuntimeError):
    pass


@dataclass(frozen=True)
class CliqueCopyId:
    """An (r-1, sigma-1)-ordered pencil of a hyperplane: U0 plus blocks."""

    hyperplane: int
    u0: int
    blocks: tuple[int, ...]

    def display(self) -> str:
        parts = [gf2.mask_str(self.u0) if self.u0 else "∅"]
        parts += [gf2.mask_str(b) for b in self.blocks]
        return "[" + ",".join(parts) + "]"


@dataclass(frozen=True)
class TuranCopyId:
    """A (sigma+1)-subspace W with an entry index; anchored at a vertex.

    (W, i) alone does not pin the copy once the graph has more than one
    copy per pair, so the anchor participates in identity.
    """

    w: int
    i: int
    anchor: VTuple

    def display(self) -> str:
        return f"[{gf2.mask_str(self.w)}_{self.i}]"


def clique_copies_at(ctx: SpaceCtx, v: VTuple) -> list[CliqueCopyId]:
    """The m0 clique-copy ids at v, in dual-point order.

    Raises PencilError unless v is a well-formed pencil of ctx.
    """
    pencil.validate(ctx, v)
    return [
        CliqueCopyId(h, sl[0], tuple(sl[1:]))
        for h, sl in graphbuild.clique_slices(ctx, v)
    ]


def clique_vertices(ctx: SpaceCtx, cid: CliqueCopyId) -> list[VTuple]:
    """The 2s pencils of a clique copy.

    Raises DecompError unless the hyperplane is one of P(r), U0 is a
    (sigma-1)-subspace inside it, and the blocks are the U0-cosets inside
    it, each exactly once.
    """
    h, u0, blocks = cid.hyperplane, cid.u0, cid.blocks
    if h not in gf2.hyperplane_masks(ctx.r):
        raise DecompError(f"copy {cid.display()}: not a hyperplane")
    if (u0 & h != u0 or u0.bit_count() != (1 << (ctx.sigma - 1)) - 1
            or not gf2.is_xor_closed(u0)):
        raise DecompError(
            f"copy {cid.display()}: U0 is not a (sigma-1)-subspace of it")
    inside = {b for b in gf2.coset_table(ctx.r, u0)[0] if b & h == b}
    if len(blocks) != len(inside) or set(blocks) != inside:
        raise DecompError(f"copy {cid.display()}: blocks are not the cosets "
                          "of U0 inside it, each exactly once")
    return graphbuild.clique_copy_vertices(ctx, h, (u0,) + blocks)


def apply_index_perm(ctx: SpaceCtx, v: VTuple, psi: bytes) -> VTuple:
    """Entry j of the result is entry psi[j] of v."""
    # m1 >= 3 entries, so itemgetter returns a tuple, never one item
    return (v[0],) + itemgetter(*psi[1:ctx.m1 + 1])(v)


def turan_copies_at(ctx: SpaceCtx, v: VTuple) -> list[TuranCopyId]:
    """The m1 Turan-copy ids at v: W spans the initial entry with entry i.

    Raises PencilError unless v is a well-formed pencil of ctx.
    """
    pencil.validate(ctx, v)
    return [TuranCopyId(v[0] | v[i], i, v) for i in range(1, ctx.m1 + 1)]


def turan_part(ctx: SpaceCtx, v: VTuple, i: int) -> list[VTuple]:
    """The s vertices sharing v's part: the orbit under pivot-i index maps.

    Raises PencilError unless v is a well-formed pencil of ctx, and
    DecompError unless i is an entry index 1..m1.
    """
    pencil.validate(ctx, v)
    if not 1 <= i <= ctx.m1:
        raise DecompError(f"entry index {i} outside 1..{ctx.m1}")
    return _turan_part(ctx, v, i)


@lru_cache(maxsize=None)
def _pivot_maps(rho: int, i: int) -> tuple[bytes, ...]:
    """The index maps p(Q, i), one per hyperplane Q of P(rho) through i."""
    return tuple(hrho.pQa(rho, q, i)
                 for q in gf2.hyperplane_masks(rho) if q >> i & 1)


def _turan_part(ctx: SpaceCtx, v: VTuple, i: int) -> list[VTuple]:
    return [v] + [apply_index_perm(ctx, v, psi)
                  for psi in _pivot_maps(ctx.rho, i)]


def turan_vertices(ctx: SpaceCtx, g: PencilGraph, tid: TuranCopyId
                   ) -> dict[int, list[VTuple]]:
    """Parts of a Turan copy, keyed by the part label A0."""
    v = tid.anchor
    vi = g.index.get(v)
    if vi is None:
        raise DecompError("anchor vertex not in graph")
    # a vertex of g is a well-formed pencil, so it is not validated again
    parts: dict[int, list[VTuple]] = {v[0]: _turan_part(ctx, v, tid.i)}
    for j in g.neighbors_of(vi):
        w = g.vertices[j]
        if w[0] & tid.w == w[0]:
            parts.setdefault(w[0], []).append(w)
    t, s = ctx.t, ctx.s
    if len(parts) != t or any(len(p) != s for p in parts.values()):
        raise DecompError(
            f"copy {tid.display()} has parts {[len(p) for p in parts.values()]}"
        )
    return parts


def turan_vertex_set(ctx: SpaceCtx, g: PencilGraph, tid: TuranCopyId
                     ) -> frozenset[int]:
    parts = turan_vertices(ctx, g, tid)
    out = set()
    for plist in parts.values():
        for w in plist:
            j = g.index.get(w)
            if j is None:
                raise DecompError("Turan copy leaves the graph")
            out.add(j)
    return frozenset(out)


@dataclass
class DecompReport:
    ok: bool
    ell0: int
    ell1: int
    m0: int
    m1: int
    edge_count: int
    failures: list[str]
    count_note: str = ""

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "clique_copies": self.ell0,
            "turan_copies": self.ell1,
            "cliques_per_vertex": self.m0,
            "turans_per_vertex": self.m1,
            "edges": self.edge_count,
            "failures": self.failures,
            "count_note": self.count_note,
        }


def enumerate_clique_copies(ctx: SpaceCtx, g: PencilGraph):
    """copy id -> sorted vertex-index tuple, discovered from every vertex."""
    cached = getattr(g, "_clique_copy_cache", None)
    if cached is not None:
        return cached
    copies: dict[tuple, tuple[int, ...]] = {}
    incidence = [0] * len(g.vertices)
    for vi, v in enumerate(g.vertices):
        for h, sl in graphbuild.clique_slices(ctx, v):
            key = (h,) + sl
            incidence[vi] += 1
            if key not in copies:
                verts = graphbuild.clique_copy_vertices(ctx, h, sl)
                idx = tuple(sorted(g.index[w] for w in verts))
                copies[key] = idx
    g._clique_copy_cache = (copies, incidence)
    return copies, incidence


def enumerate_turan_copies(ctx: SpaceCtx, g: PencilGraph):
    """frozen vertex set -> (parts as index sets), plus per-vertex incidence.

    Each copy is built once, from its first anchor (v, i) in vertex-then-entry
    order, and claims (x, W) for each member x; incidence[x] counts the copies
    that contain x.
    """
    cached = getattr(g, "_turan_copy_cache", None)
    if cached is not None:
        return cached
    copies: dict[frozenset, list[frozenset]] = {}
    incidence = [0] * len(g.vertices)
    claimed: set[int] = set()  # vertex index << shift | W
    shift = ctx.n + 1
    for vi, v in enumerate(g.vertices):
        for i in range(1, ctx.m1 + 1):
            w = v[0] | v[i]
            if vi << shift | w in claimed:
                continue
            parts = turan_vertices(ctx, g, TuranCopyId(w, i, v))
            part_sets = [
                frozenset(g.index[x] for x in plist)
                for plist in parts.values()
            ]
            key = frozenset().union(*part_sets)
            for x in key:
                c = x << shift | w
                if c in claimed:
                    raise DecompError("same copy, different part structure")
                claimed.add(c)
                incidence[x] += 1
            copies[key] = part_sets
    g._turan_copy_cache = (copies, incidence)
    return copies, incidence


def verify_decomposition(ctx: SpaceCtx, g: PencilGraph) -> DecompReport:
    """Check the two copy families give the double edge-disjoint structure."""
    failures: list[str] = []
    n = len(g.vertices)
    s, t, m1 = ctx.s, ctx.t, ctx.m1
    two_s = 2 * s

    cliques, cinc = enumerate_clique_copies(ctx, g)
    turans, tinc = enumerate_turan_copies(ctx, g)
    ell0, ell1 = len(cliques), len(turans)

    if any(c != ctx.m0 for c in cinc):
        failures.append("clique incidence not m0 at every vertex")
    if any(c != ctx.m1 for c in tinc):
        failures.append("Turan incidence not m1 at every vertex")

    exp_ell0 = ((1 << ctx.sigma) - 1) * n
    exp_ell1 = m1 * n // (s * t)
    if ell0 != exp_ell0:
        failures.append(f"clique copy count {ell0} != {exp_ell0}")
    if ell1 != exp_ell1:
        failures.append(f"Turan copy count {ell1} != {exp_ell1}")

    # each edge in exactly one copy per family, and the copies intersect in
    # it; edge (x, y) is the slot of y in x's sorted adjacency row, a pair
    # with no slot is a non-edge and is kept by pair in a set.  The slot
    # lookup is written out in both passes: a call per pair would cost about
    # a tenth of the check.
    adj, d = g.adj, g.degree
    edges = g.edge_count()
    clique_verts = list(cliques.values())
    clique_of = array("i", [-1]) * len(adj)  # slot -> last clique copy on it
    stray_clique: set[tuple[int, int]] = set()  # non-edges in a clique copy
    clique_cover = 0
    bad = False
    for ci, verts in enumerate(clique_verts):
        for a, x in enumerate(verts):
            lo = x * d
            hi = lo + d
            for y in verts[a + 1:]:
                k = bisect_left(adj, y, lo, hi)
                if k < hi and adj[k] == y:
                    if clique_of[k] >= 0:
                        failures.append(f"edge {(x, y)} in two clique copies")
                        bad = True
                    else:
                        clique_cover += 1
                    clique_of[k] = ci
                    continue
                e = (x, y)
                failures.append(f"clique copy not a clique at {e}")
                bad = True
                if e in stray_clique:
                    failures.append(f"edge {e} in two clique copies")
                else:
                    clique_cover += 1
                stray_clique.add(e)
            if bad:
                break
        if bad:
            break
    if clique_cover != edges:
        failures.append(
            f"clique copies cover {clique_cover} pairs, "
            f"expected {edges} edges"
        )

    # With no edge covered twice, a clique copy C and a Turan copy T meet in
    # more than an edge exactly when T holds two edges of C: a clique copy
    # met twice on one Turan copy's edges is the failure.
    turan_seen = bytearray(len(adj))  # slot -> covered by a Turan copy
    stray_turan: set[tuple[int, int]] = set()  # non-edges across parts
    same_pairs: set[int] = set()  # x * n + y for pairs inside a part
    turan_cover = 0
    for part_sets in turans.values():
        labels = {}
        for pi, ps in enumerate(part_sets):
            for x in ps:
                labels[x] = pi
        verts = sorted(labels)
        met: set[int] = set()  # clique copies on this copy's edges
        for a, x in enumerate(verts):
            lx = labels[x]
            lo = x * d
            hi = lo + d
            for y in verts[a + 1:]:
                k = bisect_left(adj, y, lo, hi)
                edge = k < hi and adj[k] == y
                if labels[y] == lx:
                    if edge:
                        failures.append(f"Turan copy edge inside a part {x},{y}")
                    p = x * n + y
                    if (p in same_pairs
                            or (turan_seen[k] if edge
                                else (x, y) in stray_turan)):
                        failures.append(
                            f"two Turan copies share vertices {x},{y}"
                        )
                    same_pairs.add(p)
                elif edge:
                    if turan_seen[k]:
                        failures.append(f"edge ({x},{y}) in two Turan copies")
                    else:
                        turan_cover += 1
                    turan_seen[k] = 1
                    ci = clique_of[k]
                    if ci in met:
                        inter = set(clique_verts[ci]).intersection(labels)
                        failures.append(
                            f"copy intersection at {(x, y)} is {sorted(inter)}"
                        )
                    elif ci >= 0:
                        met.add(ci)
                else:
                    failures.append(f"Turan copy non-edge across parts {x},{y}")
                    if (x, y) in stray_turan:
                        failures.append(f"edge ({x},{y}) in two Turan copies")
                    else:
                        turan_cover += 1
                    stray_turan.add((x, y))
    if turan_cover != edges:
        failures.append(
            f"Turan copies cover {turan_cover} edges, "
            f"expected {edges}"
        )

    # maximality
    _check_maximality(g, cliques, turans, failures)

    # degree identity and double-cover arithmetic
    if ctx.m0 * (two_s - 1) != ctx.degree:
        failures.append("degree identity m0(2s-1) = s(t-1)m1 fails")
    if ell0 * (two_s * (two_s - 1) // 2) != edges:
        failures.append("clique edge double-cover arithmetic fails")
    if ell1 * (s * s * t * (t - 1) // 2) != edges:
        failures.append("Turan edge double-cover arithmetic fails")

    note = (
        "copy counts follow ell0=(2^sigma-1)|V| cliques and "
        "ell1=m1|V|/(st) Turan copies; the theorem statement's phrasing "
        "swaps the two families and is treated as a typo (counts verified)"
    )
    return DecompReport(not failures, ell0, ell1, ctx.m0, ctx.m1,
                        edges, failures, note)


def _check_maximality(g: PencilGraph, cliques, turans, failures) -> None:
    full = (1 << len(g.vertices)) - 1
    for key, verts in cliques.items():
        common = full
        for x in verts:
            common &= g.nbr_mask(x)
        if common:
            failures.append(f"clique copy {key[0]:x} not maximal")
            break
    for key, part_sets in turans.items():
        all_verts = set().union(*part_sets)
        # a new vertex adjacent to every member would extend with a new part
        common = full
        for x in all_verts:
            common &= g.nbr_mask(x)
        if common:
            failures.append("Turan copy extendable by a new part")
            break
        for ps in part_sets:
            rest = all_verts - ps
            common = full
            for x in rest:
                common &= g.nbr_mask(x)
            cand = common
            while cand:
                low = cand & -cand
                cand ^= low
                y = low.bit_length() - 1
                if y in all_verts:
                    continue
                if all(not g.has_edge(y, p) for p in ps):
                    failures.append("Turan copy extendable inside a part")
                    return
