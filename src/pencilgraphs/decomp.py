"""Maximal-clique and maximal-Turan copy families and the double decomposition.

Every edge lies in exactly one copy of each family; a clique copy is a
hyperplane slice shared by its 2s vertices, and a Turan copy is anchored by
any of its vertices via the pivot-orbit construction of its parts.

The clique copies are not searched for here: the build makes each one once
and keeps it on the graph, and the check reads them from there.

Each Turan copy is found once.  A copy spans a (sigma+1)-subspace W: its t
parts are labelled by the t sigma-subspaces of W, so the vertex set fixes W.
A vertex x lies in at most one copy of a given W, the one anchored at
(x, i) for the entry i of x inside W.  So the pairs (vertex, W) are claims:
a newly found copy claims (x, W) for each of its s*t members, an anchor
whose pair is already claimed is skipped, and a second claim on a pair means
two different copies through one anchor and raises.  The first anchor of a
copy in vertex-then-entry order is never skipped, so the copies come out in
the same order, with the same parts, as from the all-anchor walk.

The decomposition is checked one vertex at a time by graphbuild.row_faults,
the routine PencilGraph.clique_family uses: a vertex's sorted row must list,
each once, the other members of its clique copies, and again the members of
its Turan copies outside its own part.  At every vertex, that holds exactly
when each pair in a copy is an edge, no edge is in two copies of a family
and every edge is covered.  The vertex's other part members must be off its
row (parts are independent) and distinct (no two Turan copies share a part
pair), and no clique copy may hold three members of one Turan copy, the
literal |C & T| <= 2.  A failure names each pair once, as x < y; a cover
count is the sum over all vertices of their distinct co-members, halved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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

    Raises DecompError unless the fields are plain int point masks, the
    hyperplane is one of P(r), U0 is a (sigma-1)-subspace inside it, and
    the blocks, a tuple, are the U0-cosets inside it, each exactly once.
    """
    h, u0, blocks = cid.hyperplane, cid.u0, cid.blocks
    if not isinstance(blocks, tuple):
        raise DecompError(f"copy {cid!r}: blocks are not a tuple")
    # plain ints in range, checked before display() walks their bits
    fields = (h, u0) + blocks
    if (set(map(type, fields)) != {int} or min(fields) < 0
            or max(fields) > ctx.all_points_mask):
        raise DecompError(f"copy {cid!r}: fields are not point masks "
                          f"of P({ctx.r})")
    if h not in gf2.hyperplane_set(ctx.r):
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
    DecompError unless i is an entry index 1..m1, a plain int.
    """
    pencil.validate(ctx, v)
    if type(i) is not int or not 1 <= i <= ctx.m1:
        raise DecompError(f"entry index {i!r} is not an int in 1..{ctx.m1}")
    return _turan_part(ctx, v, i)


@lru_cache(maxsize=None)
def _pivot_maps(rho: int, i: int) -> tuple[bytes, ...]:
    """The index maps p(Q, i), one per hyperplane Q of P(rho) through i."""
    return tuple(hrho.pQa(rho, q, i)
                 for q in gf2.hyperplane_masks(rho) if q >> i & 1)


def _turan_part(ctx: SpaceCtx, v: VTuple, i: int) -> list[VTuple]:
    return [v] + [apply_index_perm(ctx, v, psi)
                  for psi in _pivot_maps(ctx.rho, i)]


def turan_vertices(g: PencilGraph, tid: TuranCopyId
                   ) -> dict[int, list[VTuple]]:
    """Parts of a Turan copy, keyed by the part label A0."""
    ctx = g.ctx
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


def enumerate_clique_copies(g: PencilGraph):
    """The clique copies kept by the build, (h,) + slice -> sorted vertex
    ids in closing order, plus per-vertex incidence counted from members."""
    incidence = [0] * len(g.vertices)
    for ids in g.clique_copies.values():
        for x in ids:
            incidence[x] += 1
    return g.clique_copies, incidence


def enumerate_turan_copies(g: PencilGraph):
    """frozen vertex set -> (parts as index sets), plus per-vertex incidence.

    Each copy is built once, from its first anchor (v, i) in vertex-then-entry
    order, and claims (x, W) for each member x; incidence[x] counts the copies
    that contain x.
    """
    if g._turan_copy_cache is not None:
        return g._turan_copy_cache
    ctx = g.ctx
    copies: dict[frozenset, list[frozenset]] = {}
    incidence = [0] * len(g.vertices)
    claimed: set[int] = set()  # vertex index << shift | W
    shift = ctx.n + 1
    for vi, v in enumerate(g.vertices):
        for i in range(1, ctx.m1 + 1):
            w = v[0] | v[i]
            if vi << shift | w in claimed:
                continue
            parts = turan_vertices(g, TuranCopyId(w, i, v))
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


def verify_decomposition(g: PencilGraph) -> DecompReport:
    """Check the two copy families give the double edge-disjoint structure."""
    ctx = g.ctx
    failures: list[str] = []
    n = len(g.vertices)
    s, t, m1 = ctx.s, ctx.t, ctx.m1
    two_s = 2 * s

    cliques, cinc = enumerate_clique_copies(g)
    turans, tinc = enumerate_turan_copies(g)
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

    # one vertex at a time: its row lists, each once, the other members of
    # its clique copies, and the members of its Turan copies outside its
    # part; its other part members are off the row and distinct
    edges, d = g.edge_count(), g.degree
    cliques_at = graphbuild.held_by(n, zip(cliques.values(), cliques.values()))
    turan_list = [(frozenset().union(*ps), ps) for ps in turans.values()]
    families = [
        (cliques_at, "clique copy not a clique at ({}, {})",
         "edge ({}, {}) in two clique copies"),
        (graphbuild.held_by(n, ((p, tuple(members - p))
                                for members, ps in turan_list for p in ps)),
         "Turan copy non-edge across parts {},{}",
         "edge ({},{}) in two Turan copies")]
    parts_at = graphbuild.held_by(n, ((p, p) for _, ps in turan_list
                                      for p in ps))
    cover = [0, 0]  # distinct co-members summed: each pair from both ends
    for x in range(n):
        row = g.neighbors_of(x).tolist()
        for f, (held, off_text, twice_text) in enumerate(families):
            faults = graphbuild.row_faults(row, x, held[x])
            if faults is None:
                cover[f] += d
                continue
            off, twice, distinct = faults
            cover[f] += distinct
            failures += [off_text.format(x, y) for y in off if y > x]
            failures += [twice_text.format(x, y) for y in twice if y > x]
        same = list(chain.from_iterable(parts_at[x]))
        others = set(same) - {x}
        if (len(others) != len(same) - same.count(x)
                or not others.isdisjoint(row)):
            same.sort()
            failures += [f"Turan copy edge inside a part {x},{y}"
                         for y in sorted(others.intersection(row)) if y > x]
            failures += [f"two Turan copies share vertices {x},{y}"
                         for y in sorted({a for a, b in zip(same, same[1:])
                                          if a == b and a > x})]
    if cover[0] // 2 != edges:
        failures.append(f"clique copies cover {cover[0] // 2} pairs, "
                        f"expected {edges} edges")
    if cover[1] // 2 != edges:
        failures.append(f"Turan copies cover {cover[1] // 2} edges, "
                        f"expected {edges}")

    # a clique copy and a Turan copy share at most two vertices; met counts
    # equal clique copies as one, so each candidate is tested literally
    for members, _ in turan_list:
        met = Counter(chain.from_iterable(map(cliques_at.__getitem__, members)))
        if max(met.values(), default=0) > 2:
            for c in sorted(c for c, k in met.items() if k > 2):
                inter = sorted(members.intersection(c))
                if len(inter) > 2:
                    failures.append(
                        f"copy intersection at {tuple(inter[:2])} is {inter}")

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
