"""Homogeneity checks: orbit certificates, and extension search.

The working generator set contains the extending base-vertex stabilizer
generators, the entry-position permutations, and additionally the
position-preserving linear maps that move the base vertex.  The last family
is required: the first two preserve the initial-entry fiber of the base
vertex, so on their own they can never be vertex-transitive.

Claim (d), that every copy of each family with a distinguished arc is
preserved, is certified on vertices rather than arcs: a group is transitive
on the arcs exactly when it is transitive on the vertices and a vertex
stabilizer is transitive on that vertex's neighbours (Gardiner, "Homogeneous
graphs", JCT B 20, 1976).  Two orbits, of sizes n and the degree, stand in
for the orbit on all 2|E| arcs.  Every orbit here is walked by autnr.orbit,
whose Schreier vector labels exactly the generators that enlarge the orbit;
those are the generators the certificate checks.

Whether a partial map extends to an automorphism, for the non-UH witness
and for the self-duality search of ``config``, is one backtracking search on
adjacency rows whose candidates are signature cells, refined by each
assignment as in partition-backtrack search (Leon, J. Symbolic Comput. 12,
1991; McKay and Piperno, "Practical graph isomorphism, II", 2014).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from pencilgraphs import autnr, decomp, gf2, hrho
from pencilgraphs.gf2 import SpaceCtx
from pencilgraphs.graphbuild import PencilGraph, copy_family
from pencilgraphs.pencil import encode_tuple


class HomogError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# generators


@dataclass
class GeneratorSet:
    stabilizer: list[tuple[int, ...]]
    entry_perms: list[tuple[int, ...]]
    movers: list[tuple[int, ...]]

    def vperms(self) -> list[tuple[int, ...]]:
        return self.stabilizer + self.entry_perms + self.movers


def full_generator_set(g: PencilGraph,
                       stab_gens: list[autnr.AutoMap] | None = None
                       ) -> GeneratorSet:
    """Stabilizer generators, entry permutations and the base movers of
    :func:`base_movers`, each validated as an automorphism of g."""
    if stab_gens is None:
        stab_gens = autnr.synth_generators(g)
    stab = [a.vperm for a in stab_gens if a.vperm is not None]
    entry = []
    identity = range(1 << g.ctx.r)
    for q, a, psi in hrho.generators(g.ctx.rho):
        # apply_index_perm reads entry psi[j] into position j, so entry k
        # moves to position psi^-1[k], and the argsort of psi is psi^-1
        inv = sorted(range(len(psi)), key=psi.__getitem__)
        vperm = g.linear_vperm(identity, inv)
        if vperm is None or not g.permutes_copies(vperm):
            raise HomogError(
                f"entry permutation p({gf2.mask_str(q)},{a}) is not an automorphism"
            )
        entry.append(vperm)
    movers = base_movers(g, entry)
    for k, vperm in enumerate(movers):
        if not g.permutes_copies(vperm):
            raise HomogError(f"base mover {k} is not an automorphism")
    return GeneratorSet(stab, entry, movers)


_FEEDBACK = {3: 3, 4: 3, 5: 5, 6: 3, 7: 3, 8: 29}  # primitive polynomials


def base_movers(g: PencilGraph, entry_vperms: list[tuple[int, ...]]
                ) -> list[tuple[int, ...]]:
    """Position-preserving linear maps that move the base vertex: a full-cycle
    map, then one transvection per axis until, together with the entry
    permutations, they reach every vertex of g.

    Each component is one orbit of GL(r, 2) acting on the points, so every
    such map sends g onto itself; HomogError is raised if one does not.
    """
    ctx = g.ctx

    def linear(table):
        vperm = g.linear_vperm(table, range(ctx.m1 + 1))
        if vperm is None:
            raise HomogError("a position-preserving linear map leaves the "
                             "component")
        return vperm

    # companion map of a primitive polynomial: cycles all points
    images = [1 << (i + 1) for i in range(ctx.r - 1)] + [_FEEDBACK[ctx.r]]
    out = [linear(gf2.linear_table(ctx.r, images))]
    for alpha in gf2.hyperplane_masks(ctx.r):
        if len(autnr.orbit(0, entry_vperms + out)) == len(g.vertices):
            break
        for c in gf2.points_of(alpha):
            vperm = linear(autnr.transvection_table(ctx.r, alpha, c))
            if vperm[0] == 0:
                continue
            out.append(vperm)
            break
    return out


def vertex_orbit_of_base(gens: list[tuple[int, ...]]) -> set[int]:
    return set(autnr.orbit(0, gens))


# ---------------------------------------------------------------------------
# the H-property certificate


@dataclass
class HReport:
    family: str
    orbit_size: int
    total: int
    copies_equivariant: bool
    ok: bool

    def as_dict(self):
        # the certificate covers every arc; the two keys keep the layout
        return dict(self.__dict__, exhaustive=True, sampled_checked=self.total)


def check_H_property(g: PencilGraph, gens: GeneratorSet) -> list[HReport]:
    """Arc-transitivity certificate from two orbits, for both families.

    The orbit of vertex 0 is grown under every generator, and the orbit of
    its least neighbour under the generators that fix vertex 0.  When they
    hold every vertex and every neighbour, the group the enlarging
    generators make is transitive on the arcs.  Those generators alone are
    checked to permute the copies of each family; an edge lies in exactly
    one copy of each family, so the (copy, arc) orbit is then every arc.
    orbit_size is the product of the two orbit lengths.

    The certificate is sufficient, not necessary: the generators that fix
    vertex 0 may generate less than the stabilizer of vertex 0 in the group.
    Then ok is False and orbit_size is a lower bound, even when the arc
    orbit is whole.  At (4,2) the entry permutations and base movers alone
    give 210, while their arc orbit is 7,560.  full_generator_set always
    includes the synthesized stabilizer, which is transitive on the
    neighbours.
    """
    vperms = gens.vperms()
    fixing = [p for p in vperms if p[0] == 0]
    _, u = base_arc(g)
    vorb, norb = autnr.orbit(0, vperms), autnr.orbit(u, fixing)
    cert = ({vperms[j] for j in set(vorb.values()) if j >= 0}
            | {fixing[j] for j in set(norb.values()) if j >= 0})
    tu_copies, _ = decomp.enumerate_turan_copies(g)
    families = {
        "clique": g.clique_family(),
        "turan": copy_family(map(tuple, map(sorted, tu_copies)),
                             g.ctx.t * g.ctx.s),
    }
    total = 2 * g.edge_count()
    size = len(vorb) * len(norb)
    out = []
    for family, copies in families.items():
        equi = all(g.permutes_copies(p, copies) for p in cert)
        out.append(HReport(family, size, total, equi, equi and size == total))
    return out


# ---------------------------------------------------------------------------
# partial-map extension


@dataclass
class ExtendStats:
    nodes: int = 0
    max_depth: int = 0
    exhausted: bool = False


EXTEND_NODE_CAP = 2_000_000


def extend_partial(g: PencilGraph, partial: dict[int, int]):
    """Complete a partial vertex map to an automorphism, or prove exhaustion.

    Returns (vperm | None, stats); raises HomogError for a key or value that
    is not a vertex id, and past EXTEND_NODE_CAP search nodes.
    """
    n = len(g)
    for pair in partial.items():
        if not all(type(v) is int and 0 <= v < n for v in pair):
            raise HomogError(f"partial map entry {pair} is not a pair of "
                             f"vertex ids in 0..{n - 1}")
    one = [0] * n
    return _backtrack(g.neighbors_of, one, one, partial, EXTEND_NODE_CAP)


def _backtrack(row, dom_key: list, img_key: list, partial: dict[int, int],
               node_cap: int):
    """Search for a bijection m of the vertices 0..n-1 of the graph with
    adjacency rows row(i) that preserves adjacency, sends each x to a y with
    img_key[y] == dom_key[x], and extends partial.  Returns (map | None,
    stats).

    Domain vertex x is slot x and image y slot n + y of one cell array.  A
    slot's cell is its key plus one bit per assignment x -> y for "adjacent
    to x" (to y, for an image), so x's candidates are the unmapped images in
    its cell.  An assignment moves the unmapped neighbours of x and y into
    split cells, one trail entry per move, and fails when a cell keeps
    domain slots but no image.  The vertex with fewest candidates, the least
    first, is tried next, its candidates in ascending order.  A cell that
    starts with domain slots but no image ends the search at once,
    exhausted with no nodes.
    """
    n = len(dom_key)
    stats = ExtendStats()
    # dom[c] and img[c] count the domain and image slots in cell c; cell 0
    # holds the mapped slots, with more images than any cell can have
    ids: dict = {}
    cell = [ids.setdefault(k, len(ids) + 1) for k in dom_key + img_key]
    dom, img = [0] * (len(ids) + 1), [n + 1] + [0] * len(ids)
    for s, c in enumerate(cell):
        (dom, img)[s >= n][c] += 1
    trail: list[tuple[int, int]] = []
    m_fwd = [-1] * n

    def move(s, c):
        side = (dom, img)[s >= n]
        side[cell[s]] -= 1
        side[c] += 1
        cell[s] = c

    def push(s, c):
        trail.append((s, cell[s]))
        move(s, c)

    def whole(cells):
        return all(img[c] or not dom[c] for c in cells)

    def assign(x, y):
        m_fwd[x] = y
        cy = cell[n + y]
        push(x, 0)
        push(n + y, 0)
        split: dict[int, int] = {}
        for s in (*row(x), *map(n.__add__, row(y))):
            c = cell[s]
            if c:
                if c not in split:
                    split[c] = len(img)
                    dom.append(0)
                    img.append(0)
                push(s, split[c])
        return whole((cy, *split, *split.values()))

    def frame():
        """The next vertex, its candidates and its undo mark, or None when
        all are mapped.  No unmapped vertex has 0 candidates here."""
        x, kx = -1, n + 1
        for z, c in enumerate(cell[:n]):
            if img[c] < kx:
                x, kx = z, img[c]
                if kx == 1:
                    break
        if x < 0:
            return None
        cands, s = [], n - 1
        for _ in range(kx):
            s = cell.index(cell[x], s + 1)
            cands.append(s - n)
        return x, iter(cands), len(trail), len(img)

    def advance(x, cands, mark, ncells):
        """Undo to the frame's mark and assign x its next live candidate."""
        for y in cands:
            while len(trail) > mark:
                move(*trail.pop())
            del dom[ncells:], img[ncells:]
            stats.nodes += 1
            if stats.nodes > node_cap:
                raise HomogError("extension search exceeded node cap")
            if assign(x, y):
                return True
        return False

    live = whole(range(len(img))) and all(
        cell[x] == cell[n + y] and assign(x, y)
        for x, y in sorted(partial.items()))
    # most-constrained-first backtracking; one frame per assigned vertex
    frames: list[tuple] = []
    while live and (top := frame()) is not None:
        frames.append(top)
        while frames and not advance(*frames[-1]):
            frames.pop()
        stats.max_depth = max(stats.max_depth, len(frames))
        live = bool(frames)
    stats.exhausted = not live
    return (m_fwd if live else None), stats


# ---------------------------------------------------------------------------
# the non-UH witness


def _copy_automorphisms_fixing_arc(part_sets: list[list[int]], a: int, b: int):
    """Bijections of a complete multipartite copy fixing vertices a and b.

    Yields dicts vertex -> image, identity first, in deterministic order:
    by the order of the other parts' images, then by the maps of a's part,
    b's part and each other part in turn, the last varying fastest.  Only
    the per-part maps are held in memory, never the product.
    """
    parts = [sorted(p) for p in part_sets]
    ia = next(i for i, p in enumerate(parts) if a in p)
    ib = next(i for i, p in enumerate(parts) if b in p)
    rest = [i for i in range(len(parts)) if i not in (ia, ib)]

    def part_maps(src, dst, pinned=None):
        src2 = [x for x in src if x != pinned]
        dst2 = [x for x in dst if x != pinned]
        for perm in permutations(dst2):
            m = dict(zip(src2, perm))
            if pinned is not None:
                m[pinned] = pinned
            yield m

    for rest_order in permutations(rest):
        for maps in product(part_maps(parts[ia], parts[ia], pinned=a),
                            part_maps(parts[ib], parts[ib], pinned=b),
                            *(part_maps(parts[i], parts[j])
                              for i, j in zip(rest, rest_order))):
            full = {}
            for m in maps:
                full.update(m)
            yield full


@dataclass
class Witness:
    copy_display: str
    partial: dict[int, int]
    stats: ExtendStats

    def as_dict(self):
        return {
            "copy": self.copy_display,
            "partial_map": {str(k): v for k, v in sorted(self.partial.items())},
            "search_nodes": self.stats.nodes,
            "search_max_depth": self.stats.max_depth,
            "exhausted": self.stats.exhausted,
        }


def base_arc(g: PencilGraph) -> tuple[int, int]:
    """(base vertex, its lexicographically least neighbor) as indices."""
    u = min(g.neighbors_of(0), key=lambda j: encode_tuple(g.vertices[j]))
    return 0, u


def witness_expected(ctx: SpaceCtx) -> bool:
    """Whether :func:`non_uh_witness` must find a witness: at every case but
    (3,1), whose graph C_3^1 is {K4, K_{2,2,2}}-ultrahomogeneous."""
    return (ctx.r, ctx.sigma) != (3, 1)


def non_uh_witness(g: PencilGraph):
    """First non-extensible arc-fixing automorphism of the least Turan copy.

    Returns (Witness | None, tried_count).
    """
    v_i, u_i = base_arc(g)
    tid = decomp.turan_copies_at(g.ctx, g.vertices[v_i])[0]
    parts = decomp.turan_vertices(g, tid)
    part_sets = [
        sorted(g.index[w] for w in plist) for _, plist in sorted(parts.items())
    ]
    members = set().union(*map(set, part_sets))
    if u_i not in members:
        raise HomogError("least neighbor not in the least Turan copy")
    tried = 0
    for m in _copy_automorphisms_fixing_arc(part_sets, v_i, u_i):
        tried += 1
        if all(k == vv for k, vv in m.items()):
            continue
        vperm, stats = extend_partial(g, m)
        if vperm is None:
            return Witness(tid.display(), m, stats), tried
    return None, tried
