"""Generators of the base-vertex symmetry group and their closure order.

The group measured here is the automorphism group of the subgraph induced by
the open neighborhood of the base vertex.  Its generators come in two kinds:

* point kind: a transvection x -> x ^ c off a hyperplane axis, together with
  the induced permutation of entry positions.  These act on every vertex and
  are genuine automorphisms of the whole graph.
* fiber kind: a swap of affine blocks applied only to the neighbors whose
  initial entry meets the base initial entry in a prescribed hyperplane.
  For sigma >= 2 these are automorphisms of the neighborhood subgraph that
  provably do not extend to the whole graph (the closure order check below
  is what detects the difference).

Candidate parameters are enumerated more broadly than strictly necessary and
validated against the built graph; only verified automorphisms are kept.
A point-kind candidate is mapped over the whole graph at once by
PencilGraph.linear_vperm, a gather over the graph's label rows; mapping each
vertex through apply_point_map with vperm_of gives the same permutation and
is kept as the literal reference.  Fiber maps act on the neighborhood only,
and are checked on the sorted rows of the neighbors.

A whole-graph candidate is validated exactly, on every vertex, by one test:
it is a permutation and it maps every clique copy onto a clique copy.  The
premise, checked once per graph, is that each row lists, each once, the
other members of the vertex's clique copies, which is how the build makes
the rows; then every edge lies in a copy and every copy is a clique, so the
test is sufficient.  It is also necessary wherever every automorphism
permutes the clique copies, as at (3,1), (4,2) and (4,1), whose generated
groups are all of Aut(G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from pencilgraphs import gf2, hrho
from pencilgraphs.gf2 import SpaceCtx
from pencilgraphs.graphbuild import PencilGraph
from pencilgraphs.pencil import VTuple


class AutError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# point maps


# x -> x ^ c off the axis alpha, identity on it, as a bytes point table
transvection_table = hrho.pQa


def subsets_of_dim(mask: int, d: int) -> list[int]:
    """All linear-dimension-d subspaces contained in the given subspace,
    sorted by mask value."""
    r = (mask.bit_length() - 1).bit_length()  # least r with mask in P(r)
    return sorted(m for m in gf2.subspace_masks(r, d) if m & mask == m)


Factor = tuple[int, int, tuple[tuple[int, int], ...]]  # (theta, chi, pairs)


@dataclass(frozen=True)
class AutoMap:
    """One synthesized generator with its neighborhood permutation."""

    category: str  # 'A' | 'B' | 'C'
    kind: str  # 'point' | 'fiber'
    pi: int  # point or subspace mask, category-dependent
    alpha: int  # hyperplane mask (the axis)
    factors: tuple[Factor, ...]
    psi: tuple[int, ...]  # images of entry positions 1..m1 (psi[0] unused)
    nperm: tuple[int, ...] = field(compare=False)  # on sorted N(v) slots
    vperm: tuple[int, ...] | None = field(compare=False, default=None)
    center: int | None = None  # transvection center for point kind

    def display(self) -> str:
        parts = []
        for theta, chi, pairs in self.factors:
            ptxt = "".join(
                f"({gf2.mask_str(a)} {gf2.mask_str(b)})" for a, b in pairs
            )
            parts.append(f"[{gf2.mask_str(theta)}.{gf2.mask_str(chi)}{ptxt}]")
        psi = bytes(self.psi)
        cyc = "".join("(" + " ".join(map(gf2.point_str, c)) + ")"
                      for c in hrho.cycles(psi))
        fixed = "".join(map(gf2.point_str, hrho.fixed_points(psi)))
        return "".join(parts) + "." + fixed + (cyc or "()")


def apply_point_map(ctx: SpaceCtx, table, psi, v: VTuple) -> VTuple:
    out = [gf2.map_mask(v[0], table)] + [0] * ctx.m1
    for i in range(1, ctx.m1 + 1):
        out[psi[i]] = gf2.map_mask(v[i], table)
    return tuple(out)


def quotient_psi(ctx: SpaceCtx, table: list[int]) -> tuple[int, ...]:
    """Entry-position permutation induced on the base-vertex cosets."""
    width = 1 << ctx.sigma
    psi = [0] * (ctx.m1 + 1)
    for k in range(1, ctx.m1 + 1):
        psi[k] = table[k * width] // width
    if sorted(psi[1:]) != list(range(1, ctx.m1 + 1)):
        raise AutError("point map does not permute the base cosets")
    return tuple(psi)


def point_factors(ctx: SpaceCtx, table, alpha: int, thetas: list[int],
                  within_span_of: int | None = None) -> tuple[Factor, ...]:
    """Bracket data [theta.chi(pairs)] of a point map, one factor per theta.

    With within_span_of set, only pairs inside span(within_span_of u theta)
    are listed -- the presentation convention for the family whose thetas
    leave the base initial entry.
    """
    factors = []
    for theta in thetas:
        if within_span_of is not None:
            w = gf2.span_mask(gf2.points_of(within_span_of | theta))
        pairs = []
        chi = None
        for b in gf2.coset_table(ctx.r, theta)[0]:
            img = gf2.map_mask(b, table)
            if img == b:
                continue
            if within_span_of is not None and (b | img) & ~w:
                continue
            pair = (min(b, img), max(b, img))
            if pair not in pairs:
                pairs.append(pair)
            d = gf2.min_point(b) ^ gf2.min_point(img)
            chi_b = gf2.coset_mask(theta, d)
            if chi is None:
                chi = chi_b
        if pairs:
            factors.append((theta, chi, tuple(sorted(pairs))))
    return tuple(factors)


# ---------------------------------------------------------------------------
# synthesis


def _neighbor_slots(g: PencilGraph) -> list[int]:
    return sorted(g.neighbors_of(0))


def _is_automorphism(g: PencilGraph, vperm) -> bool:
    """vperm is a permutation of g that maps every clique copy onto a clique
    copy, checked exactly by PencilGraph.permutes_copies.

    The premise, checked once per graph when its copy index is built: each
    row lists, each once, the other members of the vertex's clique copies.
    So every edge lies in a copy and every copy is a clique, and a
    permutation that maps copies onto copies maps edges onto edges; it is an
    automorphism.  The converse holds where every automorphism permutes the
    copies.  At (3,1), (4,2) and (4,1) the generators the package builds
    generate all of Aut(G) and permute the copies, so there the test equals
    the literal all-pairs definition; elsewhere it is a sufficient
    condition.
    """
    return g.permutes_copies(vperm)


def _nperm_from_vperm(g: PencilGraph, vperm, slots, slot_index) -> tuple[int, ...]:
    return tuple(slot_index[vperm[s]] for s in slots)


def synth_point_kind(g: PencilGraph) -> list[AutoMap]:
    """Transvection generators fixing the base vertex, validated on g."""
    ctx = g.ctx
    J = g.vertices[0][0]
    slots = _neighbor_slots(g)
    slot_index = {s: k for k, s in enumerate(slots)}
    j_thetas = subsets_of_dim(J, ctx.sigma - 1)
    out = []
    seen_vperms = set()
    for alpha in gf2.hyperplane_masks(ctx.r):
        for c in gf2.points_of(alpha):
            in_j = bool(J >> c & 1)
            if not in_j and alpha & J != J:
                continue  # it cannot fix the base
            table = transvection_table(ctx.r, alpha, c)
            psi = quotient_psi(ctx, table)
            vperm = g.linear_vperm(table, psi)
            if (vperm is None or vperm[0] != 0 or vperm in seen_vperms
                    or not _is_automorphism(g, vperm)):
                continue
            seen_vperms.add(vperm)
            within = None
            if not in_j:
                cat, pi, thetas = "A", c, j_thetas
            elif alpha & J == J:
                # pi for category B: the hyperplane of J missing the center
                cat, pi, thetas = "B", _b_pi(ctx, J, c), j_thetas
            else:
                cat, pi, thetas = "C", alpha & J, [
                    t for t in subsets_of_dim(alpha, ctx.sigma - 1)
                    if t & J != t
                ]
                within = J
            factors = point_factors(ctx, table, alpha, thetas, within)
            out.append(AutoMap(cat, "point", pi, alpha, factors, psi,
                               _nperm_from_vperm(g, vperm, slots, slot_index),
                               vperm, center=c))
    return out


def _b_pi(ctx: SpaceCtx, J: int, c: int) -> int:
    """The hyperplane of J whose complementary block contains c."""
    for theta in subsets_of_dim(J, ctx.sigma - 1):
        blk = J & ~theta
        if blk >> c & 1:
            return theta
    raise AutError("no hyperplane of J avoids the center")


def fiber_apply(ctx: SpaceCtx, J: int, theta: int, block_map: dict[int, int],
                v: VTuple):
    """Image of v under a fiber map, or None when v is outside the fiber's
    reach or the image is not a pencil."""
    if v[0] & J != theta:
        return v
    blk = v[0] & ~theta
    a0 = theta | block_map.get(blk, blk)
    # led table: index top point + 1 holds that point's block, 0 in theta
    block_of = gf2.coset_table(ctx.r, theta)[1]
    ents = []
    for m in v[1:]:
        img = 0
        rest = m
        ok = True
        while rest:
            b = block_of[rest.bit_length()]
            if not b or b & m != b:
                ok = False
                break
            rest &= ~b
            img |= block_map.get(b, b)
        if not ok:
            return None
        ents.append(img)
    return (a0,) + tuple(ents)


def synth_fiber_kind(g: PencilGraph) -> list[AutoMap]:
    """Block-swap generators acting on a single neighbor fiber.

    For each hyperplane theta of the base initial entry and each axis alpha
    containing it, swap the theta-blocks outside alpha with their translate
    by the complementary block of theta; keep the candidate when the induced
    permutation of the closed neighborhood preserves its adjacency.
    """
    ctx = g.ctx
    J = g.vertices[0][0]
    slots = _neighbor_slots(g)
    slot_index = {s: k for k, s in enumerate(slots)}
    ball = {0} | set(slots)
    out = []
    seen = set()
    for theta in subsets_of_dim(J, ctx.sigma - 1):
        chi = J & ~theta
        c = gf2.min_point(chi)
        shift = [x ^ c for x in range(ctx.n + 1)]  # translation by c
        for alpha in gf2.hyperplane_masks(ctx.r):
            if alpha & J != J:
                continue
            block_map = {}
            for b in gf2.coset_table(ctx.r, theta)[0]:
                if b & alpha == b:
                    continue
                b2 = gf2.map_mask(b, shift)
                if b2 & alpha != b2 and b != b2:
                    block_map[b] = b2
            if not block_map:
                continue
            nperm = []
            ok = True
            for s in slots:
                w = fiber_apply(ctx, J, theta, block_map, g.vertices[s])
                j = g.index.get(w) if w is not None else None
                if j is None or j not in slot_index:
                    ok = False
                    break
                nperm.append(slot_index[j])
            if not ok or sorted(nperm) != list(range(len(slots))):
                continue
            # verify adjacency inside the closed ball
            if not _nperm_preserves_ball(g, slots, nperm):
                continue
            key = tuple(nperm)
            if key in seen:
                continue
            seen.add(key)
            pairs = tuple(sorted((min(b, b2), max(b, b2))
                                 for b, b2 in block_map.items() if b < b2))
            factors = ((theta, chi, pairs),)
            psi = tuple(range(ctx.m1 + 1))
            out.append(AutoMap("B", "fiber", theta, alpha, factors, psi,
                               key, None))
    return out


def _nperm_preserves_ball(g: PencilGraph, slots, nperm) -> bool:
    """nperm, on the sorted neighbour slots, keeps every pair of slots
    adjacent or not; read from the sorted rows."""
    slot_index = {s: k for k, s in enumerate(slots)}
    sub = [{slot_index[j] for j in g.neighbors_of(s) if j in slot_index}
           for s in slots]
    for a, ia in enumerate(nperm):
        image = {nperm[b] for b in sub[a]}
        if image != sub[ia]:
            return False
    return True


def synth_generators(g: PencilGraph) -> list[AutoMap]:
    return synth_point_kind(g) + synth_fiber_kind(g)


# ---------------------------------------------------------------------------
# closure


def close_permutations(gens: list[tuple[int, ...]]) -> int:
    """Order of the permutation group generated by the given tuples.

    Deterministic Schreier-Sims (Sims 1970; Seress, Permutation Group
    Algorithms, 2003, ch. 4).  Level i of the stabilizer chain keeps a base
    point b_i, the strong generators fixing b_0 .. b_{i-1}, and the orbit of
    b_i under them with a transversal.  Every Schreier generator of every
    level is sifted through the levels below it; a residue that is not the
    identity becomes a new strong generator.  Once all of them sift, the
    order is the product of the basic orbit lengths.  No group element is
    enumerated.
    """
    if not gens:
        return 1
    k = len(gens[0])
    ident = tuple(range(k))

    def inverse(p):
        inv = [0] * k
        for x, y in enumerate(p):
            inv[y] = x
        return tuple(inv)

    base: list[int] = []
    strong: list[list[tuple]] = []  # level -> [(s, s^-1)]
    trans: list[dict] = []  # level -> {point: (u, u^-1)}, u(b_i) = point

    def orbit(i):
        b = base[i]
        t = {b: (ident, ident)}
        pts = [b]
        for beta in pts:
            u, ui = t[beta]
            for s, si in strong[i]:
                gamma = s[beta]
                if gamma not in t:
                    t[gamma] = (tuple(s[x] for x in u), tuple(ui[x] for x in si))
                    pts.append(gamma)
        return t

    def sift(h, i):
        """Strip h through levels i, i+1, ...; (residue, level it stuck at)."""
        for j in range(i, len(base)):
            hit = trans[j].get(h[base[j]])
            if hit is None:
                return h, j
            ui = hit[1]
            h = tuple(ui[x] for x in h)
        return h, len(base)

    def add(h, i, j):
        """Make the residue h (fixing b_0 .. b_{j-1}) a strong generator of
        levels i .. j, opening level j when h fixes every base point."""
        if j == len(base):
            base.append(next(x for x in range(k) if h[x] != x))
            strong.append([])
            trans.append({})
        pair = (h, inverse(h))
        for lv in range(i, j + 1):
            strong[lv].append(pair)
            trans[lv] = orbit(lv)

    def residue(i):
        """The first Schreier generator u_beta * s * u_{s(beta)}^-1 of level
        i that does not sift to the identity, as (residue, level), or None."""
        for beta, (u, _) in trans[i].items():
            for s, _ in strong[i]:
                ui = trans[i][s[beta]][1]
                h, j = sift(tuple(ui[s[x]] for x in u), i + 1)
                if h != ident:
                    return h, j
        return None

    for gen in gens:
        h, j = sift(tuple(gen), 0)
        if h != ident:
            add(h, 0, j)
    i = len(base) - 1
    while i >= 0:
        hit = residue(i)
        if hit is None:
            i -= 1
        else:
            add(hit[0], i + 1, hit[1])
            i = hit[1]
    return prod(len(t) for t in trans)


def closure_order(gens: list[AutoMap], g: PencilGraph,
                  cross_check_full: bool = False) -> int:
    """Group order generated by the neighborhood restrictions.

    With cross_check_full, also takes the order of the group generated by
    the full-graph permutations of the point-kind generators and checks that
    it equals the order of their restrictions, i.e. that restricting to the
    neighborhood loses nothing (the faithfulness check).
    """
    nperms = [a.nperm for a in gens]
    order = close_permutations(nperms)
    if cross_check_full:
        vperms = [a.vperm for a in gens if a.vperm is not None]
        full = close_permutations(vperms)
        restricted = close_permutations(
            [a.nperm for a in gens if a.vperm is not None]
        )
        if full != restricted:
            raise AutError(
                f"neighborhood restriction is not faithful: {full} vs {restricted}"
            )
    return order


def nr_order_formula(ctx: SpaceCtx) -> int:
    """2^A * B * C with the rho = 2 caveat on the final term of A."""
    sigma, rho = ctx.sigma, ctx.rho
    a = (1 << (sigma + 1)) - 1 + (rho - 2) * ((1 << sigma) + 1) + max(rho - 3, 0)
    b = 1
    for i in range(1, rho + 1):
        b *= (1 << i) - 1
    c = 1
    for i in range(2, (1 << sigma)):
        c *= i
    return (1 << a) * b * c


def apply(ctx: SpaceCtx, a: AutoMap, v: VTuple) -> VTuple:
    """Apply a generator to a pencil (point kind: any vertex)."""
    if a.kind == "point":
        table = transvection_table(ctx.r, a.alpha, a.center)
        return apply_point_map(ctx, table, a.psi, v)
    J = a.factors[0][0] | a.factors[0][1]
    w = fiber_apply(ctx, J, a.pi, dict(a.factors[0][2]), v)
    if w is None:
        raise AutError("fiber map undefined on this pencil")
    return w
