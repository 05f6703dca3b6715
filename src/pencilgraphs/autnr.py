"""Generators of the base-vertex symmetry group and their closure order.

The group measured here is the automorphism group of the subgraph induced by
the open neighborhood of the base vertex.  Its generators come in two kinds,
each one family enumerated exactly.  With J the base initial entry and
rho = r - sigma:

* point kind: a transvection x -> x ^ c off a hyperplane axis alpha, with c
  in J or J inside alpha, together with the induced permutation of entry
  positions; (2^sigma - 1)(2^(r-1) - 1) + (2^rho - 1)(2^(r-1) - 2^sigma) of
  them, 9, 33, 49 and 129 at (3,1), (4,2), (4,1) and (5,3).  These act on
  every vertex and are genuine automorphisms of the whole graph.
* fiber kind: a swap of affine blocks applied only to the neighbors whose
  initial entry meets J in a prescribed hyperplane theta of J, one for each
  theta and each axis containing J; (2^sigma - 1)(2^rho - 1) of them, 3, 9,
  7 and 21 at the same cases.  For sigma >= 2 these are automorphisms of the
  neighborhood subgraph that provably do not extend to the whole graph
  (the closure order is what detects the difference).

Every member of a family is validated, and one that fails raises AutError;
nothing is filtered out.  Both kinds are checked on the base vertex's ball
alone, where the measured group acts: the map must fix the base, send N(v)
onto N(v) and keep every pair of neighbours adjacent or not.  A point-kind
generator carries its point table, which homog checks on the whole graph.

orbit, the one orbit routine of the symmetry layer, returns a Schreier
vector.  close_permutations keeps one per level of its stabilizer chain, and
homog reads its orbits and labelled generators.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import prod
from operator import itemgetter

from pencilgraphs import gf2, hrho
from pencilgraphs.gf2 import SpaceCtx
from pencilgraphs.graphbuild import PencilGraph, label_rows, map_rows
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
    """One synthesized generator, its N(v) permutation and point table."""

    category: str  # 'A' | 'B' | 'C'
    kind: str  # 'point' | 'fiber'
    pi: int  # point or subspace mask, category-dependent
    alpha: int  # hyperplane mask (the axis)
    factors: tuple[Factor, ...]
    psi: tuple[int, ...]  # images of entry positions 1..m1 (psi[0] unused)
    nperm: tuple[int, ...] = field(compare=False)  # on sorted N(v) slots
    table: bytes | None = None  # point table, for the point kind

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


def point_factors(ctx: SpaceCtx, table, thetas: list[int],
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


class _Ball:
    """The base vertex and its neighbours (slots, in row order): their ids,
    the ordered pairs of adjacent slots as a set, and the pairs a < b as two
    columns.  Built once per synthesis call."""

    def __init__(self, g: PencilGraph):
        self.slots = g.neighbors_of(0)
        self.ids = (0, *self.slots)
        slot = self.slot = {s: k for k, s in enumerate(self.slots)}
        edges = [(a, slot[j]) for a, s in enumerate(self.slots)
                 for j in g.neighbors_of(s) if j in slot]
        self.edges = frozenset(edges)
        self.ends = tuple(zip(*(e for e in edges if e[0] < e[1])))

    def keeps_adjacency(self, nperm) -> bool:
        """Whether the slot bijection maps the edges into, so onto, them."""
        return self.edges.issuperset(zip(*(map(nperm.__getitem__, e)
                                           for e in self.ends)))

    def nperm(self, images, name: str) -> tuple[int, ...]:
        """The slot permutation of a pencil map from the ids of the images of
        the ball's vertices.  Raises AutError unless the map fixes the base,
        maps N(v) onto N(v) and keeps every pair of slots adjacent or not."""
        base, *rest = images
        nperm = tuple(map(self.slot.get, rest))
        if (base != 0 or None in nperm or len(set(nperm)) != len(nperm)
                or not self.keeps_adjacency(nperm)):
            raise AutError(f"{name} is not an automorphism of the "
                           "neighborhood fixing the base")
        return nperm


def synth_point_kind(g: PencilGraph) -> list[AutoMap]:
    """The transvections (alpha, c) with c in the base initial entry J or
    J inside alpha, by axis and then centre, each validated on the ball.

    Raises AutError when one is not an automorphism of the neighborhood
    fixing the base.
    """
    ctx = g.ctx
    ball = _Ball(g)
    rows = label_rows(ctx.r, [g.vertices[i] for i in ball.ids])
    row_ids, rows = dict(zip(rows, ball.ids)), b"".join(rows)
    J = g.vertices[0][0]
    j_thetas = subsets_of_dim(J, ctx.sigma - 1)
    out = []
    for alpha in gf2.hyperplane_masks(ctx.r):
        holds_j = alpha & J == J
        for c in gf2.points_of(alpha if holds_j else alpha & J):
            table = transvection_table(ctx.r, alpha, c)
            psi = quotient_psi(ctx, table)
            img = map_rows(rows, table, bytes(psi))
            nperm = ball.nperm(map(row_ids.get, img), f"transvection "
                               f"({gf2.mask_str(alpha)}, {gf2.point_str(c)})")
            within = None
            if not J >> c & 1:
                cat, pi, thetas = "A", c, j_thetas
            elif holds_j:
                # pi for category B: the hyperplane of J missing the center
                cat, pi, thetas = "B", _b_pi(ctx, J, c), j_thetas
            else:
                cat, pi, thetas = "C", alpha & J, [
                    t for t in subsets_of_dim(alpha, ctx.sigma - 1)
                    if t & J != t
                ]
                within = J
            factors = point_factors(ctx, table, thetas, within)
            out.append(AutoMap(cat, "point", pi, alpha, factors, psi, nperm,
                               table))
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

    For each hyperplane theta of the base initial entry J and each axis
    alpha containing J, swap the theta-blocks outside alpha with their
    translate by a point c of the complementary block of theta.  As c lies
    in alpha but not in theta, the translate of such a block is another
    block outside alpha.  Raises AutError when one is not an automorphism
    of the neighborhood fixing the base.
    """
    ctx = g.ctx
    ball = _Ball(g)
    J = g.vertices[0][0]
    psi = tuple(range(ctx.m1 + 1))
    axes = [a for a in gf2.hyperplane_masks(ctx.r) if a & J == J]
    out = []
    for theta in subsets_of_dim(J, ctx.sigma - 1):
        chi = J & ~theta
        c = gf2.min_point(chi)
        shift = [x ^ c for x in range(ctx.n + 1)]  # translation by c
        for alpha in axes:
            block_map = {b: gf2.map_mask(b, shift)
                         for b in gf2.coset_table(ctx.r, theta)[0]
                         if b & alpha != b}
            nperm = ball.nperm(
                [g.index.get(fiber_apply(ctx, J, theta, block_map,
                                         g.vertices[i])) for i in ball.ids],
                f"fiber map [{gf2.mask_str(theta)}.{gf2.mask_str(chi)}] on "
                f"axis {gf2.mask_str(alpha)}")
            pairs = tuple(sorted((min(b, b2), max(b, b2))
                                 for b, b2 in block_map.items() if b < b2))
            out.append(AutoMap("B", "fiber", theta, alpha,
                               ((theta, chi, pairs),), psi, nperm))
    return out


def synth_generators(g: PencilGraph) -> list[AutoMap]:
    return synth_point_kind(g) + synth_fiber_kind(g)


# ---------------------------------------------------------------------------
# closure


def orbit(seed: int, gens: list[tuple[int, ...]]) -> dict[int, int]:
    """Schreier vector of seed's orbit under gens: each orbit point maps to
    the index of the generator that first reached it, seed to -1 (Seress,
    Permutation Group Algorithms, 2003, 4.1).  Passes over gens repeat
    until none maps the orbit outside itself; one that does is enlarging,
    and the orbit is closed at once under the enlarging ones, so only they
    label points, each at least one."""
    vec, orb, used, size = {seed: -1}, {seed}, [], 0
    while size < len(vec):
        size = len(vec)
        for i, p in enumerate(gens):
            if i in used or orb.issuperset(map(p.__getitem__, orb)):
                continue
            # closed under the other enlarging ones, p alone adds a layer
            used.append(i)
            layer = set(map(p.__getitem__, orb)).difference(orb)
            vec.update(dict.fromkeys(layer, i))
            while layer:
                orb |= layer
                new, layer = layer, set()
                for j in used:
                    fresh = set(map(gens[j].__getitem__, new)).difference(vec)
                    if fresh:
                        vec.update(dict.fromkeys(fresh, j))
                        layer |= fresh
    return vec


_BYTE_POINTS = hrho.identity(8)  # the identity on 256 points


def _gather(h, t):
    """t after h, as one itemgetter gather of t by h."""
    return itemgetter(*h)(t)


def _inverse(h):
    return tuple(sorted(range(len(h)), key=h.__getitem__))


def _byte_inverse(h):
    return bytes.maketrans(h, _BYTE_POINTS)  # maps h[x] to x


def close_permutations(gens: Sequence[Sequence[int]]) -> int:
    """Order of the permutation group generated by the given permutations,
    tuples or bytes of images of 0, 1, ..., all of one length.

    Deterministic Schreier-Sims (Sims 1970; Seress 2003, ch. 4).  Level i
    keeps a base point b_i, the strong generators fixing b_0 .. b_{i-1}
    with their inverses, and the Schreier vector of b_i's orbit under them,
    which gives a coset representative on demand.  On at most 256 points
    each permutation is padded to 256 bytes, fixing the points it does not
    have, and a composition is one ``bytes.translate``; above 256 points it
    is one itemgetter gather.  Every Schreier generator of every level is
    sifted through the levels below it, and a residue that is not the
    identity becomes a new strong generator.  Once all of them sift, the
    order is the product of the basic orbit lengths.
    """
    if not gens:
        return 1
    if len(gens[0]) <= 256:
        gens = [hrho.translate_table(bytes(g)) for g in gens]
        ident, gather, inverse_of = _BYTE_POINTS, bytes.translate, _byte_inverse
    else:
        ident, gather, inverse_of = tuple(range(len(gens[0]))), _gather, _inverse
    base: list[int] = []
    strong: list[list] = []  # level -> strong generators
    inverse: list[list] = []  # level -> their inverses
    vecs: list[dict[int, int]] = []  # level -> Schreier vector of b_i

    def sift(h, i):
        """Strip h through levels i, i+1, ...; (residue, level it stuck at)."""
        for j in range(i, len(base)):
            b, vec, inv = base[j], vecs[j], inverse[j]
            x = h[b]
            if x not in vec:
                return h, j
            while x != b:  # h <- s^-1 h for each label s back to b_j
                t = inv[vec[x]]
                h, x = gather(h, t), t[x]
        return h, len(base)

    def add(h, i, j):
        """Make the residue h (fixing b_0 .. b_{j-1}) a strong generator of
        levels i .. j, opening level j when h fixes every base point."""
        if j == len(base):
            base.append(next(x for x in ident if h[x] != x))
            for level in (strong, inverse, vecs):
                level.append([])
        hinv = inverse_of(h)
        for lv in range(i, j + 1):
            strong[lv].append(h)
            inverse[lv].append(hinv)
            vecs[lv] = orbit(base[lv], strong[lv])

    def residue(i):
        """The first Schreier generator u_{s(beta)}^-1 s u_beta of level i
        that does not sift to the identity, as (residue, level), or None.
        Where the vector labels s(beta) by s, it is the identity."""
        vec, gs, inv = vecs[i], strong[i], inverse[i]
        for beta in vec:
            u, x = ident, beta  # u <- u s for each label s back to b_i
            while (m := vec[x]) >= 0:
                u, x = gather(gs[m], u), inv[m][x]
            for m, s in enumerate(gs):
                if vec[s[beta]] != m:
                    h, j = sift(gather(u, s), i)
                    if h != ident:
                        return h, j
        return None

    for gen in gens:
        h, j = sift(gen, 0)
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
    return prod(map(len, vecs))


def closure_order(gens: list[AutoMap]) -> int:
    """Group order generated by the neighborhood restrictions.

    Raises AutError unless restricting the point kind to N(v) is faithful:
    its tables on the 2^r points, its nperms, and the two side by side
    generate groups of one order, so table -> nperm is an isomorphism.  A
    table fixes its entry permutation, so its group is the one on the graph.
    """
    point = [a for a in gens if a.table is not None]
    orders = {close_permutations([a.table for a in point]),
              close_permutations([a.nperm for a in point]),
              close_permutations([(*a.table, *(len(a.table) + x
                                               for x in a.nperm))
                                  for a in point])}
    if len(orders) != 1:
        raise AutError("neighborhood restriction is not faithful: orders "
                       f"{sorted(orders)} on the points, N(v) and both")
    return close_permutations([a.nperm for a in gens])


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
        return apply_point_map(ctx, a.table, a.psi, v)
    J = a.factors[0][0] | a.factors[0][1]
    w = fiber_apply(ctx, J, a.pi, dict(a.factors[0][2]), v)
    if w is None:
        raise AutError("fiber map undefined on this pencil")
    return w
