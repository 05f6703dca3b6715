"""The auxiliary permutation group on the points of P(rho) and its Cayley graph.

Elements ("A-permutations") are stored as image bytes b with b[0] = 0 and
b[x] = image of x for x in 1..2^rho-1.  Composition is left to right:
(p * q)(x) = q(p(x)), computed as one ``bytes.translate`` call with q (padded
to 256 entries) as the table.  The generators are the involutions p(Q, a)
that fix a hyperplane Q pointwise and map x to a^x off Q.

The p(Q, a) are exactly the transvections of GF(2)^rho, one conjugacy
class of GL(rho, 2).  ``certified_distances`` checks that, and then
certifies the Cayley distance d(g) = rank(g - 1) class by class: a lower
bound from the rank, a matching word peeled off each representative.  The
census and the verbs read their distances from it, and no verb lists the
group.  ``build_group``, a BFS closure, stays as the tests' literal
reference for the elements and their distances at rho <= 4.

``type_of`` writes the nested type expression of a linear element (it raises
HrhoError on any other).  A cycle's dominator is the cycle or fixed point
whose support is the cycle's ds-set; every node renders by one rule, "(" +
length + [_shift, for a loop of one] + grouped children + [next member, for
a longer loop] + ")".
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from pencilgraphs import gf2


class HrhoError(RuntimeError):
    pass


def identity(rho: int) -> bytes:
    return bytes(range(1 << rho))


_PAD = bytes(range(256))


def translate_table(q: bytes) -> bytes:
    """q as a 256-entry table: p.translate(translate_table(q)) == compose(p, q)."""
    return q + _PAD[len(q):]


def compose(p: bytes, q: bytes) -> bytes:
    """Left-to-right product: apply p, then q."""
    return p.translate(q + _PAD[len(q):])  # translate_table(q), inlined


def fixed_points(p: bytes) -> tuple[int, ...]:
    return tuple(x for x in range(1, len(p)) if p[x] == x)


def cycles(p: bytes) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each rotated to start at its minimum, sorted by it."""
    seen = [False] * len(p)
    out = []
    for x in range(1, len(p)):
        if seen[x] or p[x] == x:
            continue
        cyc = [x]
        seen[x] = True
        y = p[x]
        while y != x:
            seen[y] = True
            cyc.append(y)
            y = p[y]
        out.append(tuple(cyc))
    return out


def perm_display(p: bytes, pivot: int | None = None) -> str:
    """Fixed points (pivot first if given), then min-rotated cycles."""
    fixed = list(fixed_points(p))
    if pivot is not None and pivot in fixed:
        fixed.remove(pivot)
        fixed = [pivot] + fixed
    s = "".join(gf2.point_str(x) for x in fixed)
    for cyc in cycles(p):
        s += "(" + "".join(gf2.point_str(x) for x in cyc) + ")"
    if not s:
        s = "()"
    return s


def parse_perm(rho: int, text: str) -> bytes:
    """Inverse of perm_display: 'abc(de)(fg)' with extended-hex symbols."""
    n = (1 << rho) - 1
    img = list(range(n + 1))
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            j = text.index(")", i)
            cyc = gf2.parse_points(text[i + 1 : j])
            for k, x in enumerate(cyc):
                img[x] = cyc[(k + 1) % len(cyc)]
            i = j + 1
        else:
            i += 1  # fixed point symbol
    return bytes(img)


def _check_hyperplane(rho: int, q_mask: int) -> None:
    if q_mask.bit_count() != (1 << (rho - 1)) - 1 or not gf2.is_xor_closed(q_mask):
        raise HrhoError(f"Q is not a hyperplane: {gf2.mask_str(q_mask)}")


def _involution(rho: int, q_mask: int, a: int) -> bytes:
    """p(Q, a) for a Q and a pivot the caller has checked."""
    n = (1 << rho) - 1
    img = bytearray(range(n + 1))
    for x in range(1, n + 1):
        if not q_mask >> x & 1:
            img[x] = a ^ x
    return bytes(img)


def pQa(rho: int, q_mask: int, a: int) -> bytes:
    """The involution fixing hyperplane Q pointwise, x -> a^x off Q."""
    _check_hyperplane(rho, q_mask)
    if not q_mask >> a & 1:
        raise HrhoError(f"pivot {a} not in Q")
    return _involution(rho, q_mask, a)


def generators(rho: int) -> list[tuple[int, int, bytes]]:
    """All (Q, a) pairs with their permutations; (2^rho-1)(2^(rho-1)-1) many.
    Each Q is checked once; every pivot a is a point of its Q."""
    out = []
    for q in gf2.hyperplane_masks(rho):
        _check_hyperplane(rho, q)
        out += [(q, a, _involution(rho, q, a)) for a in gf2.points_of(q)]
    return out


@lru_cache(maxsize=None)
def _xor_table(n: int) -> bytes:
    return bytes(x ^ n for x in range(256))


def doubling(psi: bytes) -> bytes:
    """Embed a permutation of [1, 2^(rho-1)-1] into [1, 2^rho-1]."""
    # n ^ x = n - x, so image n ^ psi(x) sits at position n - x: psi read
    # backwards, each byte xor n; psi[0] == 0 puts n at position n
    return psi + psi[::-1].translate(_xor_table(2 * len(psi) - 1))


def p_rho(rho: int) -> bytes:
    """p(Q*, 2^(rho-1)) with Q* spanned by 2^(rho-1) and the initial copy."""
    top = 1 << (rho - 1)
    lower = [x for x in range(1, 1 << (rho - 2))] if rho >= 2 else []
    q = gf2.span_mask([top] + lower)
    return pQa(rho, q, top)


@lru_cache(maxsize=None)
def j_rho(rho: int) -> bytes:
    """The distinguished fixed-point-free element, p_rho * q_rho."""
    if rho < 2:
        raise HrhoError("rho must be >= 2")
    if rho == 2:
        q = parse_perm(2, "3(12)")
    else:
        q = doubling(j_rho(rho - 1))
    return compose(p_rho(rho), q)


def two_line_lower(rho: int) -> tuple[int, ...]:
    """Lower level of the two-line form of j_rho: images of 1..2^rho-1."""
    j = j_rho(rho)
    return tuple(j[1:])


def eta_by_rules(rho: int) -> tuple[int, ...]:
    """The alternate construction of the two-line lower level.

    Pairs 12, 34, .. fill the leftmost/rightmost free slot pairs alternately
    (rightmost first), skipping the reserved slot 2^(rho-1)-1 which takes
    2^rho-1 at the end.
    """
    n = (1 << rho) - 1
    reserved = (1 << (rho - 1)) - 1
    slots = [i for i in range(1, n + 1) if i != reserved]
    slot_pairs = [(slots[k], slots[k + 1]) for k in range(0, len(slots), 2)]
    pairs = [(2 * i - 1, 2 * i) for i in range(1, (n + 1) // 2)]
    eta = [0] * (n + 1)
    lo, hi = 0, len(slot_pairs) - 1
    right = True
    for pr in pairs:
        if right:
            a, b = slot_pairs[hi]
            hi -= 1
        else:
            a, b = slot_pairs[lo]
            lo += 1
        eta[a], eta[b] = pr
        right = not right
    eta[reserved] = n
    return tuple(eta[1:])


def f_slot(rho: int, j: int) -> int:
    """Closed form for the two-line lower level (corrected index ranges)."""
    n = (1 << rho) - 1
    half = 1 << (rho - 1)
    if j == half - 1:
        return n
    if j < half - 1:
        return 2 * (j + 1) - 1 if j & 1 else 2 * j
    k = (1 << rho) - j  # distance from the right end, 1-based
    return 4 * ((k - 1) // 2) + 2 if k & 1 else 4 * (k // 2 - 1) + 1


def zeta(rho: int) -> int:
    """The subspace mask of the leftmost 2^(rho-1)-1 symbols of the lower level."""
    eta = two_line_lower(rho)
    m = gf2.mask_of(eta[: (1 << (rho - 1)) - 1])
    if not gf2.is_xor_closed(m):
        raise HrhoError("zeta is not a subspace")
    return m


def w_rho(rho: int, j: int) -> bytes:
    """j_rho * p(zeta, f(j)), the farthest-or-next vertex representatives."""
    return compose(j_rho(rho), pQa(rho, zeta(rho), f_slot(rho, j)))


# ---------------------------------------------------------------------------
# cycle types


def ds_cycle(cyc: tuple[int, ...]) -> tuple[int, ...]:
    """Consecutive XOR differences d_i = a_i ^ a_(i+1 mod x)."""
    x = len(cyc)
    if x < 2:
        raise HrhoError("ds-cycle of a fixed point")
    return tuple(cyc[i] ^ cyc[(i + 1) % x] for i in range(x))


def _grouped(parts: list[str], run: str) -> str:
    """parts sorted, each run of k > 1 equal parts written once as
    run % (part, k)."""
    if len(parts) < 2:
        return "".join(parts)
    out = ""
    for part, same in groupby(sorted(parts)):
        k = len(list(same))
        out += part if k == 1 else run % (part, k)
    return out


def type_of(p: bytes) -> str:
    """The nested type expression of a linear p; (1) for the identity.

    The dominator of a cycle c is the cycle or fixed point holding
    d = c[0] ^ p(c[0]).  For linear p the ds-set of c is the p-orbit of d,
    so it is exactly the support of the dominator, and dominator arrows end
    at a fixed point or in a loop of equally long cycles.  Every node renders
    by one rule: "(" + length + [_shift, for a loop of one] + its grouped
    children off the loop + [next member, for a longer loop] + ")".  A loop
    is written from its least member c0 down its dominated members, each
    rotated so that its ds-cycle reads as the member before it; the last
    member closes with "(_y)", y the shift with ds(c0)[i] == last[i - y].
    As q(x) = x ^ p(x) commutes with p, that is the y with q^k(c0[0]) ==
    c0[-y], k the loop's length.  The roots are the loops and the fixed
    points with children; equal roots are written once with ^k, equal
    children once as (child^k).
    """
    _check_linear(p)
    cycs = cycles(p)
    if not cycs:
        return "(1)"
    fixed = [(b,) for b in fixed_points(p)]
    owner = {x: c for c in cycs + fixed for x in c}
    dom = {c: owner[c[0] ^ p[c[0]]] for c in cycs}
    kids = {c: [] for c in cycs + fixed}
    loops, seen = [], set()
    for c in cycs:
        kids[dom[c]].append(c)
        path, d = [], c
        while d in dom and d not in seen:
            seen.add(d)
            path.append(d)
            d = dom[d]
        if d in path:
            loops.append(path[path.index(d):])
    on_loop = {c for loop in loops for c in loop}

    def render(c, mark="", nxt=""):
        return (f"({len(c)}{mark}"
                + _grouped([render(k) for k in kids[c] if k not in on_loop],
                           "(%s^%d)")
                + nxt + ")")

    roots = [render(b) for b in fixed if kids[b]]
    for loop in loops:  # each listed up its dominator arrows
        i = loop.index(min(loop))
        c0, x = loop[i], loop[i][0]
        for _ in loop:
            x ^= p[x]
        y = -c0.index(x) % len(c0)
        if len(loop) == 1:
            roots.append(render(c0, f"_{y}"))
            continue
        text = f"(_{y})"
        for c in loop[i + 1:] + loop[:i] + [c0]:  # up from dom(c0) to c0
            text = render(c, nxt=text)
        roots.append(text)
    return _grouped(roots, "%s^%d")


def super_type(p: bytes) -> tuple[tuple[int, int], ...]:
    """Multiset of nontrivial cycle lengths as ((length, multiplicity), ..)."""
    lens: dict[int, int] = {}
    for c in cycles(p):
        lens[len(c)] = lens.get(len(c), 0) + 1
    if not lens:
        return ((1, 1),)
    return tuple(sorted(lens.items()))


def super_type_str(st: tuple[tuple[int, int], ...]) -> str:
    return "".join(
        f"({ln})" + (f"^{m}" if m > 1 else "") for ln, m in st
    )


# ---------------------------------------------------------------------------
# group closure, Cayley distances, census


def group_order_formula(rho: int) -> int:
    out = 1
    for i in range(1, rho + 1):
        out *= (1 << (i - 1)) * ((1 << i) - 1)
    return out


@dataclass
class GroupStore:
    rho: int
    elements: list[bytes]
    index: dict[bytes, int]
    distance: list[int]

    def __len__(self) -> int:
        return len(self.elements)


GROUP_CAP = 1 << 22


def _check_linear(g: bytes) -> None:
    """Raise unless g is a permutation fixing 0 and GF(2)-linear.

    g[x] == g[lowest bit of x] ^ g[rest of x] for every x is additivity,
    checked one bit at a time, and over GF(2) additivity is linearity.
    """
    if sorted(g) != list(range(len(g))) or g[0] != 0:
        raise HrhoError("element is not a permutation fixing 0")
    for x in range(1, len(g)):
        if g[x] != g[x & -x] ^ g[x & (x - 1)]:
            raise HrhoError(f"element is not linear at point {x}")


@lru_cache(maxsize=None)
def build_group(rho: int) -> GroupStore:
    """BFS closure of the p(Q, a) generators; also yields Cayley distances.

    No verb calls it: it is the tests' literal reference for the class
    certificate's distances, the census and the cosets at rho <= 4.
    Every generator is checked to be linear, so the closure lies in
    GL(rho, 2), and the BFS stops the moment it holds |GL(rho, 2)| elements:
    then it is all of GL(rho, 2), and expanding further finds nothing new.
    Each distance is fixed when its element is first found, so stopping
    early changes neither the elements, their order nor their distances.
    """
    expected = group_order_formula(rho)
    if expected > GROUP_CAP:
        raise HrhoError(
            f"group order {expected} exceeds cap {GROUP_CAP}; "
            "use the coset machinery for rho >= 5"
        )
    gens = generators(rho)
    for _, _, g in gens:
        _check_linear(g)
    tables = [translate_table(g) for _, _, g in gens]
    ident = identity(rho)
    elements = [ident]
    index = {ident: 0}
    distance = [0]
    frontier = [ident]
    depth = 0
    while frontier and len(elements) < expected:
        depth += 1
        nxt = []
        for p in frontier:
            for t in tables:
                q = p.translate(t)
                if q not in index:
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
            if len(elements) == expected:
                break
        distance += [depth] * len(nxt)
        frontier = nxt
    if len(elements) != expected:
        raise HrhoError(
            f"closure has {len(elements)} elements, expected {expected}"
        )
    return GroupStore(rho, elements, index, distance)


def check_distance_law(store: GroupStore) -> bool:
    """log2(1 + #fixed) + d == rho for every element."""
    rho = store.rho
    ident = identity(rho)
    for p, d in zip(store.elements, store.distance):
        f = sum(map(operator.eq, p, ident)) - 1  # every element fixes 0
        if (1 + f).bit_count() != 1 or (1 + f).bit_length() - 1 + d != rho:
            return False
    return True


def cayley_diameter(store: GroupStore) -> int:
    return max(store.distance)


def table_census(store: GroupStore) -> dict[tuple, tuple[int, int]]:
    """super_type -> (distance, count); fails if d is not constant per type."""
    out: dict[tuple, tuple[int, int]] = {}
    for p, d in zip(store.elements, store.distance):
        st = super_type(p)
        if st in out:
            d0, c = out[st]
            if d0 != d:
                raise HrhoError(f"distance not constant on super-type {st}")
            out[st] = (d0, c + 1)
        else:
            out[st] = (d, 1)
    return out


# ---------------------------------------------------------------------------
# census by conjugacy class
#
# H is all of GL(rho, 2), and a super-type is a cycle type, constant on a
# conjugacy class, as the Cayley distance is (both by certified_distances,
# below).  So the census is a sum over the classes, each
# adding |GL| / |C(g)| elements.  A class is its primary rational canonical
# form: a partition lambda_phi for each monic irreducible phi != x, with
# sum deg(phi) |lambda_phi| = rho.  Its centralizer has order
# prod c_lambda(2^deg(phi)), c_lambda(Q) = Q^(sum lambda'_i^2)
# prod_i prod_(k <= m_i) (1 - Q^-k), m_i the multiplicity of the part i
# (Macdonald, Symmetric Functions and Hall Polynomials, ch. IV; Fulman,
# "Random matrix theory over finite fields", Bull. AMS 39 (2002)).
# Polynomials over GF(2) are bit masks, bit i the coefficient of x^i.


def _pmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _irreducibles(rho: int) -> list[int]:
    """Monic irreducibles of degree 1..rho other than x, by degree."""
    polys = range(2, 2 << rho)  # degree 1..rho
    reducible = {_pmul(a, b) for a in polys for b in polys
                 if a.bit_length() + b.bit_length() <= rho + 2}
    return [f for f in range(3, 2 << rho, 2) if f not in reducible]


def _partitions(m: int, top: int):
    """Non-increasing tuples of parts <= top summing to m."""
    if m == 0:
        yield ()
    for k in range(min(m, top), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _class_forms(rho: int, irr: list[int]):
    """Each class as [(phi, lambda), ..] with sum deg(phi) |lambda| == rho."""
    if not irr:
        if rho == 0:
            yield []
        return
    phi, d = irr[0], irr[0].bit_length() - 1
    for m in range(rho // d + 1):
        for lam in _partitions(m, m):
            for rest in _class_forms(rho - d * m, irr[1:]):
                yield ([(phi, lam)] if m else []) + rest


def _centralizer_order(form) -> tuple[int, int]:
    """|C(g)| as num / den, each 1 - Q^-k written as (Q^k - 1) / Q^k."""
    num = den = 1
    for phi, lam in form:
        q = 1 << (phi.bit_length() - 1)
        conj = [sum(1 for p in lam if p > i) for i in range(lam[0])]
        num *= q ** sum(v * v for v in conj)
        for part in set(lam):
            for k in range(1, lam.count(part) + 1):
                num *= q**k - 1
                den *= q**k
    return num, den


def _class_rep(rho: int, form) -> bytes:
    """Block diagonal of the companion matrices of each phi^k, on the points."""
    col: list[int] = []  # image of each basis bit
    for phi, lam in form:
        for k in lam:
            f = 1
            for _ in range(k):
                f = _pmul(f, phi)
            d, off = f.bit_length() - 1, len(col)
            col += [1 << (off + i + 1) for i in range(d - 1)]
            col.append((f ^ 1 << d) << off)
    return gf2.linear_table(rho, col)


def conjugacy_classes(rho: int) -> list[tuple[bytes, int]]:
    """(representative, class size) for every class of GL(rho, 2).

    Raises unless every centralizer order is an integer dividing |GL| and
    the class sizes sum to |GL|.
    """
    order = group_order_formula(rho)
    out = []
    for form in _class_forms(rho, _irreducibles(rho)):
        num, den = _centralizer_order(form)
        c, rem = divmod(num, den)
        if rem or order % c:
            raise HrhoError(
                f"centralizer order {num}/{den} does not divide {order}"
            )
        out.append((_class_rep(rho, form), order // c))
    if sum(size for _, size in out) != order:
        raise HrhoError(f"class sizes do not sum to {order}")
    return out


# ---------------------------------------------------------------------------
# Cayley distances by a class certificate
#
# For linear g, Fix(g) = ker(g - 1) is a subspace, so 1 + #fixed is
# 2^dim Fix(g), and the residue rank(g - 1) is rho - dim Fix(g).


def residue(g: bytes) -> int:
    """rank(g - 1) = rho - log2(1 + #fixed) for a linear g."""
    ones = sum(map(operator.eq, g, _PAD))  # 0 and the fixed points
    if ones.bit_count() != 1:
        raise HrhoError(f"1 + #fixed = {ones} is not a power of two")
    return (len(g) // ones).bit_length() - 1


@lru_cache(maxsize=None)
def certified_generators(rho: int) -> tuple[bytes, ...]:
    """The generators' permutations, once certified to be every transvection.

    Each is checked to be linear with residue 1: it fixes a hyperplane
    pointwise, t(z) = z + phi(z) u.  Over GF(2), t(u) = (1 + phi(u)) u is
    nonzero only if phi(u) = 0, so t is a transvection.  There are
    (2^rho - 1)(2^(rho-1) - 1) of those, one per nonzero phi and nonzero u
    in ker phi, so that many distinct generators are all of them.  Cached:
    the class certificate, the coset label and the orders read one tuple.
    """
    gens = tuple(g for _, _, g in generators(rho))
    for t in gens:
        _check_linear(t)
        if residue(t) != 1:
            raise HrhoError(f"generator {perm_display(t)} is not a transvection")
    expected = ((1 << rho) - 1) * ((1 << (rho - 1)) - 1)
    if len(set(gens)) != len(gens) or len(gens) != expected:
        raise HrhoError(f"{len(set(gens))} distinct generators of {len(gens)}, "
                        f"expected {expected} transvections")
    return gens


def _peel_factor(rho: int, h: bytes) -> bytes | None:
    """A transvection t with t(h(x)) = x at the least point x that h moves,
    fixing Fix(h) pointwise, so Fix(t h) holds Fix(h) and x.

    t = p(Q, u) with u = x ^ h(x) and Q a hyperplane through Fix(h) and u,
    missing x: then h(x) = x ^ u is off Q, and t maps it to x.  For linear
    h, x lies outside the span of Fix(h) and u, so such a Q exists; None
    if there is none.
    """
    x = next(x for x in range(1, len(h)) if h[x] != x)
    u = x ^ h[x]
    need = gf2.mask_of(fixed_points(h)) | 1 << u
    for q in gf2.hyperplane_masks(rho):
        if q & need == need and not q >> x & 1:
            return _involution(rho, q, u)
    return None


def _peeled_length(rho: int, g: bytes, gens: frozenset[bytes]) -> int | None:
    """residue(g) when g peels down to the identity one generator at a
    time, each factor lowering the residue by exactly one; else None."""
    h, r = g, residue(g)
    for k in range(r - 1, -1, -1):  # the residue after each factor
        t = _peel_factor(rho, h)
        if t not in gens:
            return None
        h = compose(h, t)
        if residue(h) != k:
            return None
    return r


def certified_distances(rho: int) -> list[tuple[bytes, int, int | None]]:
    """(representative, class size, Cayley distance) for every class of
    ``conjugacy_classes(rho)``; the distance is None where the peel fails.

    The generators are first certified to be the whole transvection class
    (raising HrhoError otherwise).  That set is closed under conjugation,
    so a word for g conjugates letter by letter into one for h g h^-1, and
    the Cayley distance is a class function.  Lower bound: t g - 1 =
    t (g - 1) + (t - 1), so one transvection raises the residue by at most
    one, and a word of k generators has residue at most k: d(g) >=
    rank(g - 1) (O'Meara, Lectures on Linear Groups, 1974).  Upper bound:
    ``_peeled_length`` writes g as a word of exactly rank(g - 1)
    generators.  So a certified class has d = rank(g - 1) = rho -
    log2(1 + #fixed), the distance law, on every element.  When every
    class is certified, the group of the generators holds an element of
    every class and, being generated by a class, is normal: it is all of
    GL(rho, 2).  The diameter and the census read the list this returns.
    """
    gens = frozenset(certified_generators(rho))
    return [(g, size, _peeled_length(rho, g, gens))
            for g, size in conjugacy_classes(rho)]


def certified_diameter(classes) -> int | None:
    """The Cayley diameter of ``certified_distances`` classes when every
    class is certified, else None."""
    dists = [d for _, _, d in classes]
    return None if None in dists else max(dists)


def class_census(classes) -> dict[tuple, tuple[int, int]]:
    """super_type -> (distance, count) over ``certified_distances`` classes
    of GL(rho, 2); the same dict as ``table_census(build_group(rho))``,
    without the group.  Raises HrhoError on a class without a certified
    distance, or on two distances for one super type."""
    out: dict[tuple, tuple[int, int]] = {}
    for g, size, d in classes:
        if d is None:
            raise HrhoError(f"no certified distance for {perm_display(g)}")
        st = super_type(g)
        d0, count = out.get(st, (d, 0))
        if d0 != d:
            raise HrhoError(f"distance not constant on super-type {st}")
        out[st] = (d, count + size)
    return out


def census_rows(classes) -> list[tuple[str, int, int]]:
    """The census of ``certified_distances`` classes as (super_type_str,
    distance, count) rows, by distance and then super type."""
    return sorted(((super_type_str(st), d, c)
                   for st, (d, c) in class_census(classes).items()),
                  key=lambda t: (t[1], t[0]))


# ---------------------------------------------------------------------------
# cosets of the doubled subgroup
#
# Every p(Q, a) is GF(2)-linear, so H lies in GL(rho, 2).  Let n be the top
# point and L the hyperplane of the points below 2^(rho-1).  The stabilizer
# of the pair (n, L) in GL(rho, 2) acts as any element of GL(L) = GL(rho-1, 2)
# on L and fixes n: that is the doubled GL(rho-1, 2), K.  By orbit-stabilizer,
# g and h lie in one left coset g*K exactly when g^-1(n) = h^-1(n) and
# g^-1(L) = h^-1(L).  The label ``h.translate(_label_table(rho))`` marks each
# point x by whether h(x) is n, lies in L, or neither, so it encodes both
# preimages in one bytes object: each coset has an exact label, not a hash.


def _label_table(rho: int) -> bytes:
    """Translate table: 1 on the points of L, 2 on the top point, else 0."""
    n = (1 << rho) - 1
    half = 1 << (rho - 1)
    return bytes(1 if 0 < y < half else 2 if y == n else 0 for y in range(256))


def coset_index_formula(rho: int) -> int:
    half = 1 << (rho - 1)
    quarter = 1 << (rho - 2)
    return 1 + 2 * (half - 1) + quarter * (half - 1) * 3 + (quarter - 1) * (half - 1)


@lru_cache(maxsize=None)
def certified_coset_label(rho: int) -> tuple[bytes, tuple[bytes, ...]]:
    """The label table and the rho generators, once the labels are certified.

    Raises HrhoError unless (i) the rho and the rho - 1 generators pass
    ``certified_generators``, so each is linear and a label is a hyperplane
    and a point off it, at most ``coset_index_formula`` of them; (ii) every
    doubled rho - 1 generator is a rho generator fixing the label table, so
    K lies in H and in the stabilizer of (n, L); (iii) the order of the
    group of the rho - 1 generators, which doubling carries onto K, times
    that index is |GL(rho, 2)|, so K is the stabilizer.  Equal labels then
    mean one coset of K in GL(rho, 2).  The order is closed by
    Schreier-Sims, without listing K.  Cached: the coset walk and the
    category check read one certificate per rho.
    """
    from pencilgraphs.autnr import close_permutations  # autnr imports hrho

    label = _label_table(rho)
    gens = certified_generators(rho)
    sub = certified_generators(rho - 1)
    gen_set = set(gens)
    for g in sub:
        d = doubling(g)
        if d not in gen_set or d.translate(label) != label[:len(d)]:
            raise HrhoError(
                "a doubled generator is not a generator fixing the coset label"
            )
    if (close_permutations(sub) * coset_index_formula(rho)
            != group_order_formula(rho)):
        raise HrhoError(
            "the doubled subgroup is not the stabilizer of the coset label"
        )
    return label, gens


def coset_partition(rho: int) -> list[list[int]]:
    """Left cosets g*K of the doubled subgroup as sorted lists of element
    indices, in order of their least member: the closed group grouped by
    label.  The program counts cosets by ``hrho_heavy.coset_reps_heavy`` at
    every rho >= 3; this grouping is the literal reference for that walk."""
    label, _ = certified_coset_label(rho)
    cosets: dict[bytes, list[int]] = {}
    for i, g in enumerate(build_group(rho).elements):
        cosets.setdefault(g.translate(label), []).append(i)
    expected = coset_index_formula(rho)
    if len(cosets) != expected:
        raise HrhoError(f"found {len(cosets)} cosets, expected {expected}")
    return list(cosets.values())


def category_reps(rho: int) -> dict[str, list[bytes]]:
    """Representatives for categories a, b_alpha, b_beta, c."""
    n = (1 << rho) - 1
    initial = (1 << (1 << (rho - 1))) - 2
    reps: dict[str, list[bytes]] = {"a": [identity(rho)]}
    reps["b_alpha"] = [pQa(rho, initial, a) for a in gf2.points_of(initial)]
    reps["b_beta"] = [
        pQa(rho, q, n) for q in gf2.hyperplane_masks(rho) if q >> n & 1
    ]
    cs = []
    for q in gf2.hyperplane_masks(rho):
        if q >> n & 1 or q == initial:
            continue
        for a in gf2.points_of(q):
            if a > (1 << (rho - 1)) - 1 and (n ^ a) & ((1 << (rho - 1)) - 1) == n ^ a:
                cs.append(pQa(rho, q, a))
    reps["c"] = cs
    return reps


def verify_category_cosets(rho: int) -> dict[str, int]:
    """Check a/b/c reps lie in pairwise distinct cosets g*K of the doubled
    subgroup, that is, carry distinct certified labels; return counts."""
    label, _ = certified_coset_label(rho)
    reps = category_reps(rho)
    seen: dict[bytes, str] = {}
    for cat, lst in reps.items():
        for g in lst:
            key = g.translate(label)
            if key in seen:
                raise HrhoError(f"coset collision between {seen[key]} and {cat}")
            seen[key] = cat
    return {cat: len(lst) for cat, lst in reps.items()}
