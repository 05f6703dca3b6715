"""The auxiliary permutation group on the points of P(rho) and its Cayley graph.

Elements ("A-permutations") are stored as image bytes b with b[0] = 0 and
b[x] = image of x for x in 1..2^rho-1.  Composition is left to right:
(p * q)(x) = q(p(x)), computed as one ``bytes.translate`` call with q (padded
to 256 entries) as the table.  The generators are the involutions p(Q, a)
that fix a hyperplane Q pointwise and map x to a^x off Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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


def inverse(p: bytes) -> bytes:
    out = bytearray(len(p))
    for x, y in enumerate(p):
        out[y] = x
    return bytes(out)


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


def pQa(rho: int, q_mask: int, a: int) -> bytes:
    """The involution fixing hyperplane Q pointwise, x -> a^x off Q."""
    n = (1 << rho) - 1
    if q_mask.bit_count() != (1 << (rho - 1)) - 1 or not gf2.is_xor_closed(q_mask):
        raise HrhoError(f"Q is not a hyperplane: {gf2.mask_str(q_mask)}")
    if not q_mask >> a & 1:
        raise HrhoError(f"pivot {a} not in Q")
    img = bytearray(range(n + 1))
    for x in range(1, n + 1):
        if not q_mask >> x & 1:
            img[x] = a ^ x
    return bytes(img)


def generators(rho: int) -> list[tuple[int, int, bytes]]:
    """All (Q, a) pairs with their permutations; (2^rho-1)(2^(rho-1)-1) many."""
    out = []
    for q in gf2.hyperplane_masks(rho):
        for a in gf2.points_of(q):
            out.append((q, a, pQa(rho, q, a)))
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


@dataclass
class TypeExpr:
    """Nested domination expression for one component of a permutation."""

    text: str
    weight: int
    flagged: bool = False

    def __str__(self) -> str:
        return self.text


def _shift_of(seq: tuple[int, ...], ref: tuple[int, ...]) -> int:
    """y with seq[i] == ref[(i - y) mod x], or -1."""
    x = len(seq)
    for y in range(x):
        if all(seq[i] == ref[(i - y) % x] for i in range(x)):
            return y
    return -1


def type_of(p: bytes):
    """The nested type expression; (1) for the identity.

    Each cycle is dominated by the cycle or fixed point whose support equals
    the set of its consecutive differences; domination cycles get a shift
    subscript computed by aligning each dominated member's ds-cycle with its
    dominator.  Elements whose ds-supports match nothing are flagged.
    """
    cycs = cycles(p)
    if not cycs:
        return TypeExpr("(1)", len(p) - 1)
    fixed = set(fixed_points(p))
    support = {frozenset(c): c for c in cycs}
    dom: dict[tuple[int, ...], tuple] = {}
    flagged = False
    for c in cycs:
        ds = ds_cycle(c)
        target = frozenset(ds)
        if len(target) == 1:
            (b,) = target
            dom[c] = ("fixed", b) if b in fixed else ("none", None)
            if b not in fixed:
                flagged = True
        elif target in support:
            dom[c] = ("cycle", support[target])
        else:
            dom[c] = ("none", None)
            flagged = True

    children: dict = {("fixed", b): [] for b in fixed}
    for c in cycs:
        children[("cycle", c)] = []
    for c in cycs:
        kind, d = dom[c]
        if kind != "none":
            children[(kind, d)].append(c)

    # walk domination arrows to find cycles of cycles
    color: dict = {}
    comp_cycles: list[list] = []
    for c in cycs:
        if c in color:
            continue
        path, node = [], c
        pos = {}
        while True:
            if node in color:
                for q in path:
                    color[q] = "done"
                break
            if node in pos:
                loop = path[pos[node]:]
                comp_cycles.append(loop)
                for q in path:
                    color[q] = "done"
                break
            pos[node] = len(path)
            path.append(node)
            kind, d = dom[node]
            if kind != "cycle":
                for q in path:
                    color[q] = "done"
                break
            node = d

    def render_children(node_key, skip=None) -> str:
        subs = [c for c in children.get(node_key, []) if c is not skip]
        parts = sorted(render_tree(c) for c in subs)
        out = ""
        i = 0
        while i < len(parts):
            j = i
            while j < len(parts) and parts[j] == parts[i]:
                j += 1
            if j - i > 1:
                out += f"({parts[i]}^{j - i})"
            else:
                out += parts[i]
            i = j
        return out

    in_loop = set()
    for loop in comp_cycles:
        in_loop.update(loop)

    def render_tree(c) -> str:
        # c is a cycle that is not part of a domination loop
        return f"({len(c)}" + render_children(("cycle", c)) + ")"

    exprs = []
    used_fixed = set()
    for b in sorted(fixed):
        if children[("fixed", b)]:
            used_fixed.add(b)
            exprs.append("(1" + render_children(("fixed", b)) + ")")
    for loop in comp_cycles:
        if len(loop) == 1:
            c = loop[0]
            ds = ds_cycle(c)
            y = _shift_of(ds, c)
            exprs.append(
                f"({len(c)}_{y}" + render_children(("cycle", c), skip=c) + ")"
            )
        else:
            # Write c1 freely, then each cycle it dominates rotated so that
            # its ds-cycle reads exactly like the previous written form; the
            # closing shift y aligns ds(c1) with the last written member.
            # Loop detection followed dominator arrows, so the dominated
            # chain is the loop anchor followed by the rest reversed.
            chain = [loop[0]] + list(reversed(loop[1:]))
            written = [chain[0]]
            ok = True
            for nxt in chain[1:]:
                rot = None
                for k in range(len(nxt)):
                    cand = nxt[k:] + nxt[:k]
                    if ds_cycle(cand) == written[-1]:
                        rot = cand
                        break
                if rot is None:
                    ok = False
                    break
                written.append(rot)
            y = _shift_of(ds_cycle(written[0]), written[-1]) if ok else -1
            inner = f"(_{y})"
            for c in reversed(written[1:]):
                inner = f"({len(c)}" + render_children(("cycle", c), skip=None) + inner + ")"
            exprs.append(f"({len(written[0])}" + inner + ")")
            if y < 0:
                flagged = True

    # orphan cycles (flagged): render bare
    for c in cycs:
        kind, _ = dom[c]
        if kind == "none":
            exprs.append(f"[{len(c)}?]")

    parts = sorted(exprs)
    text = ""
    i = 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        text += parts[i] + (f"^{j - i}" if j - i > 1 else "")
        i = j
    weight = sum(len(c) for c in cycs) + len(fixed)
    return TypeExpr(text, weight, flagged)


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
    generators: list[tuple[int, int, bytes]] = field(repr=False, default_factory=list)

    def __len__(self) -> int:
        return len(self.elements)


GROUP_CAP = 1 << 22


@lru_cache(maxsize=None)
def build_group(rho: int) -> GroupStore:
    """BFS closure of the p(Q, a) generators; also yields Cayley distances."""
    expected = group_order_formula(rho)
    if expected > GROUP_CAP:
        raise HrhoError(
            f"group order {expected} exceeds cap {GROUP_CAP}; "
            "use the coset machinery for rho >= 5"
        )
    gens = generators(rho)
    tables = [translate_table(g) for _, _, g in gens]
    ident = identity(rho)
    elements = [ident]
    index = {ident: 0}
    distance = [0]
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for p in frontier:
            for t in tables:
                q = p.translate(t)
                if q not in index:
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        distance += [depth] * len(nxt)
        frontier = nxt
    if len(elements) != expected:
        raise HrhoError(
            f"closure has {len(elements)} elements, expected {expected}"
        )
    return GroupStore(rho, elements, index, distance, gens)


def check_distance_law(store: GroupStore) -> bool:
    """log2(1 + #fixed) + d == rho for every element."""
    rho = store.rho
    for p, d in zip(store.elements, store.distance):
        f = sum(1 for x in range(1, len(p)) if p[x] == x)
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
# cosets of the doubled subgroup


def doubled_subgroup(rho: int) -> frozenset[bytes]:
    sub = build_group(rho - 1)
    return frozenset(doubling(p) for p in sub.elements)


def coset_index_formula(rho: int) -> int:
    half = 1 << (rho - 1)
    quarter = 1 << (rho - 2)
    return 1 + 2 * (half - 1) + quarter * (half - 1) * 3 + (quarter - 1) * (half - 1)


def coset_partition(rho: int) -> list[list[int]]:
    """Left cosets g*K of the doubled subgroup; lists of element indices."""
    store = build_group(rho)
    K = doubled_subgroup(rho)
    k_set = set(K)
    assigned = [-1] * len(store.elements)
    cosets: list[list[int]] = []
    for i, g in enumerate(store.elements):
        if assigned[i] >= 0:
            continue
        cid = len(cosets)
        members = []
        for k in K:
            j = store.index[compose(g, k)]
            if assigned[j] >= 0:
                raise HrhoError(f"element {j} lies in two cosets")
            assigned[j] = cid
            members.append(j)
        cosets.append(sorted(members))
    return cosets


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
    subgroup; return counts.  g and h share a coset exactly when
    compose(inverse(g), h) lies in K."""
    K = doubled_subgroup(rho)
    reps = category_reps(rho)
    flat = [(cat, g) for cat, lst in reps.items() for g in lst]
    for i, (cat_i, g) in enumerate(flat):
        inv = inverse(g)
        for cat_j, h in flat[i + 1:]:
            if compose(inv, h) in K:
                raise HrhoError(
                    f"coset collision between {cat_i} and {cat_j}"
                )
    return {cat: len(lst) for cat, lst in reps.items()}
