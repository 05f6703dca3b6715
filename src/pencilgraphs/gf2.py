"""Binary projective space P(r) over GF(2), done on machine integers.

Points are the integers 1..2^r-1, each standing for a nonzero r-bit vector.
The third point of the line through a and b is a ^ b.  Point sets are kept
as bitmasks (bit i set <=> point i in the set), which makes membership,
intersection and translation single integer ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations


class Gf2Error(ValueError):
    pass


def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def points_of(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise Gf2Error(f"negative point mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def map_mask(mask: int, table) -> int:
    """Image of a point set under a point table: {table[p] : p in mask}."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << table[low.bit_length() - 1]
        mask ^= low
    return out


def min_point(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def is_xor_closed(mask: int) -> bool:
    """True iff the point set together with 0 is GF(2)-linear."""
    pts = points_of(mask)
    n1 = len(pts) + 1
    if n1 & (n1 - 1):
        return False
    for a, b in combinations(pts, 2):
        if not mask >> (a ^ b) & 1:
            return False
    return True


def span_mask(points) -> int:
    """Mask of the nonzero part of the GF(2)-linear span of the points."""
    basis: list[int] = []
    for p in points:
        for b in basis:
            p = min(p, p ^ b)
        if p:
            basis.append(p)
    mask = 0
    span = [0]
    for b in basis:
        span += [s ^ b for s in span]
    for s in span[1:]:
        mask |= 1 << s
    return mask


def linear_table(r: int, images) -> bytes:
    """Point table of the linear map of GF(2)^r sending point 1 << i to
    images[i]: entry x is the xor of the images of the bits of x."""
    table = [0]
    for x in range(1, 1 << r):
        table.append(table[x & (x - 1)] ^ images[(x & -x).bit_length() - 1])
    return bytes(table)


@dataclass(frozen=True)
class SpaceCtx:
    """Parameters of one (r, sigma) instance.

    Each derived value is computed on first access and then kept on the
    instance; equality, hash and repr read only (r, sigma).
    """

    r: int
    sigma: int

    def __post_init__(self):
        # points are bytes in the frontier keys, and homog has primitive
        # polynomials up to r = 8, the paper's largest r
        if not 3 <= self.r <= 8:
            raise Gf2Error(f"r must be in 3..8, got {self.r}")
        if not 0 < self.sigma <= self.r - 2:
            raise Gf2Error(f"sigma must be in (0, r-1), got {self.sigma}")

    @cached_property
    def n(self) -> int:
        return (1 << self.r) - 1

    @cached_property
    def rho(self) -> int:
        return self.r - self.sigma

    @cached_property
    def s(self) -> int:
        return 1 << (self.r - self.sigma - 1)

    @cached_property
    def t(self) -> int:
        return (1 << (self.sigma + 1)) - 1

    @cached_property
    def m1(self) -> int:
        return (1 << (self.r - self.sigma)) - 1

    @cached_property
    def m0(self) -> int:
        return 2 * self.s * ((1 << self.sigma) - 1)

    @cached_property
    def degree(self) -> int:
        return self.s * (self.t - 1) * self.m1

    @cached_property
    def all_points_mask(self) -> int:
        return (1 << (self.n + 1)) - 2


def gaussian_binomial(r: int, sigma: int) -> int:
    """Number of sigma-dimensional GF(2)-subspaces of an r-dimensional space."""
    if not 0 <= sigma <= r:
        raise Gf2Error(f"need 0 <= sigma <= r, got ({r}, {sigma})")
    num = den = 1
    for i in range(1, r - sigma + 1):
        num *= (1 << (i + sigma)) - 1
        den *= (1 << i) - 1
    q, rem = divmod(num, den)
    if rem:
        raise Gf2Error(f"gaussian binomial ({r}, {sigma}) is not integral")
    return q


@lru_cache(maxsize=None)
def subspace_masks(r: int, d: int) -> tuple[int, ...]:
    """Masks of all linear-dimension-d subspaces, sorted by their point tuples."""
    if not 0 <= d <= r:
        raise Gf2Error(f"dimension {d} out of range for r={r}")
    # Each subspace has a unique reduced-row-echelon basis; enumerating those
    # avoids both duplicates and the 2^n subset scan.
    if d == 0:
        return (0,)
    masks = []
    for pivots in combinations(range(r - 1, -1, -1), d):
        free_cols = [
            [c for c in range(pivots[i] - 1, -1, -1) if c not in pivots]
            for i in range(d)
        ]
        rows_choices = [[0]]
        for i in range(d):
            base = 1 << pivots[i]
            opts = [base]
            for bits in range(1, 1 << len(free_cols[i])):
                v = base
                for j, c in enumerate(free_cols[i]):
                    if bits >> j & 1:
                        v |= 1 << c
                opts.append(v)
            rows_choices.append(opts)
        stack = [(0, [])]
        while stack:
            i, rows = stack.pop()
            if i == d:
                masks.append(span_mask(rows))
                continue
            for v in rows_choices[i + 1]:
                stack.append((i + 1, rows + [v]))
    masks.sort(key=points_of)
    return tuple(masks)


@lru_cache(maxsize=None)
def hyperplane_masks(r: int) -> tuple[int, ...]:
    """Hyperplane masks indexed by dual point: entry y-1 is ker<.,y>."""
    n = (1 << r) - 1
    masks = []
    for y in range(1, n + 1):
        m = 0
        for x in range(1, n + 1):
            if (x & y).bit_count() & 1 == 0:
                m |= 1 << x
        masks.append(m)
    return tuple(masks)


@lru_cache(maxsize=None)
def hyperplane_set(r: int) -> frozenset[int]:
    """The masks of hyperplane_masks(r) as a set, for membership tests."""
    return frozenset(hyperplane_masks(r))


def coset_mask(base_mask: int, x: int) -> int:
    """Mask of {x ^ a : a in base u {0}} for a subspace mask and point x."""
    m = 1 << x
    rest = base_mask
    while rest:
        low = rest & -rest
        m |= 1 << (x ^ (low.bit_length() - 1))
        rest ^= low
    return m


@lru_cache(maxsize=None)
def coset_table(r: int, a0_mask: int):
    """For one A0: (coset masks, led point table).

    The masks come in order of their least points, not sorted as integers:
    coset_table(4, 1 << 3)[0] starts (6, 144, 96).  The base vertex and the
    block order of a clique copy are read off in this order.  The led point
    table is a tuple of length 2^r + 1: entry 0 is A0, and entry x + 1 is
    the mask of the coset that holds point x, or 0 for point 0 and for the
    points of A0.  The bit length of a mask is its top point + 1, so it
    indexes the coset of that point.
    """
    sub = (0,) + points_of(a0_mask)
    masks = []
    table = [a0_mask] + [0] * (1 << r)
    seen = a0_mask
    for x in range(1, 1 << r):
        if seen >> x & 1:
            continue
        coset = [x ^ a for a in sub]
        cm = mask_of(coset)
        seen |= cm
        masks.append(cm)
        for p in coset:
            table[p + 1] = cm
    return tuple(masks), tuple(table)


EXTENDED_HEX = "0123456789abcdefghijklmnopqrstuv"


def point_str(p: int) -> str:
    """Hexadecimal point label, continued g..v for 16..31, then the decimal
    number in braces: 40 is '{40}'."""
    return EXTENDED_HEX[p] if p < 32 else f"{{{p}}}"


def mask_str(mask: int) -> str:
    return "".join(point_str(p) for p in points_of(mask))


def parse_points(s: str) -> tuple[int, ...]:
    """Inverse of the concatenated point_str labels."""
    out = []
    i = 0
    while i < len(s):
        if s[i] == "{":
            j = s.index("}", i)
            out.append(int(s[i + 1:j]))
            i = j + 1
        else:
            out.append(EXTENDED_HEX.index(s[i]))
            i += 1
    return tuple(out)


def parse_mask(s: str) -> int:
    return mask_of(parse_points(s))
