"""Ordered pencils: a sigma-subspace A0 plus an ordered tuple of its cosets.

These are the graph vertices, each a plain tuple of bitmasks
``(a0, e1, .., e_m1)``.
"""

from __future__ import annotations

from pencilgraphs import gf2
from pencilgraphs.gf2 import SpaceCtx


class PencilError(ValueError):
    pass


# A vertex in mask form: (a0_mask, entry1_mask, ..., entry_m1_mask).
VTuple = tuple[int, ...]


def display(v: VTuple) -> str:
    """Extended-hex form such as ``(1,23,45,67)``."""
    return "(" + ",".join(map(gf2.mask_str, v)) + ")"


def validate(ctx: SpaceCtx, v: VTuple) -> None:
    """Raise unless v is a well-formed (r, sigma)-ordered pencil."""
    if not isinstance(v, tuple) or not v:
        raise PencilError("a pencil is a nonempty tuple of point masks")
    # plain ints, not bools or floats, in range before any bit is walked
    if (set(map(type, v)) != {int} or min(v) < 0
            or max(v) > ctx.all_points_mask):
        raise PencilError(f"entries are not point masks of P({ctx.r}): {v!r}")
    a0 = v[0]
    if a0.bit_count() != (1 << ctx.sigma) - 1 or not gf2.is_xor_closed(a0):
        raise PencilError(f"bad initial entry {gf2.mask_str(a0)}")
    masks, _ = gf2.coset_table(ctx.r, a0)
    if len(v) - 1 != ctx.m1 or set(v[1:]) != set(masks):
        raise PencilError("entries are not the cosets of A0, each exactly once")


def base_vertex_tuple(ctx: SpaceCtx) -> VTuple:
    a0 = (1 << (1 << ctx.sigma)) - 2
    masks, _ = gf2.coset_table(ctx.r, a0)
    return (a0,) + tuple(masks)


_KEY_CACHE: dict[int, bytes] = {}


def _mask_bytes(mask: int) -> bytes:
    b = _KEY_CACHE.get(mask)
    if b is None:
        b = bytes(gf2.points_of(mask))
        _KEY_CACHE[mask] = b
    return b


def encode_tuple(v: VTuple) -> bytes:
    """Injective byte key; lexicographic byte order = lexicographic pencil order."""
    return b"".join(map(_mask_bytes, v))


def decode(ctx: SpaceCtx, key: bytes) -> VTuple:
    """Inverse of :func:`encode_tuple`; raises PencilError on a bad key,
    including one that is not bytes or that encode_tuple never writes."""
    if not isinstance(key, bytes):
        raise PencilError(f"a pencil key is bytes, not {type(key).__name__}")
    w = 1 << ctx.sigma
    a0 = gf2.mask_of(key[: w - 1])
    masks = [
        gf2.mask_of(key[i : i + w]) for i in range(w - 1, len(key), w)
    ]
    v = (a0,) + tuple(masks)
    validate(ctx, v)
    if encode_tuple(v) != key:
        raise PencilError(f"key is not the canonical key of {display(v)}")
    return v


def total_pencil_count(ctx: SpaceCtx) -> int:
    """Order of the full graph: one pencil per (A0, coset ordering)."""
    count = gf2.gaussian_binomial(ctx.r, ctx.sigma)
    for i in range(2, ctx.m1 + 1):
        count *= i
    return count


def component_order(ctx: SpaceCtx) -> int:
    """Predicted component order: prod_{i=1..rho} 2^(i-1) (2^(i+sigma) - 1)."""
    out = 1
    for i in range(1, ctx.rho + 1):
        out *= (1 << (i - 1)) * ((1 << (i + ctx.sigma)) - 1)
    return out
