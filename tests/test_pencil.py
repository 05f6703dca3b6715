from itertools import islice, permutations

import pytest

from pencilgraphs import gf2, pencil
from pencilgraphs.gf2 import SpaceCtx


@pytest.mark.parametrize("r,sigma,display", [
    (3, 1, "(1,23,45,67)"),
    (4, 1, "(1,23,45,67,89,ab,cd,ef)"),
    (4, 2, "(123,4567,89ab,cdef)"),
])
def test_base_vertex(r, sigma, display):
    assert pencil.display(pencil.base_vertex_tuple(SpaceCtx(r, sigma))) == display


def _through(ctx, a0):
    """The pencils with initial entry a0: each ordering of its cosets."""
    return ((a0,) + p for p in permutations(gf2.coset_table(ctx.r, a0)[0]))


def test_pencils_through_counts_and_order():
    ctx = SpaceCtx(3, 1)
    ps = list(_through(ctx, gf2.mask_of([1])))
    assert len(ps) == 6
    assert ps[0] == pencil.base_vertex_tuple(ctx)
    assert pencil.display(ps[0]) == "(1,23,45,67)"
    ctx = SpaceCtx(4, 2)
    assert len(list(_through(ctx, gf2.mask_of([1, 2, 3])))) == 6
    ctx = SpaceCtx(4, 1)
    ps = list(_through(ctx, gf2.mask_of([1])))
    for p in ps:
        pencil.validate(ctx, p)
    assert len(set(ps)) == 5040


def test_encode_orders_and_roundtrip():
    ctx = SpaceCtx(3, 1)
    a = pencil.base_vertex_tuple(ctx)
    swapped = (a[0], a[1], a[3], a[2])
    assert pencil.encode_tuple(a) != pencil.encode_tuple(swapped)

    keys = []
    for a0 in gf2.subspace_masks(ctx.r, 1):
        for p in _through(ctx, a0):
            k = pencil.encode_tuple(p)
            assert pencil.decode(ctx, k) == p
            keys.append(k)
    assert len(keys) == len(set(keys)) == 42
    assert min(keys) == pencil.encode_tuple(pencil.base_vertex_tuple(ctx))
    with pytest.raises(pencil.PencilError):
        pencil.decode(ctx, pencil.encode_tuple(a)[:-2])


@pytest.mark.parametrize("spell", [
    list, tuple, bytearray, memoryview, lambda k: k.decode("latin-1"),
    lambda k: "abc", lambda k: None, lambda k: 7,
], ids=["list", "tuple", "bytearray", "memoryview", "str", "abc", "None",
        "int"])
def test_decode_rejects_key_that_is_not_bytes(spell):
    """Only bytes decode, even when the items spell a valid key."""
    ctx = SpaceCtx(3, 1)
    key = pencil.encode_tuple(pencil.base_vertex_tuple(ctx))
    with pytest.raises(pencil.PencilError, match="is bytes"):
        pencil.decode(ctx, spell(key))


def test_validate():
    ctx = SpaceCtx(3, 1)
    v = pencil.base_vertex_tuple(ctx)
    pencil.validate(ctx, v)
    with pytest.raises(pencil.PencilError):
        pencil.validate(ctx, (v[0], v[1], v[1], v[3]))
    with pytest.raises(pencil.PencilError):
        pencil.validate(ctx, (gf2.mask_of([1, 2]), v[1], v[2], v[3]))
    with pytest.raises(pencil.PencilError):
        pencil.validate(ctx, list(v))


def test_validate_wrong_dimension():
    """A 1-point A0 is not a (4, 2) initial entry."""
    ctx = SpaceCtx(4, 2)
    a0 = gf2.mask_of([1])
    with pytest.raises(pencil.PencilError):
        pencil.validate(ctx, (a0,) + gf2.coset_table(4, a0)[0])


def test_total_and_component_counts():
    assert pencil.total_pencil_count(SpaceCtx(3, 1)) == 42
    assert pencil.total_pencil_count(SpaceCtx(4, 2)) == 210
    assert pencil.total_pencil_count(SpaceCtx(4, 1)) == 15 * 5040
    # product over i of 2^(i-1) (2^(i+sigma) - 1)
    assert pencil.component_order(SpaceCtx(5, 2)) == 7 * 30 * 124 == 26040
    assert pencil.component_order(SpaceCtx(4, 1)) == 2520


def test_entries_cover_everything():
    ctx = SpaceCtx(4, 2)
    for p in islice(_through(ctx, gf2.mask_of([1, 2, 3])), 6):
        cover = p[0]
        for e in p[1:]:
            assert cover & e == 0
            cover |= e
        assert cover == ctx.all_points_mask
