from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilgraphs import gf2
from pencilgraphs.gf2 import SpaceCtx


def test_ctx_derived_values():
    ctx = SpaceCtx(4, 2)
    assert (ctx.n, ctx.rho, ctx.s, ctx.t, ctx.m1, ctx.m0) == (15, 2, 2, 7, 3, 12)
    # m1 * 2^sigma + (2^sigma - 1) = n
    assert ctx.m1 * (1 << ctx.sigma) + (1 << ctx.sigma) - 1 == ctx.n


def test_ctx_derived_values_kept_once():
    """Each derived value is computed once and kept on the instance, and
    equality, hash and repr stay keyed on (r, sigma) alone."""
    names = ("n", "rho", "s", "t", "m1", "m0", "degree", "all_points_mask")
    warm, cold = SpaceCtx(6, 2), SpaceCtx(6, 2)
    values = [getattr(warm, name) for name in names]
    assert values == [63, 4, 8, 7, 15, 48, 720, (1 << 64) - 2]
    assert all(vars(warm)[name] is v for name, v in zip(names, values))
    assert all(getattr(warm, name) is v for name, v in zip(names, values))
    assert not set(names) & set(vars(cold))
    assert warm == cold and hash(warm) == hash(cold) == hash((6, 2))
    assert repr(warm) == repr(cold) == "SpaceCtx(r=6, sigma=2)"
    assert warm != SpaceCtx(6, 3) and len({warm, cold, SpaceCtx(6, 3)}) == 2


@pytest.mark.parametrize("r,sigma", [(2, 1), (3, 0), (3, 3), (4, 3), (9, 7)])
def test_ctx_rejects_bad_parameters(r, sigma):
    with pytest.raises(gf2.Gf2Error):
        SpaceCtx(r, sigma)


def test_span_examples():
    assert gf2.span_mask([1, 2]) == gf2.mask_of([1, 2, 3])
    assert gf2.span_mask([3, 4]) == gf2.mask_of([3, 4, 7])
    assert gf2.span_mask([1, 6, 7]) == gf2.mask_of([1, 6, 7])


@given(st.sets(st.integers(min_value=1, max_value=31), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_span_is_closed_and_minimal(pts):
    s = gf2.span_mask(pts)
    assert gf2.is_xor_closed(s)
    for a, b in combinations(gf2.points_of(s), 2):
        assert s >> (a ^ b) & 1
    assert all(s >> p & 1 for p in pts)


def _brute_subspaces(r, d):
    n = (1 << r) - 1
    out = []
    for pts in combinations(range(1, n + 1), (1 << d) - 1):
        if gf2.is_xor_closed(gf2.mask_of(pts)):
            out.append(pts)
    return out


def test_enumerate_subspaces_small():
    singles = gf2.subspace_masks(3, 1)
    assert [gf2.points_of(m) for m in singles] == [(i,) for i in range(1, 8)]
    lines = gf2.subspace_masks(3, 2)
    assert len(lines) == 7
    assert gf2.points_of(lines[0]) == (1, 2, 3)
    assert [gf2.points_of(m) for m in lines] == _brute_subspaces(3, 2)


def test_enumerate_subspaces_r4_brute_force():
    lines = gf2.subspace_masks(4, 2)
    assert len(lines) == 35
    assert [gf2.points_of(m) for m in lines] == _brute_subspaces(4, 2)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_subspace_counts_match_gaussian(r):
    for d in range(0, r + 1):
        assert len(gf2.subspace_masks(r, d)) == gf2.gaussian_binomial(r, d)
    for d in (-1, r + 1):
        with pytest.raises(gf2.Gf2Error):
            gf2.subspace_masks(r, d)


def test_gaussian_binomial_values():
    assert gf2.gaussian_binomial(3, 1) == len(_brute_subspaces(3, 1)) == 7
    assert gf2.gaussian_binomial(4, 2) == 35
    assert gf2.gaussian_binomial(4, 1) == 15
    assert gf2.gaussian_binomial(5, 2) == 155


def _cosets(r, points):
    return [gf2.points_of(m) for m in gf2.coset_table(r, gf2.mask_of(points))[0]]


def test_coset_table_examples():
    assert _cosets(3, [1]) == [(2, 3), (4, 5), (6, 7)]
    assert _cosets(4, [1, 2, 3]) == [
        (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15)]
    assert _cosets(4, [2])[0] == (1, 3)


@pytest.mark.parametrize("r,sigma", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)])
def test_cosets_partition_everything(r, sigma):
    ctx = SpaceCtx(r, sigma)
    for sub in gf2.subspace_masks(r, sigma)[:8]:
        masks, table = gf2.coset_table(r, sub)
        assert len(masks) == ctx.m1
        assert type(table) is tuple and len(table) == (1 << r) + 1
        assert table[0] == sub
        assert [x for x in range(1 << r) if not table[x + 1]] == [
            0, *gf2.points_of(sub)]
        union = sub
        for c in masks:
            assert union & c == 0
            assert c.bit_count() == 1 << sigma
            assert all(table[p + 1] == c for p in gf2.points_of(c))
            # the bit length of a coset is its top point + 1
            assert table[c.bit_length()] == c
            union |= c
        assert union == ctx.all_points_mask


@st.composite
def _hyperplane_candidates(draw):
    """r and point sets near the hyperplanes of P(r): a hyperplane, one with
    a point dropped, one with a point swapped out, a random span, and a
    random set of the hyperplane's size."""
    r = draw(st.integers(min_value=3, max_value=8))
    n, size = (1 << r) - 1, (1 << (r - 1)) - 1
    h = draw(st.sampled_from(gf2.hyperplane_masks(r)))
    p = 1 << draw(st.sampled_from(gf2.points_of(h)))
    q = 1 << draw(st.sampled_from(gf2.points_of(((1 << (n + 1)) - 2) & ~h)))
    span = gf2.span_mask(draw(st.lists(st.integers(1, n), max_size=r)))
    rand = gf2.mask_of(draw(st.lists(st.integers(1, n), unique=True,
                                     min_size=size, max_size=size)))
    return r, (h, h ^ p, h ^ p ^ q, span, rand)


@given(_hyperplane_candidates())
@settings(max_examples=200, deadline=None)
def test_hyperplane_set_is_the_hyperplane_predicate(case):
    """Membership in hyperplane_set is "2^(r-1) - 1 points, XOR-closed"."""
    r, masks = case
    for u in masks:
        want = (u.bit_count() == (1 << (r - 1)) - 1
                and gf2.is_xor_closed(u))
        assert (u in gf2.hyperplane_set(r)) == want
    assert masks[0] in gf2.hyperplane_set(r)
    assert masks[2] not in gf2.hyperplane_set(r)


def test_hyperplanes():
    hs = gf2.hyperplane_masks(3)
    assert len(hs) == 7
    pts = {gf2.points_of(h) for h in hs}
    assert (1, 2, 3) in pts
    assert (1, 6, 7) in pts
    assert pts == {gf2.points_of(m) for m in gf2.subspace_masks(3, 2)}
    hs = gf2.hyperplane_masks(4)
    assert len(hs) == 15
    assert (1, 2, 3, 4, 5, 6, 7) in {gf2.points_of(h) for h in hs}


@given(st.integers(min_value=3, max_value=5))
@settings(max_examples=10, deadline=None)
def test_subspace_closure_property(r):
    for s in gf2.subspace_masks(r, min(3, r - 1)):
        for a, b in combinations(gf2.points_of(s), 2):
            assert s >> (a ^ b) & 1


def test_point_labels():
    assert gf2.point_str(10) == "a"
    assert gf2.point_str(31) == "v"
    assert gf2.mask_str(gf2.mask_of([1, 6, 7, 8, 9, 14, 15])) == "16789ef"
    assert gf2.parse_mask("3478bcf") == gf2.mask_of([3, 4, 7, 8, 11, 12, 15])


def test_point_labels_round_trip_r_le_8():
    """Labels 0..31 stay single extended-hex symbols, and every point of
    P(8) reads back from its label."""
    assert gf2.point_str(32) == "{32}" and gf2.point_str(255) == "{255}"
    for p in range(256):
        assert gf2.parse_points(gf2.point_str(p)) == (p,)
        assert len(gf2.point_str(p)) == 1 or p >= 32


@given(st.integers(1, 8).flatmap(
    lambda r: st.integers(0, (1 << (1 << r)) - 2)))
@settings(max_examples=150, deadline=None)
def test_mask_labels_round_trip(bits):
    mask = bits & ~1  # point sets never hold 0
    assert gf2.parse_mask(gf2.mask_str(mask)) == mask


@given(st.integers(1, 8).flatmap(lambda r: st.tuples(
    st.permutations(range(1, 1 << r)),
    st.integers(0, (1 << (1 << r)) - 2))))
@settings(max_examples=150, deadline=None)
def test_map_mask_matches_pointwise_image(case):
    perm, bits = case
    table = [0] + list(perm)
    mask = bits & ~1  # point sets never hold 0
    want = gf2.mask_of(table[p] for p in gf2.points_of(mask))
    assert gf2.map_mask(mask, table) == want
    assert gf2.map_mask(mask, bytes(table)) == want


def test_points_of_rejects_negative_mask():
    """A negative int has infinitely many set bits, so the bit walk would
    never end."""
    for mask in (-1, -2, -(1 << 40)):
        with pytest.raises(gf2.Gf2Error):
            gf2.points_of(mask)
    assert gf2.points_of(0) == ()

