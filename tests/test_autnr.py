import dataclasses
import hashlib
import os
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilgraphs import (_golden, autnr, decomp, gf2, graphbuild as gb, homog,
                          hrho, pencil)
from pencilgraphs.gf2 import SpaceCtx


from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def _gens(case):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    return ctx, g, autnr.synth_generators(g)


@pytest.mark.parametrize("case,order", sorted(
    (c, o) for c, o in _golden.NR_ORDERS.items() if c != (5, 2)
))
def test_closure_orders(case, order):
    ctx, g, gens = _gens(case)
    got = autnr.closure_order(gens, g, cross_check_full=(case == (3, 1)))
    assert got == order == autnr.nr_order_formula(ctx)


def test_formula_values():
    assert autnr.nr_order_formula(SpaceCtx(3, 1)) == 24
    assert autnr.nr_order_formula(SpaceCtx(4, 2)) == 2304
    assert autnr.nr_order_formula(SpaceCtx(4, 1)) == 1344
    assert autnr.nr_order_formula(SpaceCtx(5, 2)) == (1 << 12) * 21 * 6 == 516096


def test_generators_fix_base_and_preserve_adjacency():
    ctx, g, gens = _gens((4, 2))
    for a in gens:
        if a.vperm is not None:
            assert a.vperm[0] == 0
            assert autnr._is_automorphism(g, list(a.vperm))
        assert sorted(a.nperm) == list(range(g.degree))


def _parse_factors(golden_factors):
    out = []
    for theta, chi, pairs in golden_factors:
        out.append((
            gf2.parse_mask(theta) if theta else 0,
            gf2.parse_mask(chi),
            tuple(sorted(
                (min(gf2.parse_mask(b1), gf2.parse_mask(b2)),
                 max(gf2.parse_mask(b1), gf2.parse_mask(b2)))
                for b1, b2 in pairs
            )),
        ))
    return tuple(sorted(out))


def _parse_psi(ctx, text):
    return tuple(hrho.parse_perm(ctx.rho, text.replace(" ", "")))


@pytest.mark.parametrize("row", _golden.GENERATOR_EXAMPLES,
                         ids=[f"{r}_{s}_{cat}_{pi}_{al}" for r, s, cat, pi, al, _, _
                              in _golden.GENERATOR_EXAMPLES])
def test_listed_generators_are_synthesized(row):
    r, sigma, cat, pi_txt, alpha_txt, factors_txt, psi_txt = row
    ctx, g, gens = _gens((r, sigma))
    alpha = gf2.parse_mask(alpha_txt)
    want_factors = _parse_factors(factors_txt)
    want_psi = _parse_psi(ctx, psi_txt)
    matches = [
        a for a in gens
        if a.category == cat
        and tuple(sorted(a.factors)) == want_factors
        and tuple(a.psi) == want_psi
    ]
    assert matches, f"no synthesized generator matches {row[:5]}"
    if cat == "A":
        want_pi = gf2.parse_points(pi_txt)[0]
        assert any(a.pi == want_pi and a.alpha == alpha for a in matches)
    elif cat == "C":
        want_pi = gf2.parse_mask(pi_txt)
        assert any(a.pi == want_pi and a.alpha == alpha for a in matches)
    else:
        # the fiber realization of the single-bracket rows
        assert any(a.kind == "fiber" for a in matches)


def test_psi_rule_matches_listed_psi():
    """The entry permutation derived from the point map equals the listed one."""
    for row in _golden.GENERATOR_EXAMPLES:
        r, sigma, cat, pi_txt, alpha_txt, factors_txt, psi_txt = row
        if cat != "A":
            continue
        ctx = SpaceCtx(r, sigma)
        c = gf2.parse_points(pi_txt)[0]
        alpha = gf2.parse_mask(alpha_txt)
        table = autnr.transvection_table(ctx.r, alpha, c)
        assert autnr.quotient_psi(ctx, table) == _parse_psi(ctx, psi_txt)


def _subsets_reference(mask, d):
    """Every d-subset of the points of mask whose span is a d-dimensional
    subspace inside mask, by mask value."""
    if d == 0:
        return [0]
    out = set()
    for pick in combinations(gf2.points_of(mask), d):
        sp = gf2.span_mask(pick)
        if sp.bit_count() == (1 << d) - 1 and sp & mask == sp:
            out.add(sp)
    return sorted(out)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_subsets_of_dim_matches_span_construction(r):
    for e in range(r + 1):
        for sub in gf2.subspace_masks(r, e):
            for d in range(e + 1):
                assert autnr.subsets_of_dim(sub, d) == _subsets_reference(sub, d)


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_transvection_table_matches_literal_map(r):
    n = (1 << r) - 1
    for alpha in gf2.hyperplane_masks(r):
        for c in gf2.points_of(alpha):
            table = autnr.transvection_table(r, alpha, c)
            assert [table[x] for x in range(1, n + 1)] == [
                x if alpha >> x & 1 else x ^ c for x in range(1, n + 1)]


def test_transvection_table_rejects_center_off_axis():
    alpha = gf2.hyperplane_masks(3)[0]
    c = next(x for x in range(1, 8) if not alpha >> x & 1)
    with pytest.raises(hrho.HrhoError):
        autnr.transvection_table(3, alpha, c)


def test_display_formats_psi_cycles():
    ctx, g, gens = _gens((3, 1))
    a = gens[0]
    for psi, want in [((0, 1, 2, 3), "123()"), ((0, 2, 3, 1), "(1 2 3)"),
                      ((0, 1, 3, 2), "1(2 3)")]:
        b = autnr.AutoMap(a.category, a.kind, a.pi, a.alpha, (), psi, a.nperm)
        assert b.display() == "." + want


def test_apply_example():
    ctx, g, gens = _gens((3, 1))
    omega = next(a for a in gens if a.category == "A" and a.pi == 2
                 and a.alpha == gf2.parse_mask("123"))
    u = gf2.parse_mask  # shorthand
    u31 = (u("2"), u("13"), u("46"), u("57"))
    image = autnr.apply(ctx, omega, u31)
    assert pencil.display(image) == "(2,13,57,46)"
    v = pencil.base_vertex_tuple(ctx)
    assert autnr.apply(ctx, omega, v) == v


def test_apply_all_generators_fix_base():
    for case in ((3, 1), (4, 2)):
        ctx, g, gens = _gens(case)
        v = pencil.base_vertex_tuple(ctx)
        for a in gens:
            assert autnr.apply(ctx, a, v) == v


def test_fiber_generators_do_not_extend_for_sigma2():
    """The fiber maps are neighborhood automorphisms only: the closure of
    everything strictly exceeds the closure of the extending part."""
    ctx, g, gens = _gens((4, 2))
    point_orders = autnr.close_permutations(
        [a.nperm for a in gens if a.kind == "point"])
    assert point_orders == 576
    assert autnr.closure_order(gens, g) == 2304


def _enumerated_order(gens):
    """The literal definition: every product of generators, by BFS."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q[x] for x in p)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(seen)


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.lists(st.permutations(range(k)), min_size=1, max_size=4)))
@settings(max_examples=120, deadline=None)
def test_closure_matches_enumeration_random(gens):
    gens = [tuple(p) for p in gens]
    assert autnr.close_permutations(gens) == _enumerated_order(gens)


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_closure_matches_enumeration_generators(case):
    ctx, g, gens = _gens(case)
    nperms = [a.nperm for a in gens]
    vperms = [a.vperm for a in gens if a.vperm is not None]
    for perms in (nperms, vperms):
        assert autnr.close_permutations(perms) == _enumerated_order(perms)


@lru_cache(maxsize=None)
def _group_gens(case):
    ctx, g, gens = _gens(case)
    return g, homog.full_generator_set(g, stab_gens=gens).vperms()


@lru_cache(maxsize=None)
def _edge_set(case):
    """Every edge of the component, in both orientations, from its rows."""
    g = gb.component(*case)
    return frozenset(e for i, j in g.edges() for e in ((i, j), (j, i)))


def _literal_automorphism(case, vperm) -> bool:
    """The literal definition: vperm is a permutation of the vertices and
    maps every edge to an edge, so, being a bijection, every pair adjacent
    or not onto a pair of the same kind."""
    n = len(gb.component(*case))
    if sorted(vperm) != list(range(n)):
        return False
    edges = _edge_set(case)
    return all((vperm[i], vperm[j]) in edges for i, j in edges)


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_is_automorphism_matches_literal_definition(case, data):
    """The copy test agrees with the literal definition over all rows, on
    group elements and on ones with two images swapped or merged."""
    g, gens = _group_gens(case)
    n = len(g)
    vperm = list(range(n))
    for k in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
        vperm = [gens[k][x] for x in vperm]
    change = data.draw(st.sampled_from(["none", "swap", "merge"]))
    if change != "none":
        x, y = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2, unique=True))
        if change == "swap":
            vperm[x], vperm[y] = vperm[y], vperm[x]
        else:
            vperm[x] = vperm[y]
    got = autnr._is_automorphism(g, tuple(vperm))
    assert got == _literal_automorphism(case, vperm)
    if change == "none":
        assert got


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
def test_swap_across_copies_is_rejected(case):
    """Swapping vertex 0 with a vertex that shares no clique copy with it
    maps a copy of 0 off the copies, and is no automorphism."""
    g = gb.component(*case)
    mates = set().union(*(c for c in g.clique_copies.values() if 0 in c))
    far = [x for x in range(len(g)) if x not in mates]
    assert far
    for x in far[:5] + far[-5:]:
        swap = list(range(len(g)))
        swap[0], swap[x] = x, 0
        assert not autnr._is_automorphism(g, swap)
        assert not _literal_automorphism(case, swap)


@pytest.mark.parametrize("fault", ["row", "copy"])
def test_unfaithful_copies_are_refused(fault):
    """A hand-built graph whose rows are not the other members of the
    copies is refused with BuildError, not validated on its copies: an
    edge outside every copy, or a copy missing from the family."""
    g = gb.component(3, 1)
    g.clique_family()  # a built index is not carried over by replace
    if fault == "row":
        adj = array(g.adj.typecode, g.adj)
        row = g.neighbors_of(0)
        adj[0] = next(x for x in range(1, len(g)) if x not in row)
        bad = dataclasses.replace(g, adj=adj)
    else:
        copies = dict(g.clique_copies)
        del copies[next(iter(copies))]
        bad = gb.PencilGraph(g.ctx, g.vertices, g.index, g.adj, copies)
    with pytest.raises(gb.BuildError, match="not the other members"):
        autnr._is_automorphism(bad, tuple(range(len(bad))))


def _ball_by_masks(g, slots, nperm) -> bool:
    """The ball check on the neighbour bitmasks: nperm keeps every pair of
    slots adjacent or not, pair by pair."""
    k = len(slots)
    sub = []
    for a in range(k):
        m = 0
        ga = g.nbr_mask(slots[a])
        for b in range(k):
            if ga >> slots[b] & 1:
                m |= 1 << b
        sub.append(m)
    return all(bool(sub[a] >> b & 1) == bool(sub[nperm[a]] >> nperm[b] & 1)
               for a in range(k) for b in range(a + 1, k))


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
def test_ball_check_matches_bitmask_form(case, monkeypatch):
    """The ball check on the sorted rows agrees with the bitmask form on
    every fiber candidate that synthesis tests, and on each with two
    entries swapped."""
    g = gb.component(*case)
    real = autnr._nperm_preserves_ball
    calls = []

    def recorded(g_, slots, nperm):
        calls.append((slots, list(nperm)))
        return real(g_, slots, nperm)

    monkeypatch.setattr(autnr, "_nperm_preserves_ball", recorded)
    autnr.synth_fiber_kind(g)
    results = set()
    for slots, nperm in calls:
        k = len(nperm)
        for a, b in [(0, 0), (0, 1), (0, k - 1), (k // 2, k // 3)]:
            p = list(nperm)
            p[a], p[b] = p[b], p[a]
            got = real(g, slots, p)
            assert got == _ball_by_masks(g, slots, p)
            results.add(got)
    assert results == {True, False}


def _transposed(psi):
    """psi with the images of entries 1 and 2 swapped."""
    p = list(psi)
    p[1], p[2] = p[2], p[1]
    return tuple(p)


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1), (5, 3)])
def test_linear_vperm_matches_literal_map(case, monkeypatch):
    """The label-row gather equals vperm_of over the literal point map, or
    is None with it.

    Every transvection is tried, with its quotient psi where it permutes the
    base cosets (the synthesis candidates) and the identity psi elsewhere;
    then one quotient psi with a transposition, which must change the
    answer, so a gather that mixed up two entries fails here.  The entry
    permutations of hrho.generators, and their products in pairs (which are
    not involutions), are checked against decomp.apply_index_perm, and
    homog.base_movers gives the same movers with the literal map.
    """
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    ident = tuple(range(ctx.m1 + 1))

    def literal(table, psi):
        return g.vperm_of(lambda v: autnr.apply_point_map(ctx, table, psi, v))

    fixing = None
    for alpha in gf2.hyperplane_masks(ctx.r):
        for c in gf2.points_of(alpha):
            table = autnr.transvection_table(ctx.r, alpha, c)
            try:
                psi = autnr.quotient_psi(ctx, table)
                fixing = fixing or (table, psi)
            except autnr.AutError:
                psi = ident
            assert g.linear_vperm(table, psi) == literal(table, psi)
    table, psi = fixing
    got = g.linear_vperm(table, _transposed(psi))
    assert got == literal(table, _transposed(psi))
    assert got != g.linear_vperm(table, psi)

    gens = [psi for _, _, psi in hrho.generators(ctx.rho)]
    entry = []
    for psi in gens + [bytes(p[x] for x in q) for p, q in zip(gens, gens[1:])]:
        inv = sorted(range(len(psi)), key=psi.__getitem__)
        entry.append(g.linear_vperm(range(1 << ctx.r), inv))
        assert entry[-1] == g.vperm_of(
            lambda v: decomp.apply_index_perm(ctx, v, psi))
    del entry[len(gens):]
    movers = homog.base_movers(g, entry)
    monkeypatch.setattr(g, "linear_vperm", literal)
    assert homog.base_movers(g, entry) == movers


# the (5,2) point-kind generators as synthesized by mapping every vertex
# through autnr.apply_point_map, one per line of this file, and the sha256
# of their vperms, each written as comma-separated ids followed by ";"
POINT_KIND_52 = os.path.join(os.path.dirname(__file__), "point_kind_52.txt")
POINT_KIND_52_VPERMS = (
    "390eb2328c12b2a5b912a0fdd78b4685ca10051431416b5168c4747773311903")


@pytest.mark.heavy
def test_closure_order_52():
    g = gb.component(5, 2)
    gens = autnr.synth_generators(g)
    point = [a for a in gens if a.kind == "point"]
    with open(POINT_KIND_52) as f:
        assert [a.display() for a in point] == f.read().splitlines()
    h = hashlib.sha256()
    for a in point:
        h.update(",".join(map(str, a.vperm)).encode() + b";")
    assert h.hexdigest() == POINT_KIND_52_VPERMS
    assert autnr.closure_order(gens, g) == 516096
