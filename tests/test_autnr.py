import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilgraphs import _golden, autnr, gf2, graphbuild as gb, homog, hrho, pencil
from pencilgraphs.gf2 import SpaceCtx


from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def _gens(case):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    return ctx, g, autnr.synth_generators(ctx, g)


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
    return g, homog.full_generator_set(ctx, g, stab_gens=gens).vperms()


def _literal_automorphism(g, vperm, rows) -> bool:
    """The literal definition on the checked rows: vperm is a permutation
    and keeps every pair (i, j) with i among the rows adjacent or not."""
    n = len(g)
    if sorted(vperm) != list(range(n)):
        return False
    return all(g.has_edge(i, j) == g.has_edge(vperm[i], vperm[j])
               for i in rows for j in range(n))


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_is_automorphism_matches_literal_definition(case, data):
    """The row test agrees with the all-pairs has_edge definition, on group
    elements and on ones with two images swapped or merged, checking every
    row or an evenly spaced sample of them."""
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
    sample = data.draw(st.none() | st.integers(1, n // 2))
    with pytest.MonkeyPatch.context() as mp:
        rows = range(n)
        if sample is not None:
            mp.setattr(autnr, "EXHAUSTIVE_ROWS", 0)
            mp.setattr(autnr, "SAMPLE_ROWS", sample)
            rows = range(0, n, n // sample)
        got = autnr._is_automorphism(g, tuple(vperm))
    assert got == _literal_automorphism(g, vperm, rows)
    if change == "none":
        assert got


@pytest.mark.heavy
def test_closure_order_52():
    ctx = SpaceCtx(5, 2)
    g = gb.component(5, 2)
    gens = autnr.synth_generators(ctx, g)
    assert autnr.closure_order(gens, g) == 516096
