from itertools import permutations

import pytest

from pencilgraphs import autnr, decomp, gf2, graphbuild as gb, homog, hrho, pencil
from pencilgraphs.gf2 import SpaceCtx


def _setup(case, sample=None):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    gens = homog.full_generator_set(ctx, g, validate_sample=sample)
    return ctx, g, gens


def test_pure_entry_permutation_action():
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    psi = hrho.parse_perm(2, "1(23)")
    vperm = homog.index_perm_vperm(ctx, g, psi)
    image = g.vertices[vperm[0]]
    assert pencil.display(image) == "(1,23,67,45)"


def test_entry_permutations_are_automorphisms():
    ctx, g, gens = _setup((3, 1))
    assert len(gens.entry_perms) == 3
    for _, p in gens.entry_perms:
        assert autnr._is_automorphism(g, list(p))


def test_stabilizer_and_entry_perms_are_fiber_locked():
    """Without base movers the group cannot leave the initial-entry fiber."""
    ctx, g, gens = _setup((3, 1))
    partial = [p for _, p in gens.stabilizer + gens.entry_perms]
    orb = homog.orbit(0, partial, lambda x, p: p[x])
    fiber = {i for i, v in enumerate(g.vertices) if v[0] == g.vertices[0][0]}
    assert orb == fiber
    assert len(orb) == 6
    full_orbit = homog.vertex_orbit_of_base(g, gens.vperms())
    assert len(full_orbit) == len(g)


def test_combined_closure_order_31():
    """The nominal product 24 * 6 undercounts what transitivity needs."""
    ctx, g, gens = _setup((3, 1))
    partial = [p for _, p in gens.stabilizer + gens.entry_perms]
    order = autnr.close_permutations(partial)
    assert order == 24 * 6  # fiber stabilizer only
    full = autnr.close_permutations(gens.vperms())
    assert full == 42 * 24  # vertex-transitive with the full stabilizer
    assert full % len(g) == 0


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_h_property_exhaustive(case):
    ctx, g, gens = _setup(case)
    reports = homog.check_H_property(ctx, g, gens, exhaustive=True)
    for rep in reports:
        assert rep.copies_equivariant
        assert rep.ok
        assert rep.orbit_size == rep.total == 2 * g.edge_count()


def test_h_property_sampled_41():
    ctx, g, gens = _setup((4, 1), sample=200)
    reports = homog.check_H_property(ctx, g, gens, exhaustive=False, sample=500)
    for rep in reports:
        assert rep.ok
        assert rep.sampled_checked >= 500


def test_orbit_partition():
    ctx, g, gens = _setup((3, 1))
    part = homog.orbit_partition(range(len(g)), gens.vperms(), lambda x, p: p[x])
    assert set(part.values()) == {0}


def test_extend_identity_on_copy():
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    copies, _ = decomp.enumerate_clique_copies(ctx, g)
    verts = min(copies.values())
    vperm, stats = homog.extend_partial(g, {x: x for x in verts})
    assert vperm is not None
    assert autnr._is_automorphism(g, vperm)


def test_all_k4_copy_automorphisms_extend_31():
    """Ultrahomogeneity on the clique side for the smallest case."""
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    copies, _ = decomp.enumerate_clique_copies(ctx, g)
    verts = min(copies.values())
    extended = 0
    for img in permutations(verts):
        vperm, _ = homog.extend_partial(g, dict(zip(verts, img)))
        assert vperm is not None
        extended += 1
    assert extended == 24


def test_extend_rejects_non_injective_partial():
    g = gb.component(3, 1)
    far = next(x for x in range(1, len(g)) if not g.has_edge(0, x))
    vperm, stats = homog.extend_partial(g, {0: 0, far: 0})
    assert vperm is None and stats.exhausted


def test_extend_node_cap(monkeypatch):
    """Past the node cap the search raises instead of answering."""
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    copies, _ = decomp.enumerate_clique_copies(ctx, g)
    partial = {x: x for x in min(copies.values())}
    _, stats = homog.extend_partial(g, partial)
    assert stats.nodes > 1
    monkeypatch.setattr(homog, "EXTEND_NODE_CAP", 1)
    with pytest.raises(homog.HomogError, match="node cap"):
        homog.extend_partial(g, partial)


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_clique_uh_spot_check_rho2(case):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    assert homog.clique_uh_spot_check(ctx, g, pairs=2)


def test_witness_absent_for_31():
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    wit, tried = homog.non_uh_witness(ctx, g)
    assert wit is None
    assert tried == 2  # identity plus the one nontrivial arc-fixing map


@pytest.mark.parametrize("case", [(4, 2), (4, 1)])
def test_witness_found_for_r_above_3(case):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    wit, tried = homog.non_uh_witness(ctx, g)
    assert wit is not None
    assert wit.stats.exhausted
    # the failed partial map really is an isomorphism of the copy
    m = wit.partial
    for a in m:
        for b in m:
            if a != b:
                assert g.has_edge(a, b) == g.has_edge(m[a], m[b])


def test_witness_partial_fixes_base_arc():
    ctx = SpaceCtx(4, 2)
    g = gb.component(4, 2)
    v, u = homog.base_arc(ctx, g)
    wit, _ = homog.non_uh_witness(ctx, g)
    assert wit.partial[v] == v and wit.partial[u] == u


def test_seed_independence_of_verdict():
    ctx, g, gens = _setup((4, 2))
    a = homog.check_H_property(ctx, g, gens, exhaustive=False, sample=50, seed=1)
    b = homog.check_H_property(ctx, g, gens, exhaustive=False, sample=50, seed=99)
    assert [r.ok for r in a] == [r.ok for r in b] == [True, True]
