from itertools import combinations

import pytest

from pencilgraphs import _golden, decomp, gf2, graphbuild as gb, pencil
from pencilgraphs.gf2 import SpaceCtx


@pytest.mark.parametrize("r,sigma,m0", [(3, 1, 4), (4, 1, 8), (4, 2, 12)])
def test_clique_copy_counts_at_base(r, sigma, m0):
    ctx = SpaceCtx(r, sigma)
    v = pencil.base_vertex_tuple(ctx)
    ids = decomp.clique_copies_at(ctx, v)
    assert len(ids) == m0 == ctx.m0


@pytest.mark.parametrize("case", [(4, 1), (4, 2)])
def test_clique_copy_lists_match_reference(case):
    ctx = SpaceCtx(*case)
    v = pencil.base_vertex_tuple(ctx)
    got = sorted(
        i.display().replace("∅", "") for i in decomp.clique_copies_at(ctx, v)
    )
    assert got == sorted(_golden.CLIQUE_COPIES_AT_BASE[case])


def test_clique_vertices_structure():
    ctx = SpaceCtx(4, 2)
    v = pencil.base_vertex_tuple(ctx)
    g = gb.component(4, 2)
    for cid in decomp.clique_copies_at(ctx, v):
        verts = decomp.clique_vertices(ctx, cid)
        assert len(verts) == 2 * ctx.s
        assert v in verts
        for i, a in enumerate(verts):
            for b in verts[i + 1:]:
                assert gb.adjacent(ctx, a, b) is not None
    ctx31 = SpaceCtx(3, 1)
    v31 = pencil.base_vertex_tuple(ctx31)
    for cid in decomp.clique_copies_at(ctx31, v31):
        assert len(decomp.clique_vertices(ctx31, cid)) == 4


def test_turan_ids_match_reference():
    for case, exp in _golden.TURAN_IDS_AT_BASE.items():
        ctx = SpaceCtx(*case)
        v = pencil.base_vertex_tuple(ctx)
        got = [(gf2.mask_str(t.w), t.i) for t in decomp.turan_copies_at(ctx, v)]
        assert got == exp
        assert len(got) == ctx.m1


@pytest.mark.parametrize("case,i", [
    ((4, 1), 1), ((4, 1), 7), ((4, 2), 1), ((4, 2), 2), ((4, 2), 3),
])
def test_turan_part_of_base(case, i):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    v = pencil.base_vertex_tuple(ctx)
    tid = decomp.turan_copies_at(ctx, v)[i - 1]
    parts = decomp.turan_vertices(ctx, g, tid)
    got = {pencil.display(w) for w in parts[v[0]]}
    assert got == set(_golden.TURAN_PART_OF_BASE[case + (i,)])


def test_turan_copy_is_turan_graph():
    ctx = SpaceCtx(4, 1)
    g = gb.component(4, 1)
    v = pencil.base_vertex_tuple(ctx)
    tid = decomp.turan_copies_at(ctx, v)[0]
    parts = decomp.turan_vertices(ctx, g, tid)
    assert len(parts) == ctx.t
    assert all(len(p) == ctx.s for p in parts.values())
    labels = {}
    for a0, plist in parts.items():
        for w in plist:
            labels[g.index[w]] = a0
    verts = sorted(labels)
    assert len(verts) == ctx.t * ctx.s == 12
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            assert g.has_edge(a, b) == (labels[a] != labels[b])


def test_turan_anchor_irrelevant_within_copy():
    ctx = SpaceCtx(4, 2)
    g = gb.component(4, 2)
    v = pencil.base_vertex_tuple(ctx)
    tid = decomp.turan_copies_at(ctx, v)[0]
    members = decomp.turan_vertex_set(ctx, g, tid)
    for j in members:
        w = g.vertices[j]
        i2 = next(t.i for t in decomp.turan_copies_at(ctx, w)
                  if t.w == tid.w)
        tid2 = decomp.TuranCopyId(tid.w, i2, w)
        assert decomp.turan_vertex_set(ctx, g, tid2) == members


def _all_anchor_turan_copies(ctx, g):
    """The literal enumeration: build the copy at every anchor (v, i)."""
    copies, at_anchor = {}, {}
    for vi, v in enumerate(g.vertices):
        for i in range(1, ctx.m1 + 1):
            tid = decomp.TuranCopyId(v[0] | v[i], i, v)
            parts = decomp.turan_vertices(ctx, g, tid)
            part_sets = [frozenset(g.index[w] for w in plist)
                         for plist in parts.values()]
            key = frozenset().union(*part_sets)
            copies.setdefault(key, part_sets)
            at_anchor[(vi, tid.w)] = (key, set(part_sets))
    return copies, at_anchor


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
def test_turan_copies_found_once_match_all_anchors(case):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    got, incidence = decomp.enumerate_turan_copies(ctx, g)
    want, at_anchor = _all_anchor_turan_copies(ctx, g)
    assert list(got) == list(want)
    assert got == want
    assert incidence == [ctx.m1] * len(g)
    # every anchor rebuilds, part for part, the one copy that claimed it
    claimed_by = {}
    for key, part_sets in got.items():
        w = 0
        for ps in part_sets:
            w |= g.vertices[next(iter(ps))][0]
        for x in key:
            assert (x, w) not in claimed_by
            claimed_by[(x, w)] = key
    assert claimed_by.keys() == at_anchor.keys()
    for anchor, (key, parts) in at_anchor.items():
        assert key == claimed_by[anchor]
        assert parts == set(got[key])


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
def test_verify_decomposition(case):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    rep = decomp.verify_decomposition(ctx, g)
    data = _golden.CASE_DATA[case]
    assert rep.ok, rep.failures
    assert (rep.ell0, rep.ell1) == (data["ell0"], data["ell1"])
    assert (rep.m0, rep.m1) == (data["m0"], data["m1"])


def test_edge_double_cover_arithmetic():
    for case in ((3, 1), (4, 2), (4, 1)):
        ctx = SpaceCtx(*case)
        g = gb.component(*case)
        s, t = ctx.s, ctx.t
        data = _golden.CASE_DATA[case]
        assert data["ell0"] * (2 * s) * (2 * s - 1) // 2 == g.edge_count()
        assert data["ell1"] * s * s * t * (t - 1) // 2 == g.edge_count()
        assert ctx.m0 * (2 * s - 1) == ctx.degree


def _tampered(case):
    """A freshly built graph whose copy caches are filled and safe to edit.

    The lru-cached ``graphbuild.component`` is not used, so editing the
    caches cannot leak into other tests.
    """
    ctx = SpaceCtx(*case)
    g = gb.build_component(ctx)
    cliques, _ = decomp.enumerate_clique_copies(ctx, g)
    turans, _ = decomp.enumerate_turan_copies(ctx, g)
    return ctx, g, cliques, turans


def _outsider(g, members, avoid):
    """The least vertex outside members that is not adjacent to avoid."""
    return next(z for z in range(len(g)) if z not in members
                and z != avoid and not g.has_edge(avoid, z))


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_duplicated_clique_copy(case):
    ctx, g, cliques, _ = _tampered(case)
    verts = next(iter(cliques.values()))
    cliques[(-1,)] = verts
    rep = decomp.verify_decomposition(ctx, g)
    assert rep.ok is False
    assert f"edge {(verts[0], verts[1])} in two clique copies" in rep.failures
    assert f"clique copy count {rep.ell0} != {rep.ell0 - 1}" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_dropped_clique_copy(case):
    ctx, g, cliques, _ = _tampered(case)
    del cliques[next(iter(cliques))]
    rep = decomp.verify_decomposition(ctx, g)
    e, two_s = g.edge_count(), 2 * ctx.s
    assert rep.ok is False
    assert (f"clique copies cover {e - two_s * (two_s - 1) // 2} pairs, "
            f"expected {e} edges") in rep.failures
    assert "clique edge double-cover arithmetic fails" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_clique_copy_with_non_edge(case):
    ctx, g, cliques, _ = _tampered(case)
    key = next(iter(cliques))
    verts = cliques[key]
    z = _outsider(g, verts, verts[0])
    bad = tuple(sorted(verts[:-1] + (z,)))
    cliques[key] = bad
    first = next((a, b) for i, a in enumerate(bad) for b in bad[i + 1:]
                 if not g.has_edge(a, b))
    rep = decomp.verify_decomposition(ctx, g)
    assert rep.ok is False
    assert f"clique copy not a clique at {first}" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_duplicated_turan_copy(case):
    ctx, g, _, turans = _tampered(case)
    key, parts = next(iter(turans.items()))
    # an equal key would land on the same dict slot, so use a sorted tuple
    turans[tuple(sorted(key))] = parts
    x, y = sorted(parts[0])[:2]
    a, b = min(parts[0]), min(parts[1])
    rep = decomp.verify_decomposition(ctx, g)
    assert rep.ok is False
    assert f"edge ({min(a, b)},{max(a, b)}) in two Turan copies" in rep.failures
    assert f"two Turan copies share vertices {x},{y}" in rep.failures
    assert f"Turan copy count {rep.ell1} != {rep.ell1 - 1}" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_dropped_turan_copy(case):
    ctx, g, _, turans = _tampered(case)
    del turans[next(iter(turans))]
    rep = decomp.verify_decomposition(ctx, g)
    e = g.edge_count()
    per_copy = ctx.s * ctx.s * ctx.t * (ctx.t - 1) // 2
    assert rep.ok is False
    assert (f"Turan copies cover {e - per_copy} edges, expected {e}"
            in rep.failures)
    assert "Turan edge double-cover arithmetic fails" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_turan_copy_with_non_edge(case):
    ctx, g, _, turans = _tampered(case)
    key, parts = next(iter(turans.items()))
    other = min(parts[1])
    z = _outsider(g, key, other)
    x = min(parts[0])
    turans[key] = [parts[0] - {x} | {z}] + list(parts[1:])
    rep = decomp.verify_decomposition(ctx, g)
    assert rep.ok is False
    assert (f"Turan copy non-edge across parts {min(z, other)},{max(z, other)}"
            in rep.failures)


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_turan_parts_swapped(case):
    ctx, g, _, turans = _tampered(case)
    key, parts = next(iter(turans.items()))
    x, y = min(parts[0]), min(parts[1])
    turans[key] = [parts[0] - {x} | {y}, parts[1] - {y} | {x}] + parts[2:]
    z = min(parts[1] - {y})
    rep = decomp.verify_decomposition(ctx, g)
    assert rep.ok is False
    assert (f"Turan copy edge inside a part {min(x, z)},{max(x, z)}"
            in rep.failures)


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_wrong_incidence(case):
    ctx, g, _, _ = _tampered(case)
    g._clique_copy_cache[1][0] += 1
    g._turan_copy_cache[1][-1] -= 1
    rep = decomp.verify_decomposition(ctx, g)
    assert rep.ok is False
    assert "clique incidence not m0 at every vertex" in rep.failures
    assert "Turan incidence not m1 at every vertex" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_non_maximal_copies(case):
    ctx, g, cliques, turans = _tampered(case)
    key = next(iter(cliques))
    cliques[key] = cliques[key][1:]
    tkey, parts = next(iter(turans.items()))
    turans[tkey] = [parts[0] - {min(parts[0])}] + parts[1:]
    rep = decomp.verify_decomposition(ctx, g)
    assert rep.ok is False
    assert f"clique copy {key[0]:x} not maximal" in rep.failures
    assert "Turan copy extendable inside a part" in rep.failures


def test_verify_reports_every_copy_intersection():
    """The copy-intersection check is exact: the first edge of the first,
    middle and last clique copy each get a third vertex of their clique copy
    added to a third part of their Turan copy, and all three are reported."""
    ctx, g, cliques, turans = _tampered((4, 2))
    clique_list = list(cliques.values())
    want, tkeys = [], set()
    for verts in (clique_list[0], clique_list[len(clique_list) // 2],
                  clique_list[-1]):
        e = verts[:2]
        tkey = next(k for k, ps in turans.items()
                    if set(e) <= k and not any(set(e) <= p for p in ps))
        tkeys.add(tkey)
        third = min(set(verts) - set(e))
        parts = turans[tkey]
        j = next(i for i, p in enumerate(parts) if not set(e) & p)
        turans[tkey] = parts[:j] + [parts[j] | {third}] + parts[j + 1:]
        tri = sorted(set(e) | {third})
        want.append({f"copy intersection at {pair} is {tri}"
                     for pair in combinations(tri, 2)})
    assert len(tkeys) == 3
    rep = decomp.verify_decomposition(ctx, g)
    assert rep.ok is False
    for msgs in want:
        assert msgs & set(rep.failures)


@pytest.mark.parametrize("rho", [2, 3, 4, 5])
def test_apply_index_perm_matches_entrywise_form(rho):
    ctx = SpaceCtx(rho + 1, 1)
    v = pencil.base_vertex_tuple(ctx)
    v = (v[0],) + v[:0:-1]  # entries reversed, so no map fixes v by accident
    for i in range(1, ctx.m1 + 1):
        for psi in decomp._pivot_maps(rho, i):
            literal = (v[0],) + tuple(v[psi[j]] for j in range(1, ctx.m1 + 1))
            assert decomp.apply_index_perm(ctx, v, psi) == literal
