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
