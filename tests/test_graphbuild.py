import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pencilgraphs
from pencilgraphs import decomp, gf2, graphbuild as gb, pencil
from pencilgraphs.gf2 import SpaceCtx
from pencilgraphs.pencil import encode_tuple


@pytest.mark.parametrize("r,sigma,u_disp,U_disp", [
    (3, 1, "(2,13,46,57)", "347"),
    (4, 1, "(2,13,46,57,8a,9b,ce,df)", "3478bcf"),
    (4, 2, "(145,2367,89cd,abef)", "16789ef"),
])
def test_adjacent_edge_examples(r, sigma, u_disp, U_disp):
    ctx = SpaceCtx(r, sigma)
    v = pencil.base_vertex_tuple(ctx)
    nbrs = gb.neighbors(ctx, v)
    assert len(nbrs) == ctx.degree
    u = min(nbrs, key=encode_tuple)
    assert pencil.display(u) == u_disp
    U = gb.adjacent(ctx, v, u)
    assert gf2.mask_str(U) == U_disp
    assert gb.adjacent(ctx, v, v) is None


def test_adjacent_symmetric_31():
    ctx = SpaceCtx(3, 1)
    g = gb.full_graph(3, 1)
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            a = gb.adjacent(ctx, g.vertices[i], g.vertices[j])
            b = gb.adjacent(ctx, g.vertices[j], g.vertices[i])
            assert a == b


@pytest.mark.parametrize("r,sigma,rows", [(3, 1, None), (4, 2, 12), (4, 1, 6)])
def test_neighbors_match_pairwise_scan(r, sigma, rows):
    ctx = SpaceCtx(r, sigma)
    g = gb.full_graph(r, sigma)
    idx = range(len(g)) if rows is None else range(0, len(g), len(g) // rows)
    for i in idx:
        v = g.vertices[i]
        from_copies = {w for w in gb.neighbors(ctx, v)}
        by_scan = {
            w for w in g.vertices if w != v and gb.adjacent(ctx, v, w) is not None
        }
        assert from_copies == by_scan


@pytest.mark.parametrize("r,sigma,order", [
    (3, 1, 42), (4, 2, 210), (4, 1, 2520), (5, 2, 26040),
])
def test_component_orders(r, sigma, order):
    g = gb.component(r, sigma)
    ctx = SpaceCtx(r, sigma)
    assert len(g) == order == pencil.component_order(ctx)
    assert g.degree == ctx.degree
    assert g.vertices[0] == pencil.base_vertex_tuple(ctx)


def test_regularity_and_symmetry():
    g = gb.component(4, 2)
    d = g.degree
    for i in range(len(g)):
        row = list(g.neighbors_of(i))
        assert len(set(row)) == d
        assert i not in row
        for j in row:
            assert i in set(g.neighbors_of(j))


def test_build_full():
    g = gb.full_graph(3, 1)
    assert len(g) == 42 and g.n_components == 1
    g = gb.full_graph(4, 2)
    assert len(g) == 210 and g.n_components == 1


def test_bfs_metrics_and_diameter():
    g = gb.component(3, 1)
    dist, ecc = gb.bfs_metrics(g, 0)
    assert dist[0] == 0
    assert max(dist) == ecc
    assert gb.diameter(g) <= 4
    g2 = gb.component(4, 2)
    h2_diameter = 2  # the auxiliary graph at rho = 2 is K_{3,3}
    assert gb.diameter(g2) <= min(6, 2 * h2_diameter)


def test_cap_guard():
    with pytest.raises(gb.BuildError):
        gb.build_component(SpaceCtx(6, 1), cap=1 << 20)
    with pytest.raises(gb.BuildError):
        gb.build_full(SpaceCtx(5, 1), cap=1 << 20)


def test_deterministic_rebuild():
    a = gb.build_component(SpaceCtx(3, 1))
    b = gb.build_component(SpaceCtx(3, 1))
    assert a.vertices == b.vertices
    assert a.adj == b.adj


def _malformed_62():
    """Three non-pencils at (6, 2): initial entries {1, 2, 4} and
    {1, 40, 50} that are not subspaces, the second naming points past 31 in
    its error, and the base vertex with points 7 and 8 swapped between its
    first two entries."""
    ctx = SpaceCtx(6, 2)
    v = pencil.base_vertex_tuple(ctx)
    swap = 1 << 7 | 1 << 8
    return ctx, [(gf2.mask_of([1, 2, 4]),) + v[1:],
                 (gf2.mask_of([1, 40, 50]),) + v[1:],
                 (v[0], v[1] ^ swap, v[2] ^ swap) + v[3:]]


def _queries(ctx, v):
    """The queries that serve any pencil, each called on v."""
    good = pencil.base_vertex_tuple(ctx)
    return [
        lambda: gb.neighbors(ctx, v),
        lambda: gb.adjacent(ctx, v, good),
        lambda: gb.adjacent(ctx, good, v),
        lambda: decomp.clique_copies_at(ctx, v),
        lambda: decomp.turan_part(ctx, v, 1),
        lambda: decomp.turan_copies_at(ctx, v),
    ]


def _copy_on(ctx, h, u0):
    """The clique-copy id with hyperplane h, U0 and the U0-cosets inside h."""
    return decomp.CliqueCopyId(h, u0, tuple(
        b for b in gf2.coset_table(ctx.r, u0)[0] if b & h == b))


def _malformed_copies():
    """(ctx, clique-copy id) pairs, each a change of the first copy at the
    base vertex.  At (6, 2): U0 the point 62 (inside h, but the blocks are
    not its cosets) or the point 1 (outside h, with or without blocks); U0
    the line {2, 4, 6}, with its own cosets inside h as blocks; blocks short, with one
    added twice, with the last replaced by a repeat or by a zero block; and
    h with a point added.  At (5, 3), U0 the points 2, 4, 8 of h, which
    are not a line, with its own cosets; at (4, 1), U0 a point."""
    out = []
    ctx = SpaceCtx(6, 2)
    cid = decomp.clique_copies_at(ctx, pencil.base_vertex_tuple(ctx))[0]
    h, b = cid.hyperplane, cid.blocks
    off_h = gf2.min_point(ctx.all_points_mask & ~h)
    out += [(ctx, c) for c in [
        replace(cid, u0=1 << 62), replace(cid, u0=1 << off_h),
        replace(cid, u0=1 << off_h, blocks=()),
        _copy_on(ctx, h, cid.u0 | b[0]),
        replace(cid, blocks=b[:-1]), replace(cid, blocks=b + b[:1]),
        replace(cid, blocks=b[:-1] + b[:1]),
        replace(cid, blocks=b[:-1] + (0,)),
        replace(cid, hyperplane=h | 1 << off_h)]]
    ctx = SpaceCtx(5, 3)
    h = decomp.clique_copies_at(ctx, pencil.base_vertex_tuple(ctx))[0].hyperplane
    out.append((ctx, _copy_on(ctx, h, gf2.mask_of([2, 4, 8]))))
    ctx = SpaceCtx(4, 1)
    cid = decomp.clique_copies_at(ctx, pencil.base_vertex_tuple(ctx))[0]
    out.append((ctx, replace(cid, u0=1 << gf2.min_point(cid.hyperplane))))
    return out


def test_neighbors_rejects_malformed_pencils():
    ctx, bad = _malformed_62()
    for v in bad:
        for query in _queries(ctx, v):
            with pytest.raises(pencil.PencilError):
                query()


def test_clique_vertices_rejects_malformed_copies():
    for ctx, cid in _malformed_copies():
        with pytest.raises(decomp.DecompError):
            decomp.clique_vertices(ctx, cid)


def test_neighbors_rejects_malformed_pencils_under_O():
    """The rejections are not asserts, so they survive python -O."""
    code = (
        "from pencilgraphs import pencil\n"
        "from tests.test_graphbuild import _malformed_62, _queries\n"
        "ctx, bad = _malformed_62()\n"
        "for v in bad:\n"
        "    for query in _queries(ctx, v):\n"
        "        try:\n"
        "            query()\n"
        "        except pencil.PencilError:\n"
        "            continue\n"
        "        raise SystemExit('accepted a malformed pencil')\n"
        "from pencilgraphs import decomp\n"
        "from tests.test_graphbuild import _malformed_copies\n"
        "for ctx, cid in _malformed_copies():\n"
        "    try:\n"
        "        decomp.clique_vertices(ctx, cid)\n"
        "    except decomp.DecompError:\n"
        "        continue\n"
        "    raise SystemExit('accepted a malformed clique copy')\n"
        "assert False, 'asserts must be off under -O'\n"
    )
    src = os.path.dirname(os.path.dirname(pencilgraphs.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr + res.stdout


def test_turan_part_rejects_bad_entry_index():
    ctx = SpaceCtx(6, 2)
    v = pencil.base_vertex_tuple(ctx)
    assert len(decomp.turan_part(ctx, v, ctx.m1)) == ctx.s
    for i in (0, ctx.m1 + 1):
        with pytest.raises(decomp.DecompError):
            decomp.turan_part(ctx, v, i)


@st.composite
def _pencils(draw, ctx):
    a0 = draw(st.sampled_from(gf2.subspace_masks(ctx.r, ctx.sigma)))
    masks, _ = gf2.coset_table(ctx.r, a0)
    return (a0,) + tuple(draw(st.permutations(masks)))


@pytest.mark.parametrize("r,sigma", [(6, 2), (7, 3)])
def test_neighbors_match_literal_adjacency(r, sigma):
    """Beyond desk scale: the copy-based neighbours of random pencils are
    ctx.degree distinct well-formed pencils, each adjacent by the literal
    three-condition test, and adjacency is symmetric."""
    ctx = SpaceCtx(r, sigma)

    @given(_pencils(ctx), st.integers(min_value=0))
    @settings(max_examples=8, deadline=None)
    def check(v, k):
        nbrs = gb.neighbors(ctx, v)
        assert len(nbrs) == len(set(nbrs)) == ctx.degree
        assert v not in nbrs
        for w in nbrs:
            pencil.validate(ctx, w)
            assert gb.adjacent(ctx, v, w) is not None
        assert v in gb.neighbors(ctx, nbrs[k % len(nbrs)])

    check()


def _literal_copy_vertices(ctx, h, sl):
    """Reference: one coset-table lookup per slice entry and block."""
    u0 = sl[0]
    out = []
    for blk in gf2.coset_table(ctx.r, u0)[0]:
        if blk & h:
            continue
        a0 = u0 | blk
        lut = gf2.coset_table(ctx.r, a0)[1]
        out.append((a0,) + tuple(lut[gf2.min_point(m)] for m in sl[1:]))
    return out


@pytest.mark.parametrize("r,sigma", [
    (r, sigma) for r in range(3, 9) for sigma in range(1, r - 1)])
def test_gathered_neighbors_match_literal_lookup(r, sigma):
    """neighbors and clique_copy_vertices equal the per-entry lookup, in
    the same order, on seeded random pencils."""
    ctx = SpaceCtx(r, sigma)
    rng = random.Random(r * 10 + sigma)
    for _ in range(1 if r == 8 else 3):
        a0 = 0
        while a0.bit_count() != (1 << sigma) - 1:
            a0 = gf2.span_mask(rng.sample(range(1, 1 << r), sigma))
        masks = list(gf2.coset_table(r, a0)[0])
        rng.shuffle(masks)
        v = (a0,) + tuple(masks)
        literal = []
        for h, sl in gb.clique_slices(ctx, v):
            ref = _literal_copy_vertices(ctx, h, sl)
            assert gb.clique_copy_vertices(ctx, h, sl) == ref
            literal += [w for w in ref if w != v]
        assert gb.neighbors(ctx, v) == literal
