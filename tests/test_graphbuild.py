import hashlib
import inspect
import os
import random
import subprocess
import sys
from array import array
from dataclasses import replace
from itertools import chain, permutations

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
    """Non-pencils at (6, 2): initial entries {1, 2, 4} and {1, 40, 50}
    that are not subspaces, the second naming points past 31 in its error;
    the base vertex with points 7 and 8 swapped between its first two
    entries; and the base vertex with entries that are not point masks: a
    negative initial entry (-2) or last entry, an entry with point 0 or
    point 64, float entries (equal to the masks), a bool, and the cosets
    nested in one tuple."""
    ctx = SpaceCtx(6, 2)
    v = pencil.base_vertex_tuple(ctx)
    swap = 1 << 7 | 1 << 8
    return ctx, [(gf2.mask_of([1, 2, 4]),) + v[1:],
                 (gf2.mask_of([1, 40, 50]),) + v[1:],
                 (v[0], v[1] ^ swap, v[2] ^ swap) + v[3:],
                 (-2,) + v[1:], v[:-1] + (-v[-1],),
                 (v[0] | 1,) + v[1:], v[:-1] + (v[-1] | 1 << 64,),
                 (float(v[0]),) + v[1:], tuple(map(float, v)),
                 (True,) + v[1:], (v[0], v[1:])]


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
    are not a line, with its own cosets; at (4, 1), U0 a point.  Then fields
    that are not point masks: at (4, 1), U0 negative (-2), a float (equal
    to a mask) or a bool, h negative or a float, a negative block, the
    blocks as a list, and the blocks nested in one tuple."""
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
    h, b = cid.hyperplane, cid.blocks
    out += [(ctx, c) for c in [
        replace(cid, u0=-2), replace(cid, u0=float(cid.u0)),
        replace(cid, u0=False), replace(cid, hyperplane=-h),
        replace(cid, hyperplane=float(h)), replace(cid, blocks=(-b[0],) + b[1:]),
        replace(cid, blocks=list(b)), replace(cid, blocks=(b,))]]
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


def _bad_maps(ctx):
    """(point table, entry permutation) pairs that linear_vperm refuses at
    ctx: tables short, moving 0, repeating a point, naming point 2^r or
    256, or of floats; entry permutations short, repeating an entry, naming
    entry m1 + 1, or a string."""
    w, ident = 1 << ctx.r, list(range(ctx.m1 + 1))
    return [(range(w - 1), ident), ([1, 0] + list(range(2, w)), ident),
            ([0] + [1] * (w - 1), ident), (list(range(w - 1)) + [w], ident),
            (list(range(w - 1)) + [256], ident), (list(map(float, range(w))), ident),
            (range(w), ident[:-1]), (range(w), [0, 1, 1] + ident[3:]),
            (range(w), ident[:-1] + [ctx.m1 + 1]), (range(w), "0123")]


def test_linear_vperm_rejects_bad_maps():
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    assert g.linear_vperm(range(8), range(4)) == tuple(range(len(g)))
    for table, psi in _bad_maps(ctx):
        with pytest.raises(gb.MapError):
            g.linear_vperm(table, psi)


def test_linear_vperm_rejects_bad_maps_under_O():
    """The refusals are raises, not asserts, so they survive python -O."""
    code = (
        "from pencilgraphs import graphbuild as gb\n"
        "from pencilgraphs.gf2 import SpaceCtx\n"
        "from tests.test_graphbuild import _bad_maps\n"
        "g = gb.component(3, 1)\n"
        "for table, psi in _bad_maps(SpaceCtx(3, 1)):\n"
        "    try:\n"
        "        g.linear_vperm(table, psi)\n"
        "    except gb.MapError:\n"
        "        continue\n"
        "    raise SystemExit('applied a bad point map')\n"
        "assert False, 'asserts must be off under -O'\n"
    )
    src = os.path.dirname(os.path.dirname(pencilgraphs.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr + res.stdout


def test_has_edge_reads_rows_and_rejects_bad_ids():
    """has_edge answers from the sorted rows and raises VertexIdError, not
    a bare ValueError or IndexError or a quiet False, for a bad id; the
    refusal is a raise, so it survives python -O."""
    g = gb.component(3, 1)
    n = len(g)
    for i in range(n):
        row = set(g.neighbors_of(i))
        assert [g.has_edge(i, j) for j in range(n)] == [
            j in row for j in range(n)]
    for i, j in [(0, n + 5), (0, -1), (n + 1, 0), (-1, 0), (0, n), (0, 1.0),
                 (True, 0), ("0", 1)]:
        with pytest.raises(gb.VertexIdError):
            g.has_edge(i, j)


def test_turan_part_rejects_bad_entry_index():
    ctx = SpaceCtx(6, 2)
    v = pencil.base_vertex_tuple(ctx)
    assert len(decomp.turan_part(ctx, v, ctx.m1)) == ctx.s
    for i in (0, ctx.m1 + 1, 1.0, True, "1"):
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
    """Reference: the U0-cosets in order of their least points, each entry
    the A0-coset of the least point of its slice entry, all from
    coset_mask."""
    u0 = sl[0]
    out = []
    seen = u0
    for x in range(1, 1 << ctx.r):
        if seen >> x & 1:
            continue
        blk = gf2.coset_mask(u0, x)
        seen |= blk
        if blk & h:
            continue
        a0 = u0 | blk
        out.append((a0,) + tuple(gf2.coset_mask(a0, gf2.min_point(m))
                                 for m in sl[1:]))
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


@pytest.mark.parametrize("r,sigma", [(6, 2), (5, 3)])
def test_copy_tables_share_one_led_table_per_a0(r, sigma):
    """After neighbors on seeded pencils, each (U0, h) entry holds 2s led
    tables of distinct A0s, each the very table gf2.coset_table keeps for
    its A0, and there is one entry per (U0, h) flag touched."""
    ctx = SpaceCtx(r, sigma)
    gb._copy_tables.cache_clear()
    rng = random.Random(r * 10 + sigma)
    flags = set()
    for _ in range(3):
        a0 = 0
        while a0.bit_count() != (1 << sigma) - 1:
            a0 = gf2.span_mask(rng.sample(range(1, 1 << r), sigma))
        masks = list(gf2.coset_table(r, a0)[0])
        rng.shuffle(masks)
        v = (a0,) + tuple(masks)
        gb.neighbors(ctx, v)
        flags |= {(sl[0], h) for h, sl in gb.clique_slices(ctx, v)}
    assert gb._copy_tables.cache_info().currsize == len(flags)
    for u0, h in flags:
        tables = gb._copy_tables(r, u0, h)
        assert len(tables) == len({t[0] for t in tables}) == 2 * ctx.s
        assert all(t is gf2.coset_table(r, t[0])[1] for t in tables)
    assert gb._copy_tables.cache_info().currsize == len(flags)


def test_neighbors_rejects_pencil_missing_from_its_copy(monkeypatch):
    """A copy builder that leaves v out of one of v's copies makes neighbors
    raise BuildError, not the ValueError of list.remove; the check is not an
    assert, so it holds under python -O too."""
    ctx = SpaceCtx(4, 2)
    v = pencil.base_vertex_tuple(ctx)
    real = gb.clique_copy_vertices
    first_h = gb.clique_slices(ctx, v)[0][0]
    monkeypatch.setattr(gb, "clique_copy_vertices", lambda ctx, h, sl: [
        w for w in real(ctx, h, sl) if w != v or h != first_h])
    with pytest.raises(gb.BuildError, match="missing from its clique copy"):
        gb.neighbors(ctx, v)


def _literal_bfs(ctx, seed, vertices, index, adj_rows):
    """Reference: the BFS from seed that calls neighbors(v) per vertex and
    looks up each neighbour's id; returns the new vertex ids."""
    index[seed] = len(vertices)
    vertices.append(seed)
    adj_rows.append(None)
    new_ids = [index[seed]]
    frontier = [seed]
    while frontier:
        frontier.sort(key=encode_tuple)
        next_frontier = []
        for v in frontier:
            row = []
            for w in gb.neighbors(ctx, v):
                j = index.get(w)
                if j is None:
                    j = len(vertices)
                    index[w] = j
                    vertices.append(w)
                    adj_rows.append(None)
                    new_ids.append(j)
                    next_frontier.append(w)
                row.append(j)
            adj_rows[index[v]] = array("i", sorted(row))
        frontier = next_frontier
    return new_ids


def _literal_build(ctx, full):
    """Reference: (vertices, flat rows, component ids, component count) of
    the component, or of the full graph by one literal BFS per component,
    seeded at each pencil in A0-then-ordering order."""
    vertices, index, adj_rows = [], {}, []
    if not full:
        _literal_bfs(ctx, pencil.base_vertex_tuple(ctx), vertices, index,
                     adj_rows)
        return vertices, array("i", chain(*adj_rows)), None, 1
    comp_of, n_comp = {}, 0
    for a0 in gf2.subspace_masks(ctx.r, ctx.sigma):
        for perm in permutations(gf2.coset_table(ctx.r, a0)[0]):
            seed = (a0,) + perm
            if seed not in index:
                for i in _literal_bfs(ctx, seed, vertices, index, adj_rows):
                    comp_of[i] = n_comp
                n_comp += 1
    comp = array("i", (comp_of[i] for i in range(len(vertices))))
    return vertices, array("i", chain(*adj_rows)), comp, n_comp


@pytest.mark.parametrize("r,sigma,full", [
    (3, 1, False), (4, 2, False), (4, 1, False), (5, 3, False),
    (3, 1, True), (4, 2, True)])
def test_copy_once_bfs_matches_literal_bfs(r, sigma, full):
    """The copy-once BFS numbers the vertices and fills the rows exactly as
    a BFS over neighbors(v) does, and the relabelled full graph equals a
    literal BFS per component."""
    ctx = SpaceCtx(r, sigma)
    g = (gb.build_full if full else gb.build_component)(ctx)
    vertices, adj, comp, n_comp = _literal_build(ctx, full)
    assert g.vertices == vertices
    assert g.adj == adj
    assert g.component_id == comp
    assert g.n_components == n_comp


def _graph_digest(g):
    h = hashlib.sha256()
    for v in g.vertices:
        h.update(encode_tuple(v))
    h.update(",".join(map(str, g.adj)).encode())
    h.update(",".join(map(str, g.component_id)).encode())
    return h.hexdigest()


def test_full_graph_41_digest_pinned():
    """The (4,1) full graph, 30 relabelled copies of the base component, is
    numbered as by the per-component BFS it replaced: vertices, rows and
    component ids are pinned to that build's digest."""
    g = gb.full_graph(4, 1)
    assert (len(g), g.n_components) == (75600, 30)
    assert _graph_digest(g) == (
        "586aa4b8217329bba92630a7876885b639248fc2f8f90d0e57866b12ef94b96f")


def _rediscovered_copies(ctx, g, ids):
    """Reference: each clique copy through the vertices ids, found from
    every one of its vertices there."""
    copies = {}
    for i in ids:
        for h, sl in gb.clique_slices(ctx, g.vertices[i]):
            members = tuple(sorted(
                g.index[w] for w in gb.clique_copy_vertices(ctx, h, sl)))
            assert copies.setdefault((h,) + sl, members) == members
    return copies


@pytest.mark.parametrize("r,sigma", [(3, 1), (4, 2), (4, 1), (5, 3)])
def test_kept_clique_copies_match_rediscovery(r, sigma):
    """The copies the build keeps are those found again from every vertex."""
    ctx = SpaceCtx(r, sigma)
    g = gb.component(r, sigma)
    assert g.clique_copies == _rediscovered_copies(ctx, g, range(len(g)))
    assert len(g.clique_copies) == ((1 << sigma) - 1) * len(g)


@pytest.mark.parametrize("r,sigma", [(3, 1), (4, 2)])
def test_full_graph_keeps_no_clique_copies(r, sigma):
    """A full graph keeps no clique copies, so its clique family is refused
    with a typed error rather than read as empty."""
    g = gb.full_graph(r, sigma)
    assert g.clique_copies == {}
    with pytest.raises(gb.BuildError):
        g.clique_family()


def test_replace_starts_derived_indexes_afresh():
    """A graph made by dataclasses.replace with new rows builds its own
    neighbour masks, label rows and copy indexes, and never reads those of
    the graph it came from."""
    g = gb.component(3, 1)
    g.nbr_mask(0)
    g.linear_vperm(bytes(range(8)), range(g.ctx.m1 + 1))
    g.clique_family()
    decomp.enumerate_turan_copies(g)
    derived = ["_nbr_masks", "_label_rows", "_clique_family",
               "_turan_copy_cache"]
    assert None not in [getattr(g, name) for name in derived]
    k = next(j for j in range(1, len(g)) if not g.has_edge(0, j))
    adj = array(g.adj.typecode, g.adj)
    adj[0] = k
    bad = replace(g, adj=adj)
    assert [getattr(bad, name) for name in derived] == [None] * 4
    assert bad.nbr_mask(0) >> k & 1
    assert bad.nbr_mask(0) != g.nbr_mask(0)


def _mutant(fn, old, new):
    """fn recompiled in the graphbuild namespace with old replaced by new."""
    src = inspect.getsource(fn)
    assert src.count(old) == 1
    ns = dict(vars(gb))
    exec(compile(src.replace(old, new), gb.__file__, "exec"), ns)
    return ns[fn.__name__]


def test_bfs_rejects_copy_closed_early():
    """A mutant BFS that closes a copy after 2s - 1 expansions leaves
    copies open at the end, and the build says so instead of returning."""
    build = _mutant(gb.build_component, "size = 2 * ctx.s\n",
                    "size = 2 * ctx.s - 1\n")
    with pytest.raises(gb.BuildError, match="not closed"):
        build(SpaceCtx(3, 1))


@pytest.mark.parametrize("r,sigma", [(3, 1), (4, 2)])
def test_full_build_rejects_overlapping_copies(r, sigma):
    """A mutant build_full that relabels the base component under every
    entry permutation, indexed base vertex or not, overlaps its copies, and
    the count check refuses it."""
    build = _mutant(gb.build_full, "in index:\n            continue\n",
                    "in ():\n            continue\n")
    with pytest.raises(gb.BuildError, match="distinct, expected"):
        build(SpaceCtx(r, sigma))


def test_bfs_rejects_row_with_vertex_twice_per_copy(monkeypatch):
    """A copy builder that lists each member twice puts v 2 m0 = 8 times into
    its concatenated row at (3,1), and the build rejects the row."""
    real = gb.clique_copy_vertices
    monkeypatch.setattr(gb, "clique_copy_vertices",
                        lambda ctx, h, sl: real(ctx, h, sl) * 2)
    with pytest.raises(gb.BuildError, match="occurs 8 times"):
        gb.build_component(SpaceCtx(3, 1))


def test_one_report_builds_the_component_once(tmp_path):
    """report reads component(r, s) and full_graph(r, s), whose build reads
    component(r, s, cap): one BFS and one cached graph however cap is
    passed.  A fresh process, so no earlier test has built (4,2)."""
    code = (
        "from pencilgraphs import cli, graphbuild as gb\n"
        "calls = []\n"
        "real = gb.build_component\n"
        "gb.build_component = lambda *a: calls.append(a) or real(*a)\n"
        "assert cli.main(['report', '-r', '4', '-s', '2', '--out', 'r.json']) == 0\n"
        "assert len(calls) == 1, calls\n"
        "g = gb.component(4, 2)\n"
        "assert g is gb.component(4, 2, gb.DEFAULT_CAP)\n"
        "assert g is gb.component(4, 2, cap=gb.DEFAULT_CAP)\n"
        "assert gb.full_graph(4, 2) is gb.full_graph(4, 2, gb.DEFAULT_CAP)\n"
        "assert len(calls) == 1, calls\n"
    )
    src = os.path.dirname(os.path.dirname(pencilgraphs.__file__))
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr + res.stdout


@pytest.mark.parametrize("builder", [gb.component, gb.full_graph])
def test_lower_cap_refused_after_a_cached_build(builder):
    """A cached build at the default cap does not let a lower cap through."""
    g = builder(3, 1)
    with pytest.raises(gb.CapError):
        builder(3, 1, len(g) - 1)
    with pytest.raises(gb.CapError):
        builder(3, 1, cap=len(g) - 1)
    assert builder(3, 1) is g
