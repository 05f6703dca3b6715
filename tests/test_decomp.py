from array import array
from bisect import bisect_left
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
    parts = decomp.turan_vertices(g, tid)
    got = {pencil.display(w) for w in parts[v[0]]}
    assert got == set(_golden.TURAN_PART_OF_BASE[case + (i,)])


def test_turan_copy_is_turan_graph():
    ctx = SpaceCtx(4, 1)
    g = gb.component(4, 1)
    v = pencil.base_vertex_tuple(ctx)
    tid = decomp.turan_copies_at(ctx, v)[0]
    parts = decomp.turan_vertices(g, tid)
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

    def member_ids(tid):
        parts = decomp.turan_vertices(g, tid).values()
        return {g.index[w] for part in parts for w in part}

    members = member_ids(tid)
    assert len(members) == ctx.t * ctx.s
    for j in members:
        w = g.vertices[j]
        i2 = next(t.i for t in decomp.turan_copies_at(ctx, w)
                  if t.w == tid.w)
        assert member_ids(decomp.TuranCopyId(tid.w, i2, w)) == members


def _all_anchor_turan_copies(ctx, g):
    """The literal enumeration: build the copy at every anchor (v, i)."""
    copies, at_anchor = {}, {}
    for vi, v in enumerate(g.vertices):
        for i in range(1, ctx.m1 + 1):
            tid = decomp.TuranCopyId(v[0] | v[i], i, v)
            parts = decomp.turan_vertices(g, tid)
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
    got, incidence = decomp.enumerate_turan_copies(g)
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
    g = gb.component(*case)
    rep = decomp.verify_decomposition(g)
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
    """A freshly built graph whose kept clique copies and Turan copy cache
    are safe to edit.

    The lru-cached ``graphbuild.component`` is not used, so editing the
    copies cannot leak into other tests.
    """
    ctx = SpaceCtx(*case)
    g = gb.build_component(ctx)
    cliques, _ = decomp.enumerate_clique_copies(g)
    turans, _ = decomp.enumerate_turan_copies(g)
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
    rep = decomp.verify_decomposition(g)
    assert rep.ok is False
    assert f"edge {(verts[0], verts[1])} in two clique copies" in rep.failures
    assert f"clique copy count {rep.ell0} != {rep.ell0 - 1}" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_dropped_clique_copy(case):
    ctx, g, cliques, _ = _tampered(case)
    del cliques[next(iter(cliques))]
    rep = decomp.verify_decomposition(g)
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
    rep = decomp.verify_decomposition(g)
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
    rep = decomp.verify_decomposition(g)
    assert rep.ok is False
    assert f"edge ({min(a, b)},{max(a, b)}) in two Turan copies" in rep.failures
    assert f"two Turan copies share vertices {x},{y}" in rep.failures
    assert f"Turan copy count {rep.ell1} != {rep.ell1 - 1}" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_dropped_turan_copy(case):
    ctx, g, _, turans = _tampered(case)
    del turans[next(iter(turans))]
    rep = decomp.verify_decomposition(g)
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
    rep = decomp.verify_decomposition(g)
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
    rep = decomp.verify_decomposition(g)
    assert rep.ok is False
    assert (f"Turan copy edge inside a part {min(x, z)},{max(x, z)}"
            in rep.failures)


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_wrong_incidence(monkeypatch, case):
    ctx, g, _, _ = _tampered(case)
    real = decomp.enumerate_clique_copies

    def bumped(g):
        copies, incidence = real(g)
        incidence[0] += 1
        return copies, incidence

    monkeypatch.setattr(decomp, "enumerate_clique_copies", bumped)
    g._turan_copy_cache[1][-1] -= 1
    rep = decomp.verify_decomposition(g)
    assert rep.ok is False
    assert "clique incidence not m0 at every vertex" in rep.failures
    assert "Turan incidence not m1 at every vertex" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_clique_incidence_is_counted_from_members(case):
    """A kept copy that loses a member lowers that vertex's incidence."""
    ctx, g, cliques, _ = _tampered(case)
    key = next(iter(cliques))
    x = cliques[key][0]
    cliques[key] = cliques[key][1:]
    incidence = decomp.enumerate_clique_copies(g)[1]
    assert incidence[x] == ctx.m0 - 1
    assert incidence.count(ctx.m0) == len(g) - 1
    rep = decomp.verify_decomposition(g)
    assert "clique incidence not m0 at every vertex" in rep.failures


@pytest.mark.parametrize("case", [(3, 1), (4, 2)])
def test_verify_rejects_non_maximal_copies(case):
    ctx, g, cliques, turans = _tampered(case)
    key = next(iter(cliques))
    cliques[key] = cliques[key][1:]
    tkey, parts = next(iter(turans.items()))
    turans[tkey] = [parts[0] - {min(parts[0])}] + parts[1:]
    rep = decomp.verify_decomposition(g)
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
    rep = decomp.verify_decomposition(g)
    assert rep.ok is False
    for msgs in want:
        assert msgs & set(rep.failures)


def _walk_verify(g):
    """The pair-walk check that verify_decomposition replaced, kept verbatim
    as the literal reference: a bisect per pair into the sorted rows, one
    slot array per family and sets for the stray pairs."""
    ctx = g.ctx
    failures: list[str] = []
    n = len(g.vertices)
    s, t, m1 = ctx.s, ctx.t, ctx.m1
    two_s = 2 * s

    cliques, cinc = decomp.enumerate_clique_copies(g)
    turans, tinc = decomp.enumerate_turan_copies(g)
    ell0, ell1 = len(cliques), len(turans)

    if any(c != ctx.m0 for c in cinc):
        failures.append("clique incidence not m0 at every vertex")
    if any(c != ctx.m1 for c in tinc):
        failures.append("Turan incidence not m1 at every vertex")

    exp_ell0 = ((1 << ctx.sigma) - 1) * n
    exp_ell1 = m1 * n // (s * t)
    if ell0 != exp_ell0:
        failures.append(f"clique copy count {ell0} != {exp_ell0}")
    if ell1 != exp_ell1:
        failures.append(f"Turan copy count {ell1} != {exp_ell1}")

    # each edge in exactly one copy per family, and the copies intersect in
    # it; edge (x, y) is the slot of y in x's sorted adjacency row, a pair
    # with no slot is a non-edge and is kept by pair in a set.  The slot
    # lookup is written out in both passes: a call per pair would cost about
    # a tenth of the check.
    adj, d = g.adj, g.degree
    edges = g.edge_count()
    clique_verts = list(cliques.values())
    clique_of = array("i", [-1]) * len(adj)  # slot -> last clique copy on it
    stray_clique: set[tuple[int, int]] = set()  # non-edges in a clique copy
    clique_cover = 0
    bad = False
    for ci, verts in enumerate(clique_verts):
        for a, x in enumerate(verts):
            lo = x * d
            hi = lo + d
            for y in verts[a + 1:]:
                k = bisect_left(adj, y, lo, hi)
                if k < hi and adj[k] == y:
                    if clique_of[k] >= 0:
                        failures.append(f"edge {(x, y)} in two clique copies")
                        bad = True
                    else:
                        clique_cover += 1
                    clique_of[k] = ci
                    continue
                e = (x, y)
                failures.append(f"clique copy not a clique at {e}")
                bad = True
                if e in stray_clique:
                    failures.append(f"edge {e} in two clique copies")
                else:
                    clique_cover += 1
                stray_clique.add(e)
            if bad:
                break
        if bad:
            break
    if clique_cover != edges:
        failures.append(
            f"clique copies cover {clique_cover} pairs, "
            f"expected {edges} edges"
        )

    # With no edge covered twice, a clique copy C and a Turan copy T meet in
    # more than an edge exactly when T holds two edges of C: a clique copy
    # met twice on one Turan copy's edges is the failure.
    turan_seen = bytearray(len(adj))  # slot -> covered by a Turan copy
    stray_turan: set[tuple[int, int]] = set()  # non-edges across parts
    same_pairs: set[int] = set()  # x * n + y for pairs inside a part
    turan_cover = 0
    for part_sets in turans.values():
        labels = {}
        for pi, ps in enumerate(part_sets):
            for x in ps:
                labels[x] = pi
        verts = sorted(labels)
        met: set[int] = set()  # clique copies on this copy's edges
        for a, x in enumerate(verts):
            lx = labels[x]
            lo = x * d
            hi = lo + d
            for y in verts[a + 1:]:
                k = bisect_left(adj, y, lo, hi)
                edge = k < hi and adj[k] == y
                if labels[y] == lx:
                    if edge:
                        failures.append(f"Turan copy edge inside a part {x},{y}")
                    p = x * n + y
                    if (p in same_pairs
                            or (turan_seen[k] if edge
                                else (x, y) in stray_turan)):
                        failures.append(
                            f"two Turan copies share vertices {x},{y}"
                        )
                    same_pairs.add(p)
                elif edge:
                    if turan_seen[k]:
                        failures.append(f"edge ({x},{y}) in two Turan copies")
                    else:
                        turan_cover += 1
                    turan_seen[k] = 1
                    ci = clique_of[k]
                    if ci in met:
                        inter = set(clique_verts[ci]).intersection(labels)
                        failures.append(
                            f"copy intersection at {(x, y)} is {sorted(inter)}"
                        )
                    elif ci >= 0:
                        met.add(ci)
                else:
                    failures.append(f"Turan copy non-edge across parts {x},{y}")
                    if (x, y) in stray_turan:
                        failures.append(f"edge ({x},{y}) in two Turan copies")
                    else:
                        turan_cover += 1
                    stray_turan.add((x, y))
    if turan_cover != edges:
        failures.append(
            f"Turan copies cover {turan_cover} edges, "
            f"expected {edges}"
        )

    # maximality
    decomp._check_maximality(g, cliques, turans, failures)

    # degree identity and double-cover arithmetic
    if ctx.m0 * (two_s - 1) != ctx.degree:
        failures.append("degree identity m0(2s-1) = s(t-1)m1 fails")
    if ell0 * (two_s * (two_s - 1) // 2) != edges:
        failures.append("clique edge double-cover arithmetic fails")
    if ell1 * (s * s * t * (t - 1) // 2) != edges:
        failures.append("Turan edge double-cover arithmetic fails")

    note = (
        "copy counts follow ell0=(2^sigma-1)|V| cliques and "
        "ell1=m1|V|/(st) Turan copies; the theorem statement's phrasing "
        "swaps the two families and is treated as a typo (counts verified)"
    )
    return decomp.DecompReport(not failures, ell0, ell1, ctx.m0, ctx.m1,
                        edges, failures, note)


def _partial_outsider(g, members, rest):
    """The least vertex outside members adjacent to some, not all, of rest."""
    return next(z for z in range(len(g)) if z not in members
                and 0 < sum(g.has_edge(z, y) for y in rest) < len(rest))


def test_verify_reports_every_tampered_clique_copy():
    """The first and last clique copies each lose their top member to an
    outsider adjacent to only some of the rest: both copies' non-edges are
    named, and the cover counts the distinct pairs of every copy, not the
    pairs walked before the first bad copy."""
    ctx, g, cliques, _ = _tampered((4, 2))
    bad = []
    for key in (next(iter(cliques)), list(cliques)[-1]):
        rest = cliques[key][:-1]
        z = _partial_outsider(g, cliques[key], rest)
        cliques[key] = tuple(sorted(rest + (z,)))
        bad.append(cliques[key])
    rep = decomp.verify_decomposition(g)
    assert rep.ok is False
    for verts in bad:
        for e in combinations(verts, 2):
            if not g.has_edge(*e):
                assert f"clique copy not a clique at {e}" in rep.failures
    pairs = {e for verts in cliques.values() for e in combinations(verts, 2)}
    e = g.edge_count()
    assert len(pairs) < e
    assert (f"clique copies cover {len(pairs)} pairs, expected {e} edges"
            in rep.failures)


def test_verify_reports_every_tampered_turan_copy():
    """The first and last Turan copies each lose the least member of their
    first part to an outsider adjacent to only some of the other parts: both
    copies' cross non-edges are named, and the cover counts the distinct
    cross pairs of every copy."""
    ctx, g, _, turans = _tampered((4, 2))

    def cross(parts):
        return {tuple(sorted((a, b))) for i, p in enumerate(parts)
                for q in parts[i + 1:] for a in p for b in q}

    bad = []
    for key in (next(iter(turans)), list(turans)[-1]):
        parts = turans[key]
        rest = frozenset().union(*parts[1:])
        z = _partial_outsider(g, parts[0] | rest, rest)
        turans[key] = [parts[0] - {min(parts[0])} | {z}] + parts[1:]
        bad.append(turans[key])
    rep = decomp.verify_decomposition(g)
    assert rep.ok is False
    for parts in bad:
        for a, b in cross(parts):
            if not g.has_edge(a, b):
                assert (f"Turan copy non-edge across parts {a},{b}"
                        in rep.failures)
    pairs = set().union(*map(cross, turans.values()))
    e = g.edge_count()
    assert len(pairs) < e
    assert f"Turan copies cover {len(pairs)} edges, expected {e}" in rep.failures


def _summary(rep):
    return rep.ok, rep.ell0, rep.ell1, rep.m0, rep.m1


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
def test_verify_matches_reference_walks(case):
    g = gb.component(*case)
    rep = decomp.verify_decomposition(g)
    ref = _walk_verify(g)
    assert _summary(rep) == _summary(ref)
    assert rep.as_dict() == ref.as_dict()


# every mutant test above, with the arguments it takes
_MUTANTS = [
    (test, dict(case=case)) for case in [(3, 1), (4, 2)] for test in [
        test_verify_rejects_duplicated_clique_copy,
        test_verify_rejects_dropped_clique_copy,
        test_verify_rejects_clique_copy_with_non_edge,
        test_verify_rejects_duplicated_turan_copy,
        test_verify_rejects_dropped_turan_copy,
        test_verify_rejects_turan_copy_with_non_edge,
        test_verify_rejects_turan_parts_swapped,
        test_verify_rejects_wrong_incidence,
        test_clique_incidence_is_counted_from_members,
        test_verify_rejects_non_maximal_copies,
    ]
] + [(test, {}) for test in [
    test_verify_reports_every_copy_intersection,
    test_verify_reports_every_tampered_clique_copy,
    test_verify_reports_every_tampered_turan_copy,
]]


@pytest.mark.parametrize(
    "test,kwargs", _MUTANTS,
    ids=[t.__name__.removeprefix("test_")
         + "".join(map(str, kw.get("case", ()))) for t, kw in _MUTANTS])
def test_verify_matches_reference_walks_on_mutants(monkeypatch, test,
                                                   kwargs):
    """Each mutant test runs as written, its strings asserted on the
    per-vertex check, and that check's verdict and counts equal the
    reference walks' on the same mutated copies."""
    check = decomp.verify_decomposition
    seen = []

    def both(g):
        rep = check(g)
        seen.append((_summary(rep), _summary(_walk_verify(g))))
        return rep

    monkeypatch.setattr(decomp, "verify_decomposition", both)
    if "monkeypatch" in test.__code__.co_varnames:
        kwargs = dict(kwargs, monkeypatch=monkeypatch)
    test(**kwargs)
    assert seen
    for got, want in seen:
        assert got == want
        assert got[0] is False


@pytest.mark.parametrize("rho", [2, 3, 4, 5])
def test_apply_index_perm_matches_entrywise_form(rho):
    ctx = SpaceCtx(rho + 1, 1)
    v = pencil.base_vertex_tuple(ctx)
    v = (v[0],) + v[:0:-1]  # entries reversed, so no map fixes v by accident
    for i in range(1, ctx.m1 + 1):
        for psi in decomp._pivot_maps(rho, i):
            literal = (v[0],) + tuple(v[psi[j]] for j in range(1, ctx.m1 + 1))
            assert decomp.apply_index_perm(ctx, v, psi) == literal
