import json
import random
import tracemalloc
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from pencilgraphs import (autnr, cli, config as cfgmod, decomp, gf2,
                          graphbuild as gb, homog, hrho, pencil)
from pencilgraphs.gf2 import SpaceCtx


def _setup(case):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    gens = homog.full_generator_set(g)
    return ctx, g, gens


def test_pure_entry_permutation_action():
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    psi = hrho.parse_perm(2, "1(23)")
    vperm = g.vperm_of(lambda v: decomp.apply_index_perm(ctx, v, psi))
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
    orb = homog.vertex_orbit_of_base(g, partial)
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


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
def test_h_property_exhaustive(case):
    ctx, g, gens = _setup(case)
    reports = homog.check_H_property(g, gens)
    for rep in reports:
        assert rep.copies_equivariant
        assert rep.ok
        assert rep.orbit_size == rep.total == 2 * g.edge_count()
        assert rep.as_dict()["exhaustive"] is True
        assert rep.as_dict()["sampled_checked"] == rep.total


def test_h_property_fails_on_stabilizer_alone_41():
    """The stabilizer fixes the base vertex, so its arc orbit is short of
    the total and the check fails although every generator is valid."""
    g = gb.component(4, 1)
    stab = [(a.display(), a.vperm) for a in autnr.synth_generators(g)
            if a.vperm is not None]
    reports = homog.check_H_property(g, homog.GeneratorSet(stab, [], []))
    for rep in reports:
        assert rep.copies_equivariant
        assert rep.orbit_size < rep.total
        assert rep.ok is False


@lru_cache(maxsize=None)
def _cached_setup(case):
    return _setup(case)


def _arc_orbit_size(g, vperms) -> int:
    """The literal reference: the orbit of the base arc among all 2|E| arcs
    under the generators, arcs coded as a * n + b."""
    n = len(g)
    perms = np.array(vperms, dtype=np.int64)
    v, u = homog.base_arc(g)
    seen = np.zeros(n * n, dtype=bool)
    frontier = np.array([v * n + u])
    seen[frontier] = True
    while frontier.size:
        a, b = np.divmod(frontier, n)
        new = []
        for p in perms:
            img = np.unique(p[a] * n + p[b])
            img = img[~seen[img]]
            seen[img] = True
            new.append(img)
        frontier = np.concatenate(new)
    return int(np.count_nonzero(seen))


def _subset(gens, families):
    return homog.GeneratorSet(*(getattr(gens, f) if f in families else []
                                for f in ("stabilizer", "entry_perms", "movers")))


@pytest.mark.parametrize("case,stab_size,fiber_size", [
    ((3, 1), 12, 72), ((4, 2), 36, 216), ((4, 1), 56, 9408),
])
def test_certificate_matches_arc_orbit(case, stab_size, fiber_size):
    """The two-orbit certificate gives the arc orbit's size and verdict for
    the full set, the stabilizer alone, and the stabilizer with the entry
    permutations but no base movers."""
    ctx, g, gens = _cached_setup(case)
    total = 2 * g.edge_count()
    for families, size in [
        (("stabilizer", "entry_perms", "movers"), total),
        (("stabilizer",), stab_size),
        (("stabilizer", "entry_perms"), fiber_size),
    ]:
        subset = _subset(gens, families)
        assert _arc_orbit_size(g, subset.vperms()) == size
        for rep in homog.check_H_property(g, subset):
            assert rep.copies_equivariant
            assert (rep.orbit_size, rep.total) == (size, total)
            assert rep.ok is (size == total)


@pytest.mark.parametrize("case,cert,arcs", [((3, 1), 42, 42), ((4, 2), 210, 7560)])
def test_certificate_without_stabilizer(case, cert, arcs):
    """Entry permutations and base movers are transitive on the vertices but
    give the neighbour orbit no generator that moves the base arc's head:
    at (4,2) the certificate stays at 210 although the arc orbit is whole,
    the documented one-sided limit."""
    ctx, g, gens = _cached_setup(case)
    subset = _subset(gens, ("entry_perms", "movers"))
    assert _arc_orbit_size(g, subset.vperms()) == arcs
    for rep in homog.check_H_property(g, subset):
        assert rep.copies_equivariant
        assert rep.orbit_size == cert
        assert rep.ok is False


def test_certificate_checks_equivariance():
    """A transposition that is not an automorphism enlarges the vertex orbit
    and so joins the certificate, whose equivariance check rejects it."""
    ctx, g, gens = _cached_setup((3, 1))
    far = next(x for x in range(1, len(g)) if not g.has_edge(0, x))
    swap = list(range(len(g)))
    swap[0], swap[far] = far, 0
    assert not autnr._is_automorphism(g, swap)
    bad = homog.GeneratorSet([("swap", tuple(swap))] + gens.stabilizer,
                             gens.entry_perms, gens.movers)
    for rep in homog.check_H_property(g, bad):
        assert rep.orbit_size == rep.total
        assert rep.copies_equivariant is False
        assert rep.ok is False


def test_extend_identity_on_copy():
    g = gb.component(3, 1)
    copies, _ = decomp.enumerate_clique_copies(g)
    verts = min(copies.values())
    vperm, stats = homog.extend_partial(g, {x: x for x in verts})
    assert vperm is not None
    assert autnr._is_automorphism(g, vperm)


def test_all_k4_copy_automorphisms_extend_31():
    """Ultrahomogeneity on the clique side for the smallest case."""
    g = gb.component(3, 1)
    copies, _ = decomp.enumerate_clique_copies(g)
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
    g = gb.component(3, 1)
    copies, _ = decomp.enumerate_clique_copies(g)
    partial = {x: x for x in min(copies.values())}
    _, stats = homog.extend_partial(g, partial)
    assert stats.nodes > 1
    monkeypatch.setattr(homog, "EXTEND_NODE_CAP", 1)
    with pytest.raises(homog.HomogError, match="node cap"):
        homog.extend_partial(g, partial)


def test_extend_rejects_malformed_partial():
    """Keys and values must be vertex ids: -1 would alias the last vertex."""
    g = gb.component(3, 1)
    for partial in ({-1: 0}, {0: -1}, {42: 0}, {0: 42}, {0.0: 0}, {0: 1.0},
                    {True: 0}, {0: "1"}):
        with pytest.raises(homog.HomogError, match="vertex ids"):
            homog.extend_partial(g, partial)


def _mask_backtrack(adj: list[int], cand: list[int], partial: dict[int, int],
                    node_cap: int):
    """The literal reference the cell search replaced: one n-bit candidate
    mask per vertex, narrowed by every assignment, with each old mask on
    the undo trail.  Returns (map | None, stats) like homog._backtrack."""
    n = len(adj)
    stats = homog.ExtendStats()

    m_fwd = [-1] * n
    cand = list(cand)

    def assign(x, y, trail):
        m_fwd[x] = y
        trail.append(("a", x))
        # constrain all unmapped
        for z in range(n):
            if m_fwd[z] >= 0:
                continue
            old = cand[z]
            new = old & (adj[y] if adj[x] >> z & 1 else ~adj[y]) & ~(1 << y)
            if new != old:
                trail.append(("c", z, old))
                cand[z] = new
                if new == 0:
                    return False
        return True

    def undo(trail, mark):
        while len(trail) > mark:
            entry = trail.pop()
            if entry[0] == "a":
                m_fwd[entry[1]] = -1
            else:
                _, z, old = entry
                cand[z] = old

    trail: list = []
    for x, y in sorted(partial.items()):
        if not (cand[x] >> y & 1 and assign(x, y, trail)):
            stats.exhausted = True
            return None, stats

    def pick():
        best, bestc, bestk = -1, 0, None
        for i in range(n):
            if m_fwd[i] < 0:
                c = cand[i]
                k = c.bit_count()
                if bestk is None or k < bestk:
                    best, bestc, bestk = i, c, k
                    if k <= 1:
                        break
        return best, bestc

    frames: list[list] = []
    found = False
    while True:
        best, bestc = pick()
        if best < 0:
            found = True
            break
        frames.append([best, bestc, len(trail)])
        live = False
        while frames:
            x, cands, mark = frames[-1]
            undo(trail, mark)
            y = None
            while cands:
                low = cands & -cands
                cands ^= low
                frames[-1][1] = cands
                y0 = low.bit_length() - 1
                stats.nodes += 1
                if stats.nodes > node_cap:
                    raise homog.HomogError("extension search exceeded node cap")
                if assign(x, y0, trail):
                    y = y0
                    break
                undo(trail, mark)
            if y is not None:
                live = True
                break
            frames.pop()
        stats.max_depth = max(stats.max_depth, len(frames))
        if not live:
            break

    if found:
        return list(m_fwd), stats
    stats.exhausted = True
    return None, stats


def _mask_extend(g, partial, node_cap=homog.EXTEND_NODE_CAP):
    n = len(g)
    nbr = [g.nbr_mask(i) for i in range(n)]
    return _mask_backtrack(nbr, [(1 << n) - 1] * n, partial, node_cap)


def _mask_self_duality(cfg):
    """The reference duality search on the bitmask Levi graph, points
    0..nb-1 and line li as nb + li, with colour-class candidates masked to
    the other side.  Returns (map | None, stats)."""
    nb = cfg.n_points
    size = nb + len(cfg.lines)
    adj = [0] * size
    for li, ln in enumerate(cfg.lines):
        for p in ln:
            adj[p] |= 1 << (nb + li)
            adj[nb + li] |= 1 << p
    colors = cfgmod._refine_colors(cfg, [0] * size)
    classes: dict[int, int] = {}
    for x in range(size):
        classes[colors[x]] = classes.get(colors[x], 0) | 1 << x
    black = (1 << nb) - 1
    white = ((1 << size) - 1) ^ black
    cand = [classes[colors[x]] & (white if x < nb else black)
            for x in range(size)]
    return _mask_backtrack(adj, cand, {}, cfgmod.DUALITY_NODE_CAP)


def _random_partial_maps(case, count, seed):
    """Seeded partial maps: an automorphism (a random word in the
    generators) restricted to 1..4 random vertices; in every third map one
    image is moved to a vertex outside the other images."""
    _, g, gens = _cached_setup(case)
    vperms = gens.vperms()
    n = len(g)
    rng = random.Random(seed)
    out = []
    for i in range(count):
        auto = list(range(n))
        for _ in range(8):
            p = rng.choice(vperms)
            auto = [p[v] for v in auto]
        m = {x: auto[x] for x in rng.sample(range(n), rng.randint(1, 4))}
        if i % 3 == 2:
            x = rng.choice(sorted(m))
            m[x] = rng.choice(sorted(set(range(n)) - set(m.values())))
        out.append(m)
    return out


def _capped(search, *args) -> bool:
    """Whether search(*args) stops at its node cap."""
    try:
        search(*args)
    except homog.HomogError:
        return True
    return False


@pytest.mark.parametrize("case,count", [((3, 1), 30), ((4, 2), 30),
                                        ((4, 1), 3)])
def test_cell_search_matches_mask_search(case, count):
    """The same map and ExtendStats as the mask search on seeded partial
    maps, the failing third included, and the same node-cap verdicts."""
    g = gb.component(*case)
    one = [0] * len(g)
    verdicts = set()
    for partial in _random_partial_maps(case, count, seed=2021 + len(g)):
        want = _mask_extend(g, partial)
        assert homog.extend_partial(g, partial) == want
        verdicts.add(want[0] is None)
        # a capped rerun of the reference takes seconds at (4,1)
        if not want[1].nodes or case == (4, 1):
            continue
        for cap in (want[1].nodes - 1, want[1].nodes):
            assert (_capped(_mask_extend, g, partial, cap)
                    == _capped(homog._backtrack, g.neighbors_of, one, one,
                               partial, cap)
                    == (cap < want[1].nodes))
    assert verdicts == {True, False}


def test_extend_partial_starts_without_an_empty_cell(monkeypatch):
    """extend_partial gives every vertex one key on both sides, so no cell
    starts with domain slots but no image: the case in which the cell
    search stops at once where the mask search reached the same verdict
    later.  That case itself returns exhausted with no nodes."""
    seen = []
    search = homog._backtrack

    def spy(row, dom_key, img_key, partial, node_cap):
        seen.append((dom_key, img_key))
        return search(row, dom_key, img_key, partial, node_cap)

    monkeypatch.setattr(homog, "_backtrack", spy)
    g = gb.component(3, 1)
    homog.extend_partial(g, {0: 0})
    (dom_key, img_key), = seen
    assert dom_key == img_key and len(set(dom_key)) == 1
    assert len(dom_key) == len(g)
    vperm, stats = search(g.neighbors_of, [0] * (len(g) - 1) + [1],
                          [0] * len(g), {}, 10)
    assert vperm is None and stats == homog.ExtendStats(0, 0, True)


def _duality_with_stats(cfg, monkeypatch):
    stats = []
    search = homog._backtrack

    def spy(*args):
        out = search(*args)
        stats.append(out[1])
        return out

    monkeypatch.setattr(homog, "_backtrack", spy)
    return cfgmod.self_duality_map(cfg), stats[0]


def test_duality_matches_mask_search_31(monkeypatch):
    cfg = cfgmod.build_config(gb.component(3, 1))
    got = _duality_with_stats(cfg, monkeypatch)
    assert got == _mask_self_duality(cfg)
    assert got[1].nodes == 87


@pytest.mark.heavy
def test_duality_matches_mask_search_41(monkeypatch):
    """The reference takes about 15 s and 1 GB here."""
    cfg = cfgmod.build_config(gb.component(4, 1))
    assert _duality_with_stats(cfg, monkeypatch) == _mask_self_duality(cfg)


def _tuple_orbit(seed: tuple, gens) -> set[tuple]:
    """Orbit of a vertex tuple under the generators, acting entrywise."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for t in frontier:
            for p in gens:
                img = tuple(p[x] for x in t)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


@pytest.mark.parametrize("case,movers,size", [
    ((3, 1), True, 42 * 24), ((4, 2), True, 630 * 24),
    ((3, 1), False, 144), ((4, 2), False, 432),
])
def test_clique_copy_orbit_is_every_ordered_copy(case, movers, size):
    """Claim (c) exactly over the clique copies at rho = 2: the ordered base
    copy has ell0 * (2s)! images, so every bijection between two copies
    extends to an automorphism.  Without the base movers it does not."""
    ctx, g, gens = _cached_setup(case)
    copies, _ = decomp.enumerate_clique_copies(g)
    copy_sets = {frozenset(v) for v in copies.values()}
    vperms = gens.vperms() if movers else [
        p for _, p in gens.stabilizer + gens.entry_perms]
    orb = _tuple_orbit(tuple(min(copies.values())), vperms)
    assert all(frozenset(t) in copy_sets for t in orb)
    assert len(orb) == size
    assert (size == len(copies) * factorial(2 * ctx.s)) is movers


@pytest.mark.parametrize("case,k4s", [((3, 1), 4), ((4, 2), 492)])
def test_literal_k4_reading_of_claim_c(case, k4s):
    """Read literally, claim (c) fails at (4,2): of the 492 K4s through the
    base vertex only the m0 = 12 clique copies are maximal, and an
    automorphism cannot map a maximal clique onto a K4 inside a larger
    clique.  At (3,1) every K4 is a copy.  m0 = 2^r - 4, beside the
    abstract's 2^(sigma+1), which agrees only at r = 3."""
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    copies, _ = decomp.enumerate_clique_copies(g)
    at_base = {frozenset(v) for v in copies.values() if 0 in v}
    found = set()
    for a, b, c in combinations(g.neighbors_of(0), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            k4 = frozenset((0, a, b, c))
            found.add(k4)
            common = g.nbr_mask(0) & g.nbr_mask(a) & g.nbr_mask(b) & g.nbr_mask(c)
            assert (common == 0) == (k4 in at_base)
    assert len(found) == k4s
    assert at_base <= found and len(at_base) == ctx.m0 == 2 ** ctx.r - 4
    assert (ctx.m0 == 2 ** (ctx.sigma + 1)) == (ctx.r == 3)


def test_witness_absent_for_31():
    g = gb.component(3, 1)
    wit, tried = homog.non_uh_witness(g)
    assert wit is None
    assert tried == 2  # identity plus the one nontrivial arc-fixing map


@pytest.mark.parametrize("case", [(4, 2), (4, 1)])
def test_witness_found_for_r_above_3(case):
    g = gb.component(*case)
    wit, tried = homog.non_uh_witness(g)
    assert wit is not None
    assert wit.stats.exhausted
    # the failed partial map really is an isomorphism of the copy
    m = wit.partial
    for a in m:
        for b in m:
            if a != b:
                assert g.has_edge(a, b) == g.has_edge(m[a], m[b])


def test_witness_partial_fixes_base_arc():
    g = gb.component(4, 2)
    v, u = homog.base_arc(g)
    wit, _ = homog.non_uh_witness(g)
    assert wit.partial[v] == v and wit.partial[u] == u


def test_seed_independence_of_verdict(capsys):
    """The seed is echoed and changes nothing else in the homog artifact."""
    outs = []
    for seed in ("1", "99"):
        assert cli.main(["homog", "-r", "4", "-s", "2", "--seed", seed]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data.pop("seed") == int(seed)
        outs.append(data)
    assert outs[0] == outs[1]


def _eager_copy_automorphisms(part_sets, a, b):
    """The construction the lazy generator replaced: all maps of the other
    parts are built, for each pair of maps of a's and b's parts, before the
    first is yielded."""
    parts = [sorted(p) for p in part_sets]
    ia = next(i for i, p in enumerate(parts) if a in p)
    ib = next(i for i, p in enumerate(parts) if b in p)
    rest = [i for i in range(len(parts)) if i not in (ia, ib)]

    def part_maps(src, dst, pinned=None):
        src2 = [x for x in src if x != pinned]
        dst2 = [x for x in dst if x != pinned]
        for perm in permutations(dst2):
            m = dict(zip(src2, perm))
            if pinned is not None:
                m[pinned] = pinned
            yield m

    for rest_order in permutations(rest):
        for ma in part_maps(parts[ia], parts[ia], pinned=a):
            for mb in part_maps(parts[ib], parts[ib], pinned=b):
                stack = [dict()]
                for src_i, dst_i in zip(rest, rest_order):
                    new_stack = []
                    for base in stack:
                        for mm in part_maps(parts[src_i], parts[dst_i]):
                            d = dict(base)
                            d.update(mm)
                            new_stack.append(d)
                    stack = new_stack
                for d in stack:
                    full = dict(ma)
                    full.update(mb)
                    full.update(d)
                    yield full


@pytest.mark.parametrize("n_parts,size,ia,ib", [
    (2, 3, 0, 1), (3, 2, 0, 1), (3, 3, 2, 0), (4, 2, 1, 3), (4, 3, 0, 1),
    (5, 2, 3, 1), (3, 4, 0, 2),
])
def test_copy_automorphisms_match_eager_construction(n_parts, size, ia, ib):
    # parts listed unsorted, with labels that are not contiguous per part
    parts = [[n_parts * i + p for i in reversed(range(size))]
             for p in range(n_parts)]
    a, b = parts[ia][1], parts[ib][0]
    got = [list(m.items())
           for m in homog._copy_automorphisms_fixing_arc(parts, a, b)]
    want = [list(m.items()) for m in _eager_copy_automorphisms(parts, a, b)]
    assert got == want
    assert got[0] == [(x, x) for x, _ in got[0]]


def test_copy_automorphisms_first_map_is_cheap_at_7x4():
    """Seven parts of four, the shape of a (5,2) Turan copy: the first map
    comes without building the 24^5 maps of the other parts."""
    parts = [list(range(4 * p, 4 * p + 4)) for p in range(7)]
    tracemalloc.start()
    try:
        first = next(homog._copy_automorphisms_fixing_arc(parts, 0, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == {x: x for x in range(28)}
    assert peak < 1 << 20
