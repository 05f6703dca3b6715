"""The one orbit routine and the Schreier-Sims closure built on it.

``_ref_orbit`` and ``_ref_close_permutations`` are the orbit walk of
``homog`` and the closure with a transversal of whole (u, u^-1) tuples that
``autnr.orbit`` and ``autnr.close_permutations`` replace, kept verbatim as
the differential reference: the new routines must give the same orbit, the
same enlarging generators and the same order.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilgraphs import autnr, graphbuild as gb, homog, hrho


def _ref_close_permutations(gens: list[tuple[int, ...]]) -> int:
    """Order of the permutation group generated by the given tuples.

    Deterministic Schreier-Sims (Sims 1970; Seress, Permutation Group
    Algorithms, 2003, ch. 4).  Level i of the stabilizer chain keeps a base
    point b_i, the strong generators fixing b_0 .. b_{i-1}, and the orbit of
    b_i under them with a transversal.  Every Schreier generator of every
    level is sifted through the levels below it; a residue that is not the
    identity becomes a new strong generator.  Once all of them sift, the
    order is the product of the basic orbit lengths.  No group element is
    enumerated.
    """
    if not gens:
        return 1
    k = len(gens[0])
    ident = tuple(range(k))

    def inverse(p):
        inv = [0] * k
        for x, y in enumerate(p):
            inv[y] = x
        return tuple(inv)

    base: list[int] = []
    strong: list[list[tuple]] = []  # level -> [(s, s^-1)]
    trans: list[dict] = []  # level -> {point: (u, u^-1)}, u(b_i) = point

    def orbit(i):
        b = base[i]
        t = {b: (ident, ident)}
        pts = [b]
        for beta in pts:
            u, ui = t[beta]
            for s, si in strong[i]:
                gamma = s[beta]
                if gamma not in t:
                    t[gamma] = (tuple(s[x] for x in u), tuple(ui[x] for x in si))
                    pts.append(gamma)
        return t

    def sift(h, i):
        """Strip h through levels i, i+1, ...; (residue, level it stuck at)."""
        for j in range(i, len(base)):
            hit = trans[j].get(h[base[j]])
            if hit is None:
                return h, j
            ui = hit[1]
            h = tuple(ui[x] for x in h)
        return h, len(base)

    def add(h, i, j):
        """Make the residue h (fixing b_0 .. b_{j-1}) a strong generator of
        levels i .. j, opening level j when h fixes every base point."""
        if j == len(base):
            base.append(next(x for x in range(k) if h[x] != x))
            strong.append([])
            trans.append({})
        pair = (h, inverse(h))
        for lv in range(i, j + 1):
            strong[lv].append(pair)
            trans[lv] = orbit(lv)

    def residue(i):
        """The first Schreier generator u_beta * s * u_{s(beta)}^-1 of level
        i that does not sift to the identity, as (residue, level), or None."""
        for beta, (u, _) in trans[i].items():
            for s, _ in strong[i]:
                ui = trans[i][s[beta]][1]
                h, j = sift(tuple(ui[s[x]] for x in u), i + 1)
                if h != ident:
                    return h, j
        return None

    for gen in gens:
        h, j = sift(tuple(gen), 0)
        if h != ident:
            add(h, 0, j)
    i = len(base) - 1
    while i >= 0:
        hit = residue(i)
        if hit is None:
            i -= 1
        else:
            add(hit[0], i + 1, hit[1])
            i = hit[1]
    return prod(len(t) for t in trans)



def _ref_orbit(seed: int, gens: list[tuple[int, ...]]
           ) -> tuple[set[int], list[tuple[int, ...]]]:
    """Orbit of vertex seed under gens, and the generators that enlarged it.

    Passes over gens repeat until none maps the orbit outside itself.  A
    generator that does joins the enlarging ones, and the orbit is closed
    under those at once, so it is also their orbit alone.
    """
    orb = {seed}
    used: list[tuple[int, ...]] = []
    grew = True
    while grew:
        grew = False
        for p in gens:
            if orb.issuperset(map(p.__getitem__, orb)):
                continue
            used.append(p)
            grew = True
            new = orb
            while new:
                img = set()
                for q in used:
                    img.update(map(q.__getitem__, new))
                new = img - orb
                orb |= new
    return orb, used



def _check_against_reference(seed, gens):
    """autnr.orbit gives a Schreier vector: seed labelled -1, closed under
    gens, each other point labelled by a generator that maps a point of the
    vector onto it.  Its points and labelling generators are the orbit and
    the enlarging generators of the reference walk, and the closure order
    is the reference's."""
    vec = autnr.orbit(seed, gens)
    assert vec[seed] == -1
    assert all(p[x] in vec for p in gens for x in vec)
    for x, j in vec.items():
        if x != seed:
            assert 0 <= j < len(gens) and gens[j].index(x) in vec
    orb, used = _ref_orbit(seed, gens)
    labels = set(vec.values()) - {-1}
    assert set(vec) == orb
    assert {tuple(gens[j]) for j in labels} == {tuple(p) for p in used}
    assert len(labels) == len(used)
    assert autnr.close_permutations(gens) == _ref_close_permutations(gens)


_GEN_SETS = st.integers(min_value=1, max_value=14).flatmap(
    lambda k: st.tuples(
        st.integers(min_value=0, max_value=k - 1),
        st.lists(st.permutations(range(k)).map(tuple), min_size=1,
                 max_size=5)))


@given(_GEN_SETS)
@settings(max_examples=200, deadline=None)
def test_orbit_and_closure_match_reference_random(drawn):
    _check_against_reference(*drawn)


@lru_cache(maxsize=None)
def _inputs(case):
    g = gb.component(*case)
    stab = autnr.synth_generators(g)
    return {"nperms": [a.nperm for a in stab],
            "point-vperms": [g.linear_vperm(a.table, a.psi) for a in stab
                             if a.table is not None],
            "full-vperms": homog.full_generator_set(g, stab_gens=stab).vperms()}


# both closures of the full generator set take about 21 s at (4,1) and 4 s
# at (5,3)
@pytest.mark.parametrize("case, which", [
    pytest.param(case, which, id=f"{case[0]}-{case[1]}-{which}",
                 marks=[pytest.mark.heavy] * (
                     case in ((4, 1), (5, 3)) and which == "full-vperms"))
    for case in ((3, 1), (4, 2), (4, 1), (5, 3))
    for which in ("nperms", "point-vperms", "full-vperms")])
def test_closure_and_orbit_match_reference(case, which):
    _check_against_reference(0, _inputs(case)[which])


def _moving(k, moved, images):
    """The permutation of range(k) that sends moved[i] to images[i] and
    fixes every other point, as a tuple."""
    perm = list(range(k))
    for x, y in zip(moved, images):
        perm[x] = y
    return tuple(perm)


# degrees on both sides of 256, where close_permutations switches from
# bytes.translate to the itemgetter gather; points near the top are drawn
# as often as the rest
_NEAR_256 = st.integers(min_value=250, max_value=262).flatmap(
    lambda k: st.lists(
        st.one_of(st.integers(k - 12, k - 1), st.integers(0, k - 1)),
        min_size=1, max_size=8, unique=True,
    ).flatmap(lambda moved: st.lists(
        st.permutations(moved).map(lambda img: _moving(k, moved, img)),
        min_size=1, max_size=4)))


@given(_NEAR_256)
@settings(max_examples=100, deadline=None)
def test_closure_matches_reference_near_256_points(gens):
    assert autnr.close_permutations(gens) == _ref_close_permutations(gens)


@pytest.mark.parametrize("degree", [16, 256, 257])
def test_auxiliary_generators_close_on_both_sides_of_256_points(degree):
    """The 105 transvections of GF(2)^4 generate GL(4, 2), of order 20,160:
    as the bytes hrho builds, and as tuples that fix every point from 16 up
    to the degree, which above 256 points take the itemgetter gather."""
    gens = [g if degree == 16 else tuple(g) + tuple(range(16, degree))
            for g in hrho.certified_generators(4)]
    assert autnr.close_permutations(gens) == 20160
