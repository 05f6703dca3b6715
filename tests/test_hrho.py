import hashlib
import json
import random
import re
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilgraphs import _golden, gf2, hrho, hrho_heavy


@pytest.fixture(autouse=True)
def _fresh_certificates():
    """Each test certifies the generators and the coset label afresh, so a
    generator list or label it patches in is seen, and no patched
    certificate outlives it."""
    for fn in (hrho.certified_generators, hrho.certified_coset_label):
        fn.cache_clear()
    yield
    for fn in (hrho.certified_generators, hrho.certified_coset_label):
        fn.cache_clear()


def P(rho, text):
    return hrho.parse_perm(rho, text.replace(" ", ""))


def test_pQa_examples():
    p = hrho.pQa(3, gf2.parse_mask("123"), 1)
    assert hrho.perm_display(p, pivot=1) == "123(45)(67)"
    p = hrho.pQa(2, gf2.parse_mask("1"), 1)
    assert hrho.perm_display(p, pivot=1) == "1(23)"
    p = hrho.pQa(3, gf2.parse_mask("167"), 7)
    assert p == P(3, "716(25)(34)")


def test_pQa_rejects_bad_pivot():
    with pytest.raises(hrho.HrhoError):
        hrho.pQa(3, gf2.parse_mask("123"), 4)
    with pytest.raises(hrho.HrhoError):
        hrho.pQa(3, gf2.parse_mask("124"), 1)


def test_pQa_all_involutions():
    for q, a, p in hrho.generators(3):
        assert hrho.compose(p, p) == hrho.identity(3)
        fixed = hrho.fixed_points(p)
        assert gf2.mask_of(fixed) == q
    assert len(hrho.generators(3)) == 21
    assert len(hrho.generators(4)) == 105


def test_pivots_of_point_one_rho3():
    # three involutions have pivot 1: fixed sets 123, 145, 167
    got = set()
    for q, a, p in hrho.generators(3):
        if a == 1:
            got.add(gf2.mask_str(q))
    assert got == {"123", "145", "167"}


DOUBLING_TABLE = [
    ("123()", "1234567()"),
    ("1(23)", "167(23)(45)"),
    ("(123)", "7(123)(465)"),
    ("(132)", "7(132)(456)"),
    ("3(12)", "347(12)(56)"),
    ("2(13)", "257(13)(46)"),
]


@pytest.mark.parametrize("src,dst", DOUBLING_TABLE)
def test_doubling_table(src, dst):
    got = hrho.doubling(P(2, src))
    assert got == P(3, dst)


@pytest.mark.parametrize("rho", [3, 4])
def test_doubling_is_injective_homomorphism(rho):
    sub = hrho.build_group(rho - 1)
    els = sub.elements if rho == 3 else sub.elements[:200]
    seen = set()
    for p in sub.elements:
        d = hrho.doubling(p)
        assert d not in seen
        seen.add(d)
    for p in els:
        for q in els[:40]:
            assert hrho.doubling(hrho.compose(p, q)) == hrho.compose(
                hrho.doubling(p), hrho.doubling(q)
            )


def test_p_rho_displays():
    assert hrho.perm_display(hrho.p_rho(2), pivot=2) == "2(13)"
    assert hrho.perm_display(hrho.p_rho(3), pivot=4) == "415(26)(37)"
    assert hrho.perm_display(hrho.p_rho(4), pivot=8) == "81239ab(4c)(5d)(6e)(7f)"
    assert hrho.perm_display(hrho.p_rho(5), pivot=16).startswith("g1234567hijklmn")


@pytest.mark.parametrize("rho", [2, 3, 4, 5])
def test_j_rho_cycle_displays(rho):
    assert hrho.perm_display(hrho.j_rho(rho)) == _golden.J_DISPLAYS[rho]


@pytest.mark.parametrize("rho", [2, 3, 4, 5])
def test_two_line_form(rho):
    lower = "".join(gf2.point_str(x) for x in hrho.two_line_lower(rho))
    assert lower == _golden.TWO_LINE_LOWER[rho]
    assert hrho.eta_by_rules(rho) == hrho.two_line_lower(rho)
    assert tuple(
        hrho.f_slot(rho, j) for j in range(1, (1 << rho))
    )[: (1 << rho) - 1] == hrho.two_line_lower(rho)


def test_ds_cycle_examples():
    assert hrho.ds_cycle((1, 3, 2)) == (2, 1, 3)
    assert hrho.ds_cycle((1, 3, 7, 2, 4, 5, 6)) == (2, 4, 5, 6, 1, 3, 7)
    assert hrho.ds_cycle((4, 5)) == (1, 1)


def test_type_expressions():
    assert hrho.type_of(hrho.j_rho(2)) == "(3_1)"
    assert hrho.type_of(hrho.j_rho(3)) == "(7_4)"
    assert hrho.type_of(hrho.j_rho(4)) == _golden.TYPE_EXPRS["J_4"]
    assert hrho.type_of(hrho.w_rho(3, 2)) == "(7_2)"
    assert hrho.type_of(hrho.w_rho(4, 4)) == "(5(5(5(_1))))"
    assert hrho.type_of(hrho.w_rho(4, 6)) == "(15_3)"
    assert hrho.type_of(hrho.w_rho(4, 1)) == "(1(2(4((4)^2))))"
    assert hrho.type_of(hrho.identity(3)) == "(1)"
    p = hrho.pQa(3, gf2.parse_mask("123"), 1)
    assert hrho.type_of(p) == "(1((2)^2))"


def test_w_vectors():
    w32 = hrho.w_rho(3, 2)
    assert hrho.perm_display(w32) == "(1376524)"
    sq = hrho.compose(hrho.w_rho(4, 2), hrho.w_rho(4, 2))
    assert hrho.type_of(sq) == "(3_1)^5"
    cube = hrho.compose(sq, hrho.w_rho(4, 2))
    assert hrho.type_of(cube) == "(1((2)^2))^3"
    sq33 = hrho.compose(hrho.w_rho(3, 3), hrho.w_rho(3, 3))
    assert sq33 == hrho.pQa(3, gf2.parse_mask("246"), 6)


@lru_cache(maxsize=None)
def named_lengths(text: str) -> dict[int, int]:
    """The cycle lengths a type expression names, with multiplicities, the
    fixed points (1) left out; {1: 1} for the identity's (1)."""
    stack, last = [[]], []
    for tok in re.findall(r"\(\d*|\)|\^\d+", re.sub(r"\(_\d+\)|_\d+", "", text)):
        if tok == ")":
            last = stack.pop()
            stack[-1] += last
        elif tok[0] == "(":
            stack.append([int(tok[1:])] if tok[1:] else [])
        else:  # ^k repeats the group just closed k times in all
            stack[-1] += last * (int(tok[1:]) - 1)
    return dict(Counter(n for n in stack[0] if n > 1)) or {1: 1}


def test_named_lengths():
    assert named_lengths("(1)") == {1: 1}
    assert named_lengths("(1((2)^2))^3") == {2: 6}
    assert named_lengths("(3_1(3))(6(6)(6(6)(_2)))") == {3: 2, 6: 4}


def _walk(rho: int, steps: int, seed: int):
    gens = [g for _, _, g in hrho.generators(rho)]
    rng = random.Random(seed)
    p = hrho.identity(rho)
    for _ in range(steps):
        p = hrho.compose(p, rng.choice(gens))
        yield p


@pytest.mark.parametrize("elements,sha256", [
    (lambda: [p for rho in (2, 3, 4) for p in hrho.build_group(rho).elements],
     "d794aa90ab52da7adb1b991b921213ccfaf0440f6d72db1e36a06244077ca064"),
    (lambda: list(_walk(5, 30000, 1)),
     "567765cf8b62caf5eb410385f269d4705929e040ff95f84f0fb16d1e07e12816"),
], ids=["gl-2-3-4", "walk-5"])
def test_type_of_is_total_and_names_every_cycle(elements, sha256):
    """A text for every element of GL(2,2), GL(3,2) and GL(4,2), and for
    every step of a seeded walk in GL(5,2), naming exactly the element's
    cycles.  The digests pin the texts.  They equal those of the earlier
    renderer, which looked a loop member's children up under its rotation,
    on every element where its text named every cycle: 6 of 6, 168 of 168,
    19,712 of 20,160 and 25,396 of the 30,000 steps.  On the rest it raised
    RecursionError or dropped cycles."""
    elements = elements()
    texts = [hrho.type_of(p) for p in elements]
    assert [t for p, t in zip(elements, texts)
            if named_lengths(t) != dict(hrho.super_type(p))] == []
    assert hashlib.sha256("".join(t + "\n" for t in texts).encode()
                          ).hexdigest() == sha256


@pytest.mark.parametrize("p,text", [
    (P(4, "(16b9af)(235e7d)(48c)"), "(3_1)(6(6(_2)))"),
    (hrho.w_rho(5, 1), "(5(5)(5(5)(5(5)(_1))))"),
    (hrho.w_rho(5, 11), "(3_1(3))(6(6)(6(6)(_2)))"),
], ids=["gl4-3-6-6", "w5-1", "w5-11"])
def test_type_of_loop_members_keep_their_children(p, text):
    """Loops whose members have children, or whose members are written
    rotated: the earlier renderer raised RecursionError on the first and
    dropped cycles on the other two."""
    assert hrho.type_of(p) == text


def test_type_of_refuses_nonlinear_element():
    with pytest.raises(hrho.HrhoError, match="not linear"):
        hrho.type_of(P(3, "(12)"))


@pytest.mark.parametrize("j,y", sorted(_golden.W5_SUBSCRIPTS.items()))
def test_w5_type_subscripts(j, y):
    assert hrho.type_of(hrho.w_rho(5, j)) == f"(31_{y})"


def test_super_types():
    p = hrho.pQa(3, gf2.parse_mask("123"), 1)
    assert hrho.super_type_str(hrho.super_type(p)) == "(2)^2"
    assert hrho.super_type_str(hrho.super_type(hrho.j_rho(5))) == "(3)(7)(21)"
    assert hrho.super_type_str(hrho.super_type(hrho.identity(4))) == "(1)"


@pytest.mark.parametrize("rho,order", [(2, 6), (3, 168), (4, 20160)])
def test_group_orders(rho, order):
    store = hrho.build_group(rho)
    assert len(store) == order == hrho.group_order_formula(rho)


@pytest.mark.parametrize("rho", [2, 3, 4])
def test_distance_law_and_j_extremality(rho):
    store = hrho.build_group(rho)
    assert hrho.check_distance_law(store)
    j = hrho.j_rho(rho)
    assert not hrho.fixed_points(j)
    assert store.distance[store.index[j]] == rho == hrho.cayley_diameter(store)
    assert store.distance[0] == 0


def test_h2_is_complete_bipartite():
    store = hrho.build_group(2)
    gens = [g for _, _, g in hrho.generators(2)]
    assert len(gens) == 3
    odd = {p for p in store.elements if store.distance[store.index[p]] % 2 == 1}
    assert len(odd) == 3
    for p in store.elements:
        nbrs = {hrho.compose(p, s) for s in gens}
        assert len(nbrs) == 3
        side = store.distance[store.index[p]] % 2
        assert all(store.distance[store.index[q]] % 2 != side for q in nbrs)


@pytest.mark.parametrize("rho", [2, 3, 4])
def test_census_matches_reference(rho):
    store = hrho.build_group(rho)
    got = {hrho.super_type_str(st): dc for st, dc in hrho.table_census(store).items()}
    assert got == _golden.TABLE1[rho]


def test_census_rho4_specific_rows():
    store = hrho.build_group(4)
    census = {hrho.super_type_str(st): dc
              for st, dc in hrho.table_census(store).items()}
    assert census["(15)"] == (4, 2688)
    assert census["(3)^5"] == (4, 112)
    assert census["(5)^3"] == (4, 1344)
    assert census["(7)^2"][0] == 3


@pytest.mark.parametrize("rho,index", [(3, 28), (4, 120)])
def test_coset_partition(rho, index):
    cosets = hrho.coset_partition(rho)
    assert len(cosets) == index == hrho.coset_index_formula(rho)
    sub_order = hrho.group_order_formula(rho - 1)
    assert all(len(c) == sub_order for c in cosets)
    # each group is literally g*K for its least member g, in that order
    store = hrho.build_group(rho)
    K = [hrho.doubling(p) for p in hrho.build_group(rho - 1).elements]
    for c in cosets:
        g = store.elements[c[0]]
        assert sorted(store.index[hrho.compose(g, k)] for k in K) == c
    assert sorted(c[0] for c in cosets) == [c[0] for c in cosets]


@pytest.mark.parametrize("rho", [3, 4])
def test_category_reps_distinct_cosets(rho):
    counts = hrho.verify_category_cosets(rho)
    half = 1 << (rho - 1)
    quarter = 1 << (rho - 2)
    assert counts["a"] == 1
    assert counts["b_alpha"] + counts["b_beta"] == 2 * (half - 1)
    assert counts["c"] == quarter * (half - 1)


def test_category_cosets_collision(monkeypatch):
    """A representative moved by an element of K is reported as a collision."""
    reps = hrho.category_reps(3)
    k = min(hrho.doubling(p) for p in hrho.build_group(2).elements[1:])
    reps["c"].insert(0, hrho.compose(reps["b_beta"][-1], k))
    monkeypatch.setattr(hrho, "category_reps", lambda rho: reps)
    with pytest.raises(hrho.HrhoError, match="coset collision between b_beta and c"):
        hrho.verify_category_cosets(3)


def test_category_reps_rho3_golden():
    reps = hrho.category_reps(3)
    for cat in ("b_alpha", "b_beta", "c"):
        got = {bytes(p) for p in reps[cat]}
        exp = {P(3, s) for s in _golden.CATEGORY_REPS[(3, cat)]}
        assert got == exp


@pytest.mark.parametrize("rho", [3, 4])
def test_category_supertype_distribution_constant(rho):
    """Cosets holding same-category representatives have equal censuses."""
    store = hrho.build_group(rho)
    cosets = hrho.coset_partition(rho)
    coset_of_el = {}
    for cid, members in enumerate(cosets):
        for i in members:
            coset_of_el[i] = cid
    census_by_coset = {}
    for cid, members in enumerate(cosets):
        hist = {}
        for i in members:
            st = hrho.super_type(store.elements[i])
            hist[st] = hist.get(st, 0) + 1
        census_by_coset[cid] = tuple(sorted(hist.items()))
    reps = hrho.category_reps(rho)
    for cat in ("a", "b_alpha", "b_beta", "c"):
        seen = {
            census_by_coset[coset_of_el[store.index[p]]] for p in reps[cat]
        }
        assert len(seen) == 1, f"category {cat} cosets differ"
    # b_alpha and b_beta belong to the same printed category
    ba = census_by_coset[coset_of_el[store.index[reps["b_alpha"][0]]]]
    bb = census_by_coset[coset_of_el[store.index[reps["b_beta"][0]]]]
    assert ba == bb


def test_category_count_by_elimination():
    # index - |a| - |b| - |c| = |d| + |e| with |d| = 2|c|-coset-count
    for rho in (3, 4):
        half = 1 << (rho - 1)
        quarter = 1 << (rho - 2)
        n_abc = 1 + 2 * (half - 1) + quarter * (half - 1)
        n_d = 2 * quarter * (half - 1)
        n_e = (quarter - 1) * (half - 1)
        assert hrho.coset_index_formula(rho) == n_abc + n_d + n_e
        assert len(hrho.coset_partition(rho)) - n_abc == n_d + n_e


@given(st.integers(min_value=0, max_value=104), st.integers(min_value=0, max_value=104))
@settings(max_examples=60, deadline=None)
def test_compose_associativity_sample(i, j):
    gens = [g for _, _, g in hrho.generators(4)]
    a, b = gens[i], gens[j]
    c = gens[(i * 7 + j) % len(gens)]
    assert hrho.compose(hrho.compose(a, b), c) == hrho.compose(a, hrho.compose(b, c))


def test_j5_type_components():
    assert hrho.type_of(hrho.j_rho(5)) == "(21_16)(3_1)(7_2)"


@pytest.mark.parametrize("n", [4, 8, 16, 32])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_compose_matches_literal_definition(n, data):
    p = bytes(data.draw(st.permutations(range(n))))
    q = bytes(data.draw(st.permutations(range(n))))
    assert hrho.compose(p, q) == bytes(q[x] for x in p)


def _full_bfs(rho):
    """The literal closure: expand every element by every generator."""
    gens = [g for _, _, g in hrho.generators(rho)]
    ident = hrho.identity(rho)
    elements, distance, seen = [ident], [0], {ident}
    frontier, depth = [ident], 0
    while frontier:
        depth += 1
        nxt = []
        for p in frontier:
            for g in gens:
                q = hrho.compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        elements += nxt
        distance += [depth] * len(nxt)
        frontier = nxt
    return elements, distance


@pytest.mark.parametrize("rho", [2, 3, 4])
def test_build_group_equals_full_bfs(rho):
    """Stopping at |GL(rho, 2)| elements changes no element, order or
    distance against the closure that expands everything."""
    s = hrho.build_group(rho)
    assert (s.elements, s.distance) == _full_bfs(rho)


def test_build_group_rejects_nonlinear_generator(monkeypatch):
    """Swapping 3 and 4 is a permutation of the points but not linear.  The
    closure with it is larger than GL(3, 2), so an early stop at 168 elements
    would be wrong; the generator check must refuse it first."""
    swap = bytearray(hrho.identity(3))
    swap[3], swap[4] = 4, 3
    gens = hrho.generators(3) + [(0, 0, bytes(swap))]
    monkeypatch.setattr(hrho, "generators", lambda rho: gens)
    with pytest.raises(hrho.HrhoError, match="not linear"):
        hrho.build_group.__wrapped__(3)


def test_build_group_rejects_non_permutation(monkeypatch):
    bad = bytes([0, 1, 1, 3, 4, 5, 6, 7])
    gens = hrho.generators(3) + [(0, 0, bad)]
    monkeypatch.setattr(hrho, "generators", lambda rho: gens)
    with pytest.raises(hrho.HrhoError, match="not a permutation"):
        hrho.build_group.__wrapped__(3)


def _with_distance(store, i, d):
    distance = list(store.distance)
    distance[i] = d
    return hrho.GroupStore(store.rho, store.elements, store.index, distance)


@pytest.mark.parametrize("rho", [3, 4])
def test_distance_law_sees_one_wrong_distance(rho):
    store = hrho.build_group(rho)
    j = store.index[hrho.j_rho(rho)]
    assert not hrho.check_distance_law(_with_distance(store, j, rho - 1))
    assert not hrho.check_distance_law(_with_distance(store, 0, 1))


def test_table_census_rejects_two_distances_per_type():
    store = hrho.build_group(3)
    j = store.index[hrho.j_rho(3)]
    with pytest.raises(hrho.HrhoError, match="not constant"):
        hrho.table_census(_with_distance(store, j, 2))


def test_build_group_pinned():
    """Elements, their order and their Cayley distances, as first computed."""
    s = hrho.build_group(4)
    digest = hashlib.sha256(b"".join(s.elements) + bytes(s.distance)).hexdigest()
    assert digest == (
        "8821cda808096520c1c0de42fb611a1495731fce72378be4b22cfad0ba08d27f"
    )


def test_coset_reps_heavy_pinned():
    """The rho = 5 representatives and their order, as first computed."""
    digest = hashlib.sha256(b"".join(hrho_heavy.coset_reps_heavy(5))).hexdigest()
    assert digest == (
        "bdc4ecc37eceb20578e18b8a6d7aaa08cbefccd1d49e0a2df929109fd5406483"
    )


@pytest.mark.parametrize("rho", [3, 4])
def test_coset_reps_heavy_one_per_exact_coset(rho):
    store = hrho.build_group(rho)
    cosets = hrho.coset_partition(rho)
    coset_of_el = {i: cid for cid, members in enumerate(cosets) for i in members}
    reps = hrho_heavy.coset_reps_heavy(rho)
    hit = sorted(coset_of_el[store.index[r]] for r in reps)
    assert hit == list(range(len(cosets)))


def _coset_walk_to_end(rho):
    """The coset walk with no certificate and no early stop: every label the
    generators reach, each with the first element found to carry it."""
    label = hrho._label_table(rho)
    tables = [hrho.translate_table(g) for _, _, g in hrho.generators(rho)]
    ident = hrho.identity(rho)
    reps = {ident.translate(label): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for t in tables:
                h = g.translate(t)
                key = h.translate(label)
                if key not in reps:
                    reps[key] = h
                    nxt.append(h)
        frontier = nxt
    return list(reps.values())


@pytest.mark.parametrize("rho", [3, 4, 5])
def test_coset_walk_stop_loses_nothing(rho):
    """Walked to the end, the generators reach exactly the certified number
    of labels, with the representatives the stopped walk returns, in order."""
    reps = _coset_walk_to_end(rho)
    assert len(reps) == hrho.coset_index_formula(rho)
    assert reps == hrho_heavy.coset_reps_heavy(rho)


def _generators_with(monkeypatch, rho, edit):
    real = hrho.generators

    def patched(r):
        gens = real(r)
        return edit(gens) if r == rho else gens

    monkeypatch.setattr(hrho, "generators", patched)


def test_coset_certificate_rejects_nonlinear_generator(monkeypatch):
    """A non-linear generator would let the walk reach 28 labels that are
    not cosets; the certificate refuses it before the walk."""
    bad = hrho.parse_perm(3, "(12)")
    _generators_with(monkeypatch, 3, lambda gens: gens + [(0, 0, bad)])
    with pytest.raises(hrho.HrhoError, match="not linear"):
        hrho_heavy.coset_reps_heavy(3)


def test_coset_certificate_rejects_missing_doubled_generator(monkeypatch):
    """The rest still generate GL(3, 2), but K is no longer shown to lie in
    the walked group.  20 generators are not all 21 transvections, so the
    generator certificate that the label certificate reads refuses first."""
    doubled = {hrho.doubling(g) for _, _, g in hrho.generators(2)}
    _generators_with(monkeypatch, 3, lambda gens: [
        x for x in gens if x[2] != min(doubled)
    ])
    with pytest.raises(hrho.HrhoError, match="expected 21 transvections"):
        hrho_heavy.coset_reps_heavy(3)


def test_coset_certificate_rejects_label_not_fixed_by_k(monkeypatch):
    """Point 1 as n and {2, 4, 6} as L is still a point off a hyperplane, so
    the walk would reach 28 labels, but they are cosets of another subgroup."""
    table = bytes([0, 2, 1, 0, 1, 0, 1, 0]) + bytes(248)
    monkeypatch.setattr(hrho, "_label_table", lambda rho: table)
    with pytest.raises(hrho.HrhoError, match="doubled generator"):
        hrho_heavy.coset_reps_heavy(3)


def test_coset_certificate_rejects_wrong_index(monkeypatch):
    """With the index taken as 7, the walk would stop at 7 labels; the order
    check refuses, since 7 * |GL(2, 2)| is not |GL(3, 2)|."""
    monkeypatch.setattr(hrho, "coset_index_formula", lambda rho: 7)
    with pytest.raises(hrho.HrhoError, match="stabilizer"):
        hrho_heavy.coset_reps_heavy(3)


def test_coset_walk_rejects_coarse_label(monkeypatch):
    """A label that marks only L passes the certificate, but the walk ends at
    7 labels instead of 28 and must raise rather than count 7 cosets."""
    table = bytes(1 if 0 < y < 4 else 0 for y in range(256))
    monkeypatch.setattr(hrho, "_label_table", lambda rho: table)
    with pytest.raises(hrho.HrhoError, match="found 7 cosets, expected 28"):
        hrho_heavy.coset_reps_heavy(3)


@pytest.mark.parametrize("rho", [3, 4, 5])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_precomposed_label_table(rho, data):
    """The label of g * t read through the precomposed table t.translate(label)
    equals the label of the product."""
    label = hrho._label_table(rho)
    g = bytes(data.draw(st.permutations(range(1 << rho))))
    t = hrho.translate_table(bytes(data.draw(st.permutations(range(1 << rho)))))
    assert g.translate(t.translate(label)) == g.translate(t).translate(label)


def test_coset_partition_refuses_uncertified_label(monkeypatch):
    """The grouping by label runs the same certificate as the coset walk: a
    label not fixed by K is refused, and a coarse one that marks only L
    would group 168 elements into 7 sets and is refused too."""
    table = bytes([0, 2, 1, 0, 1, 0, 1, 0]) + bytes(248)
    monkeypatch.setattr(hrho, "_label_table", lambda rho: table)
    with pytest.raises(hrho.HrhoError, match="doubled generator"):
        hrho.coset_partition(3)
    table = bytes(1 if 0 < y < 4 else 0 for y in range(256))
    monkeypatch.setattr(hrho, "_label_table", lambda rho: table)
    with pytest.raises(hrho.HrhoError, match="found 7 cosets, expected 28"):
        hrho.coset_partition(3)


@pytest.mark.parametrize("rho", [2, 3, 4, 5])
def test_class_census_matches_table_census(rho):
    """The census summed over conjugacy classes equals the literal census of
    the closed group at rho <= 4, and the golden Table 1 at rho = 5."""
    got = hrho.class_census(hrho.certified_distances(rho))
    if rho <= 4:
        assert got == hrho.table_census(hrho.build_group(rho))
    else:
        assert {hrho.super_type_str(st): dc
                for st, dc in got.items()} == _golden.TABLE1[5]


@pytest.mark.parametrize("rho,n_classes", [(2, 3), (3, 6), (4, 14), (5, 27)])
def test_conjugacy_class_count(rho, n_classes):
    classes = hrho.conjugacy_classes(rho)
    assert len(classes) == n_classes
    assert sum(size for _, size in classes) == hrho.group_order_formula(rho)


@pytest.mark.parametrize("rho", [2, 3, 4])
def test_class_sizes_by_centralizer_count(rho):
    """Each class size is |G| over the number of group elements that commute
    with its representative, counted in the closed group."""
    store = hrho.build_group(rho)
    for g, size in hrho.conjugacy_classes(rho):
        assert g in store.index
        central = sum(hrho.compose(g, h) == hrho.compose(h, g)
                      for h in store.elements)
        assert size * central == len(store)


def test_conjugacy_classes_refuse_missing_irreducible(monkeypatch):
    """Without one irreducible the class sizes no longer sum to |GL(4, 2)|."""
    real = hrho._irreducibles
    monkeypatch.setattr(hrho, "_irreducibles", lambda rho: real(rho)[:-1])
    with pytest.raises(hrho.HrhoError, match="do not sum to 20160"):
        hrho.conjugacy_classes(4)


def test_class_census_refuses_nonlinear_representative(monkeypatch):
    """A representative whose 1 + #fixed is not a power of two breaks the
    distance law and is refused rather than given a distance."""
    monkeypatch.setattr(hrho, "conjugacy_classes",
                        lambda rho: [(hrho.parse_perm(3, "(12)"), 168)])
    with pytest.raises(hrho.HrhoError, match="not a power of two"):
        hrho.class_census(hrho.certified_distances(3))


# ---------------------------------------------------------------------------
# the class certificate of the Cayley distances


@pytest.mark.parametrize("rho", [2, 3, 4, 5])
def test_generators_equal_checked_involutions(rho):
    """Checking each hyperplane once builds the same list as pQa's
    per-pair check."""
    assert hrho.generators(rho) == [
        (q, a, hrho.pQa(rho, q, a))
        for q in gf2.hyperplane_masks(rho) for a in gf2.points_of(q)]


def _elementary(rho):
    """e_a -> e_a + e_b for adjacent basis vectors a, b: these generate
    SL(rho, 2) = GL(rho, 2)."""
    out = []
    for i in range(rho - 1):
        for a, b in ((i, i + 1), (i + 1, i)):
            cols = [1 << k for k in range(rho)]
            cols[a] |= 1 << b
            out.append(gf2.linear_table(rho, cols))
    return out


def _conjugacy_class(g, gens):
    """The orbit of g under conjugation by the (involutory) gens."""
    seen, todo = {g}, [g]
    for h in todo:
        for t in gens:
            c = hrho.compose(hrho.compose(t, h), t)
            if c not in seen:
                seen.add(c)
                todo.append(c)
    return seen


@pytest.mark.parametrize("rho", [2, 3, 4])
def test_certified_distances_equal_bfs(rho):
    """Each class, grown by conjugation to its stated size, carries the
    certified distance of its representative at every element in the
    literal BFS; the classes cover the group, and the diameters agree."""
    store = hrho.build_group(rho)
    gens = _elementary(rho)
    covered = 0
    for g, size, d in hrho.certified_distances(rho):
        cls = _conjugacy_class(g, gens)
        assert len(cls) == size
        assert {store.distance[store.index[h]] for h in cls} == {d}
        covered += size
    assert covered == len(store)
    assert (hrho.certified_diameter(hrho.certified_distances(rho))
            == hrho.cayley_diameter(store) == rho)


@pytest.mark.parametrize("rho", [2, 3, 4, 5])
def test_certified_distance_is_the_residue(rho):
    for g, _, d in hrho.certified_distances(rho):
        assert d == hrho.residue(g) == rho + 1 - (
            1 + len(hrho.fixed_points(g))).bit_length()


def _with_generators(monkeypatch, gens):
    monkeypatch.setattr(hrho, "generators",
                        lambda rho: [(0, 0, g) for g in gens])


def test_class_check_refuses_missing_transvection(monkeypatch):
    _with_generators(monkeypatch, [g for _, _, g in hrho.generators(4)][1:])
    with pytest.raises(hrho.HrhoError, match="expected 105 transvections"):
        hrho.certified_distances(4)


@pytest.mark.parametrize("swap", ["j4", "duplicate", "nonlinear"])
def test_class_check_refuses_replaced_transvection(monkeypatch, swap):
    gens = [g for _, _, g in hrho.generators(4)]
    bad = bytearray(hrho.identity(4))
    bad[3], bad[4] = 4, 3
    gens[0] = {"j4": hrho.j_rho(4), "duplicate": gens[1],
               "nonlinear": bytes(bad)}[swap]
    _with_generators(monkeypatch, gens)
    match = {"j4": "not a transvection", "duplicate": "104 distinct",
             "nonlinear": "not linear"}[swap]
    with pytest.raises(hrho.HrhoError, match=match):
        hrho.certified_distances(4)


def _no_descent(rho, h):
    """A generator that does not lower the residue of h."""
    return next(t for _, _, t in hrho.generators(rho)
                if hrho.residue(hrho.compose(h, t)) >= hrho.residue(h))


def _one_step_to_identity(rho, h):
    """h^-1: lowers the residue to 0 at once, and is a generator only
    when h is one."""
    inv = bytearray(len(h))
    for x, y in enumerate(h):
        inv[y] = x
    return bytes(inv)


_PEEL_FACTOR = hrho._peel_factor


def _two_letters(rho, h):
    """A product of two generators, itself none, that lowers the residue
    of h by one; the true factor when h is a transvection, as then there
    is no such product."""
    gens = [t for _, _, t in hrho.generators(rho)]
    r = hrho.residue(h)
    return next((f for f in (hrho.compose(a, b) for a in gens for b in gens)
                 if f not in gens and hrho.residue(hrho.compose(h, f)) == r - 1),
                _PEEL_FACTOR(rho, h))


@pytest.mark.parametrize("factor",
                         [_no_descent, _one_step_to_identity, _two_letters],
                         ids=["no-descent", "inverse", "two-letters"])
def test_peel_refuses_a_bad_factor(monkeypatch, factor, capsys):
    """A peel that takes a factor other than a residue-lowering generator
    certifies no class past a transvection: the law reads false, the
    census raises, and hrho prints no diameter."""
    monkeypatch.setattr(hrho, "_peel_factor", factor)
    classes = hrho.certified_distances(4)
    certified = {hrho.residue(g): d for g, _, d in classes if d is not None}
    assert set(certified) <= {0, 1}
    assert hrho.certified_diameter(classes) is None
    with pytest.raises(hrho.HrhoError, match="no certified distance"):
        hrho.class_census(classes)
    from pencilgraphs import cli
    assert cli.main(["hrho", "--rho", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["distance_law"], data["cayley_diameter"]) == (False, None)


@pytest.mark.parametrize("i", range(14))
def test_census_sees_one_shifted_class(i):
    """A certificate with one class's distance off by one gives a census
    that differs from the BFS census, or is refused outright."""
    real = hrho.certified_distances(4)
    shifted = [(g, s, d + (k == i)) for k, (g, s, d) in enumerate(real)]
    try:
        got = hrho.class_census(shifted)
    except hrho.HrhoError as e:
        assert "not constant" in str(e)
    else:
        assert got != hrho.table_census(hrho.build_group(4))


def test_report_fails_an_uncertified_class(monkeypatch):
    """The report's auxiliary checks FAIL, rather than raise, when the peel
    certifies nothing."""
    from pencilgraphs import report
    monkeypatch.setattr(hrho, "_peel_factor", _one_step_to_identity)
    rep = report.acceptance_report(3, 1)
    assert {"aux_census", "distance_law", "farthest_element",
            "diameter"} <= set(rep["failed_checks"])
