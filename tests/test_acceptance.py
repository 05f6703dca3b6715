"""Acceptance battery: every stated criterion at its exact expected value.

Each criterion prints one PASS/FAIL line (run with -s to see them inline).
Criterion 8 contains one value that contradicts its own stated convention;
that sub-assertion is kept verbatim and marked as a strict expected failure
with the analysis in the decision log.
"""

import dataclasses
import json
from array import array

import pytest

from pencilgraphs import (_golden, autnr, config as cfgmod, decomp, gf2,
                          graphbuild as gb, homog, hrho, pencil, report)
from pencilgraphs.cli import main
from pencilgraphs.gf2 import SpaceCtx
from pencilgraphs.pencil import encode_tuple


def _line(num, name, ok):
    print(f"CRITERION {num:>2} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name})"


def test_criterion_01_orders_and_degrees():
    ok = True
    for (r, s), data in _golden.CASE_DATA.items():
        g = gb.component(r, s)
        ctx = SpaceCtx(r, s)
        ok &= len(g) == data["order"] == pencil.component_order(ctx)
        # the degree read from the rows: each row's distinct entries
        ok &= {len(set(g.neighbors_of(i))) for i in range(len(g))} == {
            data["degree"]} == {ctx.degree}
    _line(1, "orders and degrees", ok)


def test_order_degree_check_reads_the_rows():
    """report's order_degree check takes the degree from the rows, so a
    component with one row that holds a neighbour twice fails it."""
    g = gb.component(3, 1)
    entry = report._order_degree(g, len(g))
    assert entry["status"] == "PASS"
    assert entry["got"] == {"order": len(g), "degree": g.degree}
    adj = array(g.adj.typecode, g.adj)
    adj[1] = adj[0]  # row 0 holds its least neighbour twice
    entry = report._order_degree(dataclasses.replace(g, adj=adj), len(g))
    assert entry["status"] == "FAIL"
    assert entry["got"] == {"order": len(g),
                            "degree": [g.degree - 1, g.degree]}


def test_criterion_02_edge_examples():
    ok = True
    for (r, s), (ev, eu, eU) in _golden.EDGE_EXAMPLES.items():
        ctx = SpaceCtx(r, s)
        g = gb.component(r, s)
        u = min(g.neighbors_of(0), key=lambda j: encode_tuple(g.vertices[j]))
        U = gb.adjacent(ctx, g.vertices[0], g.vertices[u])
        ok &= g.vertex_display(0) == ev
        ok &= g.vertex_display(u) == eu
        ok &= U is not None and gf2.mask_str(U) == eU
    _line(2, "edge examples", ok)


def test_criterion_03_decomposition():
    ok = True
    for case in ((3, 1), (4, 2), (4, 1)):
        rep = decomp.verify_decomposition(gb.component(*case))
        d = _golden.CASE_DATA[case]
        ok &= rep.ok and (rep.ell0, rep.ell1, rep.m0, rep.m1) == (
            d["ell0"], d["ell1"], d["m0"], d["m1"])
    _line(3, "decomposition counts", ok)


def test_criterion_04_copy_lists():
    ok = True
    for case, exp in _golden.CLIQUE_COPIES_AT_BASE.items():
        ctx = SpaceCtx(*case)
        v = pencil.base_vertex_tuple(ctx)
        got = sorted(i.display().replace("∅", "")
                     for i in decomp.clique_copies_at(ctx, v))
        ok &= got == sorted(exp)
    for case, exp in _golden.TURAN_IDS_AT_BASE.items():
        ctx = SpaceCtx(*case)
        v = pencil.base_vertex_tuple(ctx)
        got = [(gf2.mask_str(t.w), t.i) for t in decomp.turan_copies_at(ctx, v)]
        ok &= got == exp
    _line(4, "copy lists at the base vertex", ok)


def test_criterion_05_stabilizer_orders():
    ok = True
    for case in ((3, 1), (4, 1), (4, 2)):
        ctx = SpaceCtx(*case)
        g = gb.component(*case)
        gens = autnr.synth_generators(g)
        order = autnr.closure_order(gens, cross_check_full=(case == (3, 1)))
        ok &= order == _golden.NR_ORDERS[case] == autnr.nr_order_formula(ctx)
    _line(5, "stabilizer group orders", ok)


@pytest.mark.heavy
def test_criterion_05_heavy_52():
    g = gb.component(5, 2)
    gens = autnr.synth_generators(g)
    order = autnr.closure_order(gens)
    _line(5, "stabilizer group order (5,2)", order == 516096)


def test_criterion_06_group_census():
    ok = True
    for rho in (2, 3, 4):
        store = hrho.build_group(rho)
        ok &= len(store) == _golden.GROUP_ORDERS[rho]
        got = {hrho.super_type_str(st): dc
               for st, dc in hrho.table_census(store).items()}
        ok &= got == _golden.TABLE1[rho]
    _line(6, "auxiliary group orders and census", ok)


def test_criterion_06_heavy_rho5():
    from pencilgraphs import hrho_heavy

    reps = hrho_heavy.coset_reps_heavy(5)
    order = len(reps) * hrho.group_order_formula(4)
    ok = order == _golden.GROUP_ORDERS[5] and len(reps) == 496
    census = hrho.class_census(hrho.certified_distances(5))
    got = {hrho.super_type_str(st): dc for st, dc in census.items()}
    ok &= got == _golden.TABLE1[5]
    _line(6, "auxiliary group census (rho=5)", ok)


def test_criterion_07_distance_law():
    ok = all(hrho.check_distance_law(hrho.build_group(rho))
             for rho in (2, 3, 4))
    _line(7, "distance law, exhaustive rho <= 4", ok)


def test_criterion_08_golden_vectors():
    ok = all(hrho.perm_display(hrho.j_rho(rho)) == _golden.J_DISPLAYS[rho]
             for rho in (2, 3, 4, 5))
    ok &= hrho.type_of(hrho.j_rho(2)) == "(3_1)"
    ok &= hrho.type_of(hrho.w_rho(3, 2)) == "(7_2)"
    for j, y in _golden.W5_SUBSCRIPTS.items():
        ok &= hrho.type_of(hrho.w_rho(5, j)) == f"(31_{y})"
    _line(8, "golden cycle displays and type subscripts", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the stated subscript 12 contradicts the stated shift rule and "
    "the displayed difference level, both of which give 11; all other "
    "anchors fix the rule -- see the decision log",
)
def test_criterion_08_j4_subscript_as_stated():
    assert hrho.type_of(hrho.j_rho(4)) == _golden.TYPE_EXPR_J4_AS_STATED


def test_criterion_09_coset_structure():
    ok = True
    for rho in (3, 4):
        ok &= len(hrho.coset_partition(rho)) == _golden.COSET_INDEX[rho]
        counts = hrho.verify_category_cosets(rho)  # raises on collision
        half, quarter = 1 << (rho - 1), 1 << (rho - 2)
        ok &= sum(counts.values()) == 1 + 2 * (half - 1) + quarter * (half - 1)
    _line(9, "coset index and category representatives", ok)


def test_criterion_09_heavy_rho5():
    from pencilgraphs import hrho_heavy

    reps = hrho_heavy.coset_reps_heavy(5)
    counts = hrho.verify_category_cosets(5)
    ok = len(reps) == 496 and sum(counts.values()) == 1 + 2 * 15 + 8 * 15
    _line(9, "coset structure (rho=5)", ok)


def test_criterion_10_homogeneity():
    ok = True
    for case in ((3, 1), (4, 2)):
        g = gb.component(*case)
        gens = homog.full_generator_set(g)
        reps = homog.check_H_property(g, gens)
        ok &= all(rep.ok for rep in reps)
        wit, _ = homog.non_uh_witness(g)
        ok &= (wit is None) == (case == (3, 1))
    g = gb.component(4, 1)
    gens = homog.full_generator_set(g)
    reps = homog.check_H_property(g, gens)
    ok &= all(rep.ok and rep.orbit_size == rep.total == 2 * g.edge_count()
              for rep in reps)
    wit, _ = homog.non_uh_witness(g)
    ok &= wit is not None
    _line(10, "homogeneity and the non-extensible witness", ok)


def test_criterion_11_connectivity():
    ok = gb.full_graph(3, 1).n_components == 1
    ok &= gb.full_graph(4, 2).n_components == 1
    g = gb.full_graph(4, 1)
    sizes = gb.component_sizes(g)
    ok &= len(g) == 75600 and g.n_components == 30 and set(sizes) == {2520}
    _line(11, "full-graph connectivity", ok)


def test_criterion_12_configurations():
    ok = True
    for case in ((3, 1), (4, 2), (4, 1)):
        g = gb.component(*case)
        cfg = cfgmod.build_config(g)
        ok &= cfg.params == _golden.CONFIG_PARAMS[case]
        ok &= cfgmod.menger_equals_graph(cfg, g)
    g31 = gb.component(3, 1)
    cfg31 = cfgmod.build_config(g31)
    dual = cfgmod.self_duality_map(cfg31)
    ok &= dual is not None and cfgmod.dual_menger_isomorphic(cfg31, g31, dual)
    _line(12, "configurations, Menger equality, self-duality", ok)


def test_criterion_12_duality_41():
    g = gb.component(4, 1)
    cfg = cfgmod.build_config(g)
    dual = cfgmod.self_duality_map(cfg)
    _line(12, "self-duality (4,1)", dual is not None)


def test_criterion_13_diameters():
    ok = True
    values = {}
    for case in ((3, 1), (4, 2), (4, 1), (5, 2)):
        ctx = SpaceCtx(*case)
        g = gb.component(*case)
        vperms = homog.full_generator_set(g, stab_gens=[]).vperms()
        transitive = len(homog.vertex_orbit_of_base(vperms)) == len(g)
        assert transitive, f"vertex transitivity not certified for {case}"
        d = gb.diameter(g, assume_vertex_transitive=True)
        values[case] = d
        ok &= d <= 2 * ctx.r - 2
        if ctx.rho <= 4:
            ok &= d <= 2 * hrho.cayley_diameter(hrho.build_group(ctx.rho))
    print(f"  diameters: { {f'{r},{s}': v for (r, s), v in values.items()} }")
    _line(13, "diameter bounds", ok)


def test_criterion_14_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["report", "-r", "3", "-s", "1", "--threads", "1",
                 "--out", str(p1)]) == 0
    assert main(["report", "-r", "3", "-s", "1", "--threads", "3",
                 "--out", str(p2)]) == 0
    ok = p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    ok &= data["all_pass"]
    _line(14, "deterministic artifacts across thread counts", ok)
