"""Consolidated acceptance battery for one (r, sigma) case.

Each criterion that applies to the case is evaluated at its exact expected
value; the output is deterministic (no timing, stable ordering) so identical
runs are byte-identical.
"""

from __future__ import annotations

from pencilgraphs import (_golden, autnr, config as configmod, decomp, gf2,
                          graphbuild, homog, hrho, hrho_heavy, pencil)
from pencilgraphs.gf2 import SpaceCtx


def _check(name, ok, expected, got, notes=None):
    entry = {
        "check": name,
        "status": "PASS" if ok else "FAIL",
        "expected": expected,
        "got": got,
    }
    if notes:
        entry["notes"] = notes
    return entry


def _order_degree(g: graphbuild.PencilGraph, exp_order: int) -> dict:
    """The order of g and its degree read from the rows, each row's number
    of distinct entries: one value when every row agrees, else the sorted
    values, and the check fails."""
    degrees = sorted({len(set(g.neighbors_of(i))) for i in range(len(g))})
    got = degrees[0] if len(degrees) == 1 else degrees
    return _check("order_degree",
                  len(g) == exp_order and got == g.ctx.degree,
                  {"order": exp_order, "degree": g.ctx.degree},
                  {"order": len(g), "degree": got})


def acceptance_report(r: int, sigma: int, seed: int = 20240801,
                      enable_heavy: bool = False,
                      cap_vertices: int = graphbuild.DEFAULT_CAP) -> dict:
    """The battery for (r, sigma); raises graphbuild.CapError, before any
    build, when a graph it builds would pass cap_vertices."""
    ctx = SpaceCtx(r, sigma)
    total = pencil.total_pencil_count(ctx)
    full = total <= (1 << 17)  # check 11 builds the full graph
    graphbuild.refuse_past_cap("predicted component order",
                               pencil.component_order(ctx), cap_vertices)
    if full:
        graphbuild.refuse_past_cap("full graph order", total, cap_vertices)
    checks: list[dict] = []
    g = graphbuild.component(r, sigma, cap_vertices)
    case = (r, sigma)
    data = _golden.CASE_DATA.get(case, {})

    # 1: order and degree
    checks.append(_order_degree(
        g, data.get("order", pencil.component_order(ctx))))

    # 2: edge example
    if case in _golden.EDGE_EXAMPLES:
        ev, eu, eU = _golden.EDGE_EXAMPLES[case]
        _, u = homog.base_arc(g)
        U = graphbuild.adjacent(ctx, g.vertices[0], g.vertices[u])
        got = {
            "v": g.vertex_display(0),
            "u": g.vertex_display(u),
            "U": gf2.mask_str(U) if U else None,
        }
        checks.append(_check("edge_example",
                             got == {"v": ev, "u": eu, "U": eU},
                             {"v": ev, "u": eu, "U": eU}, got))

    # 3: decomposition; closed-form counts where no golden row exists
    n = pencil.component_order(ctx)
    exp = {"ell0": data.get("ell0", ((1 << sigma) - 1) * n),
           "ell1": data.get("ell1", ctx.m1 * n // (ctx.s * ctx.t)),
           "m0": data.get("m0", ctx.m0), "m1": data.get("m1", ctx.m1)}
    rep = decomp.verify_decomposition(g)
    got = {"ell0": rep.ell0, "ell1": rep.ell1, "m0": rep.m0, "m1": rep.m1}
    checks.append(_check(
        "decomposition", rep.ok and got == exp, exp,
        dict(got, ok=rep.ok, failures=rep.failures), notes=rep.count_note))

    # 4: copy lists at the base vertex
    if case in _golden.CLIQUE_COPIES_AT_BASE:
        ids = decomp.clique_copies_at(ctx, g.vertices[0])
        got = sorted(i.display().replace("∅", "") for i in ids)
        exp = sorted(_golden.CLIQUE_COPIES_AT_BASE[case])
        tids = decomp.turan_copies_at(ctx, g.vertices[0])
        tgot = [(gf2.mask_str(t.w), t.i) for t in tids]
        texp = _golden.TURAN_IDS_AT_BASE[case]
        checks.append(_check("copy_lists", got == exp and tgot == texp,
                             {"cliques": exp, "turans": texp},
                             {"cliques": got, "turans": tgot}))

    # 5: stabilizer-group order (neighborhood automorphism group) against
    # the formula, and the golden row where there is one; the generators
    # are synthesized once and reused by check 10
    stab_gens = autnr.synth_generators(g)
    order = autnr.closure_order(stab_gens, cross_check_full=(case == (3, 1)))
    formula = autnr.nr_order_formula(ctx)
    checks.append(_check(
        "stabilizer_order",
        order == formula == _golden.NR_ORDERS.get(case, formula),
        formula, order,
        notes=("the group lives on the closed neighborhood; for sigma "
               ">= 2 part of it provably does not extend to the graph")))

    # 6..9: auxiliary group for this rho; the order by Schreier-Sims, the
    # Cayley distances by the class certificate
    rho = ctx.rho
    aux_order = autnr.close_permutations(
        [p for _, _, p in hrho.generators(rho)])
    checks.append(_check("aux_group_order",
                         aux_order == _golden.GROUP_ORDERS[rho],
                         _golden.GROUP_ORDERS[rho], aux_order))
    hdiam = hrho.certified_diameter(rho)
    law = hdiam is not None
    got_rows = ({st: (d, c) for st, d, c in hrho.census_rows(rho)}
                if law else None)
    checks.append(_check("aux_census", got_rows == _golden.TABLE1[rho],
                         _golden.TABLE1[rho], got_rows))
    checks.append(_check("distance_law", law, True, law))
    jd = hrho.perm_display(hrho.j_rho(rho))
    checks.append(_check("farthest_element",
                         jd == _golden.J_DISPLAYS[rho]
                         and law and hrho.residue(hrho.j_rho(rho)) == rho,
                         _golden.J_DISPLAYS[rho], jd))
    if rho >= 3:
        index = len(hrho_heavy.coset_reps_heavy(rho))
        cats = hrho.verify_category_cosets(rho)
        n_abc = sum(cats.values())
        half = 1 << (rho - 1)
        quarter = 1 << (rho - 2)
        expected_abc = 1 + 2 * (half - 1) + quarter * (half - 1)
        checks.append(_check(
            "coset_structure",
            index == _golden.COSET_INDEX[rho]
            and n_abc == expected_abc,
            {"index": _golden.COSET_INDEX[rho], "abc_reps": expected_abc},
            {"index": index, "abc_reps": n_abc}))

    # 8 continued: type golden vectors (global, cheap)
    types_ok = (
        hrho.type_of(hrho.j_rho(2)) == _golden.TYPE_EXPRS["J_2"]
        and hrho.type_of(hrho.w_rho(3, 2)) == _golden.TYPE_EXPRS["w_3(2)"]
        and all(
            hrho.type_of(hrho.w_rho(5, j)) == f"(31_{y})"
            for j, y in _golden.W5_SUBSCRIPTS.items()
        )
    )
    checks.append(_check("type_vectors", types_ok, True, types_ok))
    if rho == 4:
        j4 = hrho.type_of(hrho.j_rho(4))
        checks.append(_check(
            "type_vector_j4_as_stated", j4 == _golden.TYPE_EXPR_J4_AS_STATED,
            _golden.TYPE_EXPR_J4_AS_STATED, j4,
            notes=("the stated subscript contradicts the stated shift rule "
                   "and the displayed difference level, which give 11; kept "
                   "failing deliberately -- see the decision log")))

    # 10: homogeneity
    gens_h = homog.full_generator_set(g, stab_gens=stab_gens)
    hreps = homog.check_H_property(g, gens_h)
    wit, tried = homog.non_uh_witness(g)
    expect_wit = homog.witness_expected(ctx)
    checks.append(_check(
        "h_property", all(rep.ok for rep in hreps),
        True, [rep.as_dict() for rep in hreps]))
    checks.append(_check(
        "uh_witness", (wit is not None) == expect_wit,
        {"witness_expected": expect_wit},
        {"witness_found": wit is not None, "tried": tried,
         "witness": None if wit is None else wit.as_dict()}))

    # 11: connectivity of the full graph
    if full:
        gf = graphbuild.full_graph(r, sigma, cap_vertices)
        sizes = graphbuild.component_sizes(gf)
        if ctx.rho == 2:
            ok = gf.n_components == 1
            exp = {"components": 1}
        else:
            exp_n = total // pencil.component_order(ctx)
            ok = (gf.n_components == exp_n
                  and set(sizes) == {pencil.component_order(ctx)})
            exp = {"components": exp_n,
                   "component_size": pencil.component_order(ctx)}
        checks.append(_check("full_graph_components", ok, exp,
                             {"components": gf.n_components,
                              "sizes": sorted(set(sizes))}))

    # 12: configuration
    cfgI = configmod.build_config(g)
    menger_ok = configmod.menger_equals_graph(cfgI, g)
    entry = {"params": list(cfgI.params), "menger_equals_graph": menger_ok,
             "balanced": cfgI.check_balance()}
    exp_params = _golden.CONFIG_PARAMS.get(case)
    ok = menger_ok and cfgI.check_balance() and (
        exp_params is None or tuple(cfgI.params) == exp_params
    )
    m, c_, n_, d_ = cfgI.params
    if m == n_ and c_ == d_ and (len(g) <= configmod.SELF_DUAL_VERTEX_CAP
                                or enable_heavy):
        dual = configmod.self_duality_map(cfgI)
        entry["self_dual"] = dual is not None
        ok = ok and dual is not None
        if dual is not None:
            iso = configmod.dual_menger_isomorphic(cfgI, g, dual)
            entry["dual_menger_isomorphic"] = iso
            ok = ok and iso
    checks.append(_check("configuration", ok,
                         {"params": list(exp_params) if exp_params else None},
                         entry))

    # 13: diameter bounds
    transitive = len(homog.vertex_orbit_of_base(gens_h.vperms())) == len(g)
    diam = graphbuild.diameter(g, assume_vertex_transitive=transitive)
    bound = 2 * r - 2
    entry = {"diameter": diam, "bound": bound,
             "vertex_transitive": transitive}
    ok = diam <= bound
    entry["aux_diameter"] = hdiam
    ok = ok and law and diam <= 2 * hdiam
    checks.append(_check("diameter", ok, {"bound": bound}, entry))

    return {
        "case": {"r": r, "sigma": sigma, "rho": ctx.rho,
                 "s": ctx.s, "t": ctx.t, "m0": ctx.m0, "m1": ctx.m1},
        "seed": seed,
        "enable_heavy": enable_heavy,
        "checks": checks,
        "all_pass": all(c["status"] == "PASS" for c in checks),
        "failed_checks": [c["check"] for c in checks if c["status"] == "FAIL"],
    }
