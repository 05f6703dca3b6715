"""Consolidated acceptance battery for one (r, sigma) case.

``configuration``, ``homogeneity``, ``aux_group`` and ``aux_distances``
return the results that the config, homog, hrho and census verbs write,
with no I/O; the battery reads the same results.  Each criterion that
applies to the case is evaluated at its exact expected value; the output is
deterministic (no timing, stable ordering) so identical runs are
byte-identical.
"""

from __future__ import annotations

from pencilgraphs import (_golden, autnr, config as configmod, decomp, gf2,
                          graphbuild, homog, hrho, hrho_heavy, pencil)
from pencilgraphs.gf2 import SpaceCtx

DEFAULT_SEED = 20240801  # echoed by the artifacts; every check is exact


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


def configuration(g: graphbuild.PencilGraph,
                  enable_heavy: bool = False) -> tuple[dict, dict]:
    """What ``config`` writes for g, and the battery's configuration check.
    The duality search runs on a square configuration, past
    ``config.SELF_DUAL_VERTEX_CAP`` vertices only under enable_heavy; the
    check also needs the golden parameters, where there is a row."""
    c = configmod.build_config(g)
    m, cc, n, d = c.params
    square = m == n and cc == d
    searched = square and (len(g) <= configmod.SELF_DUAL_VERTEX_CAP
                           or enable_heavy)
    data: dict = {
        "params": list(c.params), "balanced": c.check_balance(),
        "menger_equals_graph": configmod.menger_equals_graph(c, g),
        "levi": {"points": c.n_points, "lines": len(c.lines),
                 "point_degree": c.lines_per_point,
                 "line_degree": c.points_per_line},
        "self_dual": "skipped (needs --enable-heavy)" if square else False,
    }
    exp = _golden.CONFIG_PARAMS.get((g.ctx.r, g.ctx.sigma))
    got = {k: data[k] for k in ("params", "menger_equals_graph", "balanced")}
    ok = (data["menger_equals_graph"] and data["balanced"]
          and (exp is None or tuple(c.params) == exp))
    if searched:
        dual = configmod.self_duality_map(c)
        got["self_dual"] = data["self_dual"] = dual is not None
        ok = ok and dual is not None
        if dual is not None:
            iso = configmod.dual_menger_isomorphic(c, g, dual)
            got["dual_menger_isomorphic"] = iso
            data["dual_menger_isomorphic"] = iso
            data["duality_point_to_line"] = [dual[i] - c.n_points
                                             for i in range(c.n_points)]
            ok = ok and iso
    return data, _check("configuration", ok,
                        {"params": list(exp) if exp else None}, got)


def homogeneity(g: graphbuild.PencilGraph,
                stab_gens: list[autnr.AutoMap] | None = None
                ) -> tuple[dict, list[dict]]:
    """What ``homog`` writes for g, but its seed, and the battery's
    h_property and uh_witness checks; ``homog`` exits 0 when both pass.
    stab_gens, when given, are the synthesized stabilizer generators."""
    gens = homog.full_generator_set(g, stab_gens=stab_gens)
    reports = homog.check_H_property(g, gens)
    wit, tried = homog.non_uh_witness(g)
    expect_wit = homog.witness_expected(g.ctx)
    vorb = homog.vertex_orbit_of_base(gens.vperms())
    data = {
        "h_property": [rep.as_dict() for rep in reports],
        "vertex_transitive_under_generators": len(vorb) == len(g),
        "witness": None if wit is None else wit.as_dict(),
        "witness_candidates_tried": tried,
        "generator_counts": {"stabilizer": len(gens.stabilizer),
                             "entry_perms": len(gens.entry_perms),
                             "base_movers": len(gens.movers)},
        "note": ("stabilizer and entry permutations alone preserve the "
                 "initial entry of the base vertex; the base movers are "
                 "required for vertex transitivity"),
    }
    return data, [
        _check("h_property", all(rep.ok for rep in reports),
               True, data["h_property"]),
        _check("uh_witness", (wit is not None) == expect_wit,
               {"witness_expected": expect_wit},
               {"witness_found": wit is not None, "tried": tried,
                "witness": data["witness"]}),
    ]


def aux_group(rho: int) -> dict:
    """What ``hrho`` writes at every rho: the auxiliary group's order, by
    Schreier-Sims on the certified generators, with the formula, its
    distinguished element and, at rho >= 3, the coset index of the doubled
    subgroup from the coset walk."""
    return {"rho": rho, "j_display": hrho.perm_display(hrho.j_rho(rho)),
            "order": hrho.aux_order(rho),
            "order_formula": hrho.group_order_formula(rho),
            "coset_index": (len(hrho_heavy.coset_reps_heavy(rho))
                            if rho >= 3 else None)}


def aux_distances(rho: int) -> dict:
    """The auxiliary group's certified Cayley distances, from one
    ``certified_distances`` list: the distance law, the Cayley diameter and
    the census rows, both None unless every class is certified."""
    classes = hrho.certified_distances(rho)
    diameter = hrho.certified_diameter(classes)
    return {"distance_law": diameter is not None,
            "cayley_diameter": diameter,
            "census": None if diameter is None else hrho.census_rows(classes)}


def acceptance_report(r: int, sigma: int, seed: int = DEFAULT_SEED,
                      enable_heavy: bool = False,
                      cap_vertices: int = graphbuild.DEFAULT_CAP) -> dict:
    """The battery for (r, sigma); raises graphbuild.CapError, before any
    build, when a graph it builds would pass cap_vertices."""
    ctx = SpaceCtx(r, sigma)
    total, n = pencil.total_pencil_count(ctx), pencil.component_order(ctx)
    full = total <= (1 << 17)  # check 11 builds the full graph
    graphbuild.refuse_past_cap("predicted component order", n, cap_vertices)
    if full:
        graphbuild.refuse_past_cap("full graph order", total, cap_vertices)
    checks: list[dict] = []
    g = graphbuild.component(r, sigma, cap_vertices)
    case = (r, sigma)
    data = _golden.CASE_DATA.get(case, {})

    # 1: order and degree
    checks.append(_order_degree(g, data.get("order", n)))

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
    order = autnr.closure_order(stab_gens)
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
    aux, dist = aux_group(rho), aux_distances(rho)
    checks.append(_check("aux_group_order",
                         aux["order"] == _golden.GROUP_ORDERS[rho],
                         _golden.GROUP_ORDERS[rho], aux["order"]))
    law = dist["distance_law"]
    got_rows = (None if dist["census"] is None
                else {st: (d, c) for st, d, c in dist["census"]})
    checks.append(_check("aux_census", got_rows == _golden.TABLE1[rho],
                         _golden.TABLE1[rho], got_rows))
    checks.append(_check("distance_law", law, True, law))
    jd = aux["j_display"]
    checks.append(_check("farthest_element",
                         jd == _golden.J_DISPLAYS[rho]
                         and law and hrho.residue(hrho.j_rho(rho)) == rho,
                         _golden.J_DISPLAYS[rho], jd))
    if rho >= 3:
        half, quarter = 1 << (rho - 1), 1 << (rho - 2)
        exp = {"index": _golden.COSET_INDEX[rho],
               "abc_reps": 1 + 2 * (half - 1) + quarter * (half - 1)}
        got = {"index": aux["coset_index"],
               "abc_reps": sum(hrho.verify_category_cosets(rho).values())}
        checks.append(_check("coset_structure", got == exp, exp, got))

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
    hom, hom_checks = homogeneity(g, stab_gens)
    checks += hom_checks

    # 11: connectivity of the full graph
    if full:
        gf = graphbuild.full_graph(r, sigma, cap_vertices)
        sizes = graphbuild.component_sizes(gf)
        if ctx.rho == 2:
            ok = gf.n_components == 1
            exp = {"components": 1}
        else:
            ok = gf.n_components == total // n and set(sizes) == {n}
            exp = {"components": total // n, "component_size": n}
        checks.append(_check("full_graph_components", ok, exp,
                             {"components": gf.n_components,
                              "sizes": sorted(set(sizes))}))

    # 12: configuration
    checks.append(configuration(g, enable_heavy)[1])

    # 13: diameter bounds
    transitive = hom["vertex_transitive_under_generators"]
    diam = graphbuild.diameter(g, assume_vertex_transitive=transitive)
    bound = 2 * r - 2
    hdiam = dist["cayley_diameter"]
    entry = {"diameter": diam, "bound": bound,
             "vertex_transitive": transitive, "aux_diameter": hdiam}
    ok = diam <= bound and law and diam <= 2 * hdiam
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
