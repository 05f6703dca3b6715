"""Command-line front end: build, verify, census, symmetry and report verbs.

Artifacts are deterministic: identical parameters produce byte-identical
output.  Every verb runs serially; the thread-count flag is accepted and
ignored, so existing command lines keep working.

Every JSON artifact is json.dumps(data, sort_keys=True, indent=1) and a
newline.  The graph export of build is the one large document: json.dumps
would need it built as lists and would write it with its pure-Python
indenting encoder, so _graph_json renders the same bytes from per-mask
text.  Each distinct mask's points are rendered once per indent, a vertex
record is one join of those texts, and an adjacency row is one %-format of
a template built from the degree.  Rows are read one at a time, and the
pieces, one per row or record, are joined once into the string that _emit
writes out in slices.  On a 2-vCPU host, `build -r 4 -s 1 --full` (64 MB
of JSON) takes about 1.7 s and peaks at about 189 MB: the graph, the
pieces and the joined text.  Writing the pieces straight into the --out
file would drop the joined text, but _emit takes the whole text.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

from pencilgraphs import (_golden, autnr, config as configmod, decomp, gf2,
                          graphbuild, homog, hrho, hrho_heavy)
from pencilgraphs.gf2 import SpaceCtx


@dataclass
class RunConfig:
    command: str
    r: int = 0
    sigma: int = 0
    rho: int = 0
    cap_vertices: int = graphbuild.DEFAULT_CAP
    seed: int = 20240801
    enable_heavy: bool = False
    full: bool = False
    out: str | None = None
    fmt: str = "json"


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built by the first main call; parse_args leaves
    it unchanged, so one serves every later call in the process."""
    ap = argparse.ArgumentParser(
        prog="pencilgraphs",
        description="ordered-pencil graphs over binary projective space",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=("json",), needs_rs=True):
        """Shared options; formats lists what the verb writes, default first."""
        if needs_rs:
            p.add_argument("-r", type=int, required=True)
            p.add_argument("-s", "--sigma", type=int, required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", default=formats[0],
                       choices=formats)
        p.add_argument("--cap-vertices", type=int,
                       default=graphbuild.DEFAULT_CAP)
        p.add_argument("--seed", type=int, default=20240801)
        p.add_argument("--enable-heavy", action="store_true")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored: every verb is serial")

    p = sub.add_parser("build", help="build a graph and export it")
    common(p, ("json", "dot", "text"))
    p.add_argument("--full", action="store_true",
                   help="build the full graph instead of the component")
    for name, formats, hlp in [
        ("verify", ("json", "text"), "verify the double decomposition"),
        ("aut", ("json",),
         "synthesize stabilizer generators and their closure order"),
        ("config", ("json", "dot"),
         "incidence configuration, Menger and Levi checks"),
        ("homog", ("json",),
         "homogeneity checks and the non-extensible witness"),
        ("report", ("json",), "run the full acceptance battery for one case"),
    ]:
        common(sub.add_parser(name, help=hlp), formats)
    for name, formats, hlp in [
        ("hrho", ("json",),
         "auxiliary group: order, distance law, distinguished element"),
        ("census", ("csv", "json"), "cycle-type census of the auxiliary group"),
    ]:
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--rho", type=int, required=True)
        common(p, formats, needs_rs=False)
    return ap


def _emit(cfg: RunConfig, text: str) -> None:
    """Write to stdout, or replace --out atomically: a failed write leaves
    any existing file untouched and no temporary file behind.

    The text goes out in 1 MiB slices, so it is never encoded whole: one
    write of a 64 MB artifact would hold a second, encoded copy of it.
    """
    step = 1 << 20
    pieces = (text[k : k + step] for k in range(0, len(text), step))
    if not cfg.out:
        sys.stdout.writelines(pieces)
        return
    tmp = f"{cfg.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.writelines(pieces)
        os.replace(tmp, cfg.out)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _ints(xs, nl: str) -> str:
    """A non-empty list of ints, or of %d slots, as json.dumps with indent=1
    writes it on a line whose newline and indent are nl."""
    inner = nl + " "
    return "[" + inner + ("," + inner).join(map(str, xs)) + nl + "]"


def _graph_json(g, label: dict) -> str:
    """The build document, as _json writes it, rendered from per-mask text.

    label maps each mask of the graph to its extended-hex label.  Each
    mask's points are rendered once at the A0 indent and once at the entry
    indent, a vertex record is one join of those texts, and an adjacency
    row is one %-format of a template built from the degree.  Labels use
    only 0-9a-v{}, so a display string needs no escaping.  Every item
    carries its leading comma, which the first item of a list drops; the
    pieces, one per row or record, are joined once.
    """
    row = ",\n  " + _ints(["%d"] * g.degree, "\n  ")
    points = {m: gf2.points_of(m) for m in label}
    lead = {m: ',\n  {\n   "A0": ' + _ints(p, "\n   ")
            + ',\n   "entries": [\n    ' for m, p in points.items()}
    entry = {m: _ints(p, "\n    ") for m, p in points.items()}
    r, sigma = g.ctx.r, g.ctx.sigma
    pieces = []
    for head, items in [
        ('{\n "adjacency": [',
         (row % tuple(g.neighbors_of(i)) for i in range(len(g)))),
        ('\n ],\n "components": [',
         [",\n  %d" % c for c in graphbuild.component_sizes(g)]),
        ('\n ],\n "display": [',
         (',\n  "(' + ",".join(map(label.__getitem__, v)) + ')"'
          for v in g.vertices)),
        (f'\n ],\n "r": {r},\n "sigma": {sigma},\n "vertices": [',
         (lead[v[0]] + ",\n    ".join(map(entry.__getitem__, v[1:]))
          + "\n   ]\n  }" for v in g.vertices)),
    ]:
        pieces.append(head)
        first = len(pieces)
        pieces.extend(items)
        pieces[first] = pieces[first][1:]
    pieces.append("\n ]\n}\n")
    return "".join(pieces)


def _graph_for(cfg: RunConfig) -> graphbuild.PencilGraph:
    if cfg.full:
        return graphbuild.full_graph(cfg.r, cfg.sigma, cfg.cap_vertices)
    return graphbuild.component(cfg.r, cfg.sigma, cfg.cap_vertices)


def cmd_build(cfg: RunConfig) -> int:
    g = _graph_for(cfg)
    if cfg.fmt == "dot":
        buf = ["graph G {"]
        buf += [f"  {i} -- {j};" for i, j in g.edges()]
        buf.append("}")
        _emit(cfg, "\n".join(buf) + "\n")
        return 0
    label = {m: gf2.mask_str(m) for m in {m for v in g.vertices for m in v}}
    if cfg.fmt == "text":
        _emit(cfg, "".join(f"{i} ({','.join(map(label.__getitem__, v))})\n"
                           for i, v in enumerate(g.vertices)))
        return 0
    _emit(cfg, _graph_json(g, label))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    rep = decomp.verify_decomposition(_graph_for(cfg))
    if cfg.fmt == "text":
        lines = [f"{k}: {v}" for k, v in rep.as_dict().items()]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, _json(rep.as_dict()))
    return 0 if rep.ok else 1


def cmd_aut(cfg: RunConfig) -> int:
    g = _graph_for(cfg)
    gens = autnr.synth_generators(g)
    order = autnr.closure_order(gens, g)
    expected = autnr.nr_order_formula(g.ctx)
    data = {
        "closure_order": order,
        "formula_order": expected,
        "match": order == expected,
        "generators": [
            {
                "category": a.category,
                "kind": a.kind,
                "pi": gf2.mask_str(a.pi) if a.category != "A" else gf2.point_str(a.pi),
                "alpha": gf2.mask_str(a.alpha),
                "phi": [
                    {
                        "theta": gf2.mask_str(theta),
                        "chi": gf2.mask_str(chi),
                        "transpositions": [
                            [gf2.mask_str(x), gf2.mask_str(y)] for x, y in pairs
                        ],
                    }
                    for theta, chi, pairs in a.factors
                ],
                "psi": list(a.psi[1:]),
                "display": a.display(),
            }
            for a in gens
        ],
    }
    _emit(cfg, _json(data))
    return 0 if data["match"] else 1


def cmd_hrho(cfg: RunConfig) -> int:
    rho = cfg.rho
    data: dict = {"rho": rho, "j_display": hrho.perm_display(hrho.j_rho(rho))}
    if rho <= 4:
        store = hrho.build_group(rho)
        data.update(
            order=len(store),
            order_formula=hrho.group_order_formula(rho),
            distance_law=hrho.check_distance_law(store),
            cayley_diameter=hrho.cayley_diameter(store),
            coset_index=len(hrho.coset_partition(rho)) if rho >= 3 else None,
        )
    else:
        order, index = hrho_heavy.order_by_cosets(rho)
        data.update(order=order, order_formula=hrho.group_order_formula(rho),
                    coset_index=index)
    _emit(cfg, _json(data))
    return 0


def cmd_census(cfg: RunConfig) -> int:
    rho = cfg.rho
    if rho >= 5 and not cfg.enable_heavy:
        sys.stderr.write("refused: the rho = 5 census needs --enable-heavy\n")
        return 2
    rows = sorted(
        ((hrho.super_type_str(st), d, cnt)
         for st, (d, cnt) in hrho.class_census(rho).items()),
        key=lambda t: (t[1], t[0]),
    )
    golden = _golden.TABLE1.get(rho)
    diff = []
    if golden is not None:
        got = {s: (d, c) for s, d, c in rows}
        for key in sorted(set(golden) | set(got)):
            if golden.get(key) != got.get(key):
                diff.append(f"{key}: expected {golden.get(key)}, got {got.get(key)}")
    if cfg.fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["super_type", "distance", "count"])
        for s, d, c in rows:
            w.writerow([s, d, c])
        _emit(cfg, buf.getvalue())
    else:
        _emit(cfg, _json({"rows": rows, "diff_vs_reference": diff}))
    return 0 if not diff else 1


def cmd_config(cfg: RunConfig) -> int:
    g = _graph_for(cfg)
    c = configmod.build_config(g)
    if cfg.fmt == "dot":
        nb = c.n_points
        buf = ["graph L {"]
        buf += [f'  {x} [color={"black" if x < nb else "white"}];'
                for x in range(nb + len(c.lines))]
        buf += [f"  {p} -- {nb + li};"
                for p, lns in enumerate(c.through) for li in lns]
        buf.append("}")
        _emit(cfg, "\n".join(buf) + "\n")
        return 0
    data: dict = {
        "params": list(c.params),
        "balanced": c.check_balance(),
        "menger_equals_graph": configmod.menger_equals_graph(c, g),
        "levi": {
            "points": c.n_points,
            "lines": len(c.lines),
            "point_degree": c.lines_per_point,
            "line_degree": c.points_per_line,
        },
    }
    m, cc, n, d = c.params
    if m == n and cc == d:
        if len(g) > configmod.SELF_DUAL_VERTEX_CAP and not cfg.enable_heavy:
            data["self_dual"] = "skipped (needs --enable-heavy)"
        else:
            dual = configmod.self_duality_map(c)
            data["self_dual"] = dual is not None
            if dual is not None:
                data["dual_menger_isomorphic"] = configmod.dual_menger_isomorphic(
                    c, g, dual
                )
                data["duality_point_to_line"] = [dual[i] - c.n_points
                                                 for i in range(c.n_points)]
    else:
        data["self_dual"] = False
    _emit(cfg, _json(data))
    return 0


def cmd_homog(cfg: RunConfig) -> int:
    g = _graph_for(cfg)
    gens = homog.full_generator_set(g)
    reports = homog.check_H_property(g, gens)
    wit, tried = homog.non_uh_witness(g)
    vorb = homog.vertex_orbit_of_base(g, gens.vperms())
    data = {
        "h_property": [rep.as_dict() for rep in reports],
        "vertex_transitive_under_generators": len(vorb) == len(g),
        "witness": None if wit is None else wit.as_dict(),
        "witness_candidates_tried": tried,
        "generator_counts": {
            "stabilizer": len(gens.stabilizer),
            "entry_perms": len(gens.entry_perms),
            "base_movers": len(gens.movers),
        },
        "note": (
            "stabilizer and entry permutations alone preserve the initial "
            "entry of the base vertex; the base movers are required for "
            "vertex transitivity"
        ),
        "seed": cfg.seed,
    }
    _emit(cfg, _json(data))
    ok = all(rep.ok for rep in reports)
    ok = ok and ((wit is not None) == homog.witness_expected(g.ctx))
    return 0 if ok else 1


def cmd_report(cfg: RunConfig) -> int:
    from pencilgraphs.report import acceptance_report

    data = acceptance_report(cfg.r, cfg.sigma, seed=cfg.seed,
                             enable_heavy=cfg.enable_heavy)
    _emit(cfg, _json(data))
    return 0 if data["all_pass"] else 1


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "aut": cmd_aut,
    "hrho": cmd_hrho,
    "census": cmd_census,
    "config": cmd_config,
    "homog": cmd_homog,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    kwargs = dict(
        command=ns.command,
        cap_vertices=ns.cap_vertices,
        seed=ns.seed,
        enable_heavy=ns.enable_heavy,
        out=ns.out,
        fmt=ns.fmt,
    )
    if hasattr(ns, "r"):
        kwargs.update(r=ns.r, sigma=ns.sigma)
    if hasattr(ns, "rho"):
        kwargs.update(rho=ns.rho)
    if hasattr(ns, "full"):
        kwargs.update(full=ns.full)
    cfg = RunConfig(**kwargs)
    if cfg.command in ("hrho", "census"):
        if not 2 <= cfg.rho <= 5:
            sys.stderr.write(f"invalid parameters: rho must be in 2..5, "
                             f"got {cfg.rho}\n")
            return 2
    else:
        try:
            SpaceCtx(cfg.r, cfg.sigma)
        except Exception as e:
            sys.stderr.write(f"invalid parameters: {e}\n")
            return 2
    try:
        return _COMMANDS[cfg.command](cfg)
    except graphbuild.CapError as e:
        sys.stderr.write(f"refused: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
