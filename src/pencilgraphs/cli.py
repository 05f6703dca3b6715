"""Command-line front end: build, verify, census, symmetry and report verbs.

Artifacts are deterministic: identical parameters produce byte-identical
output.  Every verb runs serially; the thread-count flag is accepted and
ignored, so existing command lines keep working.

The graph export renders each distinct point mask once: its points tuple
and extended-hex label are computed once per mask, and the JSON writer
renders each tuple of plain ints once per indent.  The graph-sized lists
reach the writer as iterators, one vertex or row at a time, so no
per-vertex copy of the document is held.  The artifact still reaches
_emit as one string, which is written out in slices.  On a 2-vCPU host,
`build -r 4 -s 1 --full` (64 MB of JSON) takes about 4 s and peaks at
about 205 MB: the graph, the rendered rows and the joined text.  Writing
the rows straight into the --out file would drop the last two, but _emit
takes the whole text.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from collections.abc import Iterator
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


_scalar = json.JSONEncoder().encode


def _json(data) -> str:
    """json.dumps(data, sort_keys=True, indent=1) + "\\n", byte for byte.

    With an indent, json.dumps runs its pure-Python encoder; this writer
    walks the containers itself and joins each list of plain ints at once.
    A tuple of plain ints is rendered once per indent and then read back
    from a memo that lives for this call, and an iterator value is written
    as the equal list, one item at a time.
    """
    out = []
    _write(data, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _key(k) -> str:
    if isinstance(k, str):
        return _scalar(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _scalar(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")


def _write(o, nl: str, out: list, memo: dict) -> None:
    """Append o's text to out; nl is the newline and indent of o's line.

    memo maps (tuple, nl) to its text, for tuples of plain ints only: any
    other tuple may be unhashable, and (True,) equals (1,).
    """
    inner = nl + " "
    sep = "," + inner
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        out.append("{")
        for n, (k, v) in enumerate(sorted(o.items())):
            out.append((sep if n else inner) + _key(k) + ": ")
            _write(v, inner, out, memo)
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)) and o and set(map(type, o)) == {int}:
        # a list is unhashable, so only a tuple's text is kept
        key = (o, nl) if isinstance(o, tuple) else None
        text = memo.get(key)
        if text is None:
            text = "[" + inner + sep.join(map(int.__repr__, o)) + nl + "]"
            if key:
                memo[key] = text
        out.append(text)
    elif isinstance(o, (list, tuple, Iterator)):
        n = -1
        for n, x in enumerate(o):
            # one piece per item keeps the list of pieces short
            item = [sep if n else "[" + inner]
            _write(x, inner, item, memo)
            out.append("".join(item))
        out.append(nl + "]" if n >= 0 else "[]")
    else:
        out.append(_scalar(o))


def _graph_for(cfg: RunConfig):
    ctx = SpaceCtx(cfg.r, cfg.sigma)
    if cfg.full:
        g = graphbuild.full_graph(cfg.r, cfg.sigma, cfg.cap_vertices)
    else:
        g = graphbuild.component(cfg.r, cfg.sigma, cfg.cap_vertices)
    return ctx, g


def cmd_build(cfg: RunConfig) -> int:
    ctx, g = _graph_for(cfg)
    if cfg.fmt == "dot":
        buf = ["graph G {"]
        buf += [f"  {i} -- {j};" for i, j in g.edges()]
        buf.append("}")
        _emit(cfg, "\n".join(buf) + "\n")
        return 0
    # each distinct mask's points and label, once; the writer's memo then
    # renders each points tuple once per indent
    masks = {m for v in g.vertices for m in v}
    points = {m: gf2.points_of(m) for m in masks}
    label = {m: gf2.mask_str(m) for m in masks}
    display = ("(" + ",".join(map(label.__getitem__, v)) + ")"
               for v in g.vertices)
    if cfg.fmt == "text":
        _emit(cfg, "".join(f"{i} {d}\n" for i, d in enumerate(display)))
        return 0
    data = {
        "r": ctx.r,
        "sigma": ctx.sigma,
        "vertices": ({"A0": points[v[0]],
                      "entries": [points[m] for m in v[1:]]}
                     for v in g.vertices),
        "adjacency": (g.neighbors_of(i).tolist() for i in range(len(g))),
        "display": display,
        "components": graphbuild.component_sizes(g),
    }
    _emit(cfg, _json(data))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    ctx, g = _graph_for(cfg)
    rep = decomp.verify_decomposition(ctx, g)
    if cfg.fmt == "text":
        lines = [f"{k}: {v}" for k, v in rep.as_dict().items()]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, _json(rep.as_dict()))
    return 0 if rep.ok else 1


def cmd_aut(cfg: RunConfig) -> int:
    ctx, g = _graph_for(cfg)
    gens = autnr.synth_generators(ctx, g)
    order = autnr.closure_order(gens, g)
    expected = autnr.nr_order_formula(ctx)
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
    ctx, g = _graph_for(cfg)
    c = configmod.build_config(ctx, g)
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
    ctx, g = _graph_for(cfg)
    gens = homog.full_generator_set(ctx, g)
    reports = homog.check_H_property(ctx, g, gens)
    wit, tried = homog.non_uh_witness(ctx, g)
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
    ok = ok and ((wit is not None) == homog.witness_expected(ctx))
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
