"""The four workloads: inputs made from the seed, the calls, the answer checks.

A workload is a list of operations run in order in one cold interpreter.
Each operation is a call into the package (a CLI verb through
``pencilgraphs.cli.main`` or a public function) and a check of its answer
against the package's reference data or a closed form.  Inputs are made here,
with this file's own GF(2) arithmetic, so making them leaves every cache of
the package empty.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from pencilgraphs import _golden, cli, decomp, gf2, graphbuild, hrho, pencil

THREADS = 2  # worker threads passed to every verb

DESK_CASES = [(3, 1), (4, 2)]
COMPONENT_CASE = (4, 1)
QUERY_SPACE = (6, 2)
QUERIES_PER_REP = 400
HOT_SET = 64  # one request in four repeats one of these


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # answer -> list of problems


# the package's process-wide caches, captured before any tracing wrapper
CACHES = {
    "graphbuild.component": graphbuild.component,
    "graphbuild.full_graph": graphbuild.full_graph,
    "graphbuild.copy_dual_points": graphbuild._copy_dual_points,
    "hrho.build_group": hrho.build_group,
    "gf2.coset_table": gf2.coset_table,
}


def program_caches() -> dict[str, int]:
    """Entries held by each of the package's process-wide caches."""
    sizes = {name: fn.cache_info().currsize for name, fn in CACHES.items()}
    sizes["pencil._KEY_CACHE"] = len(pencil._KEY_CACHE)
    return sizes


def cache_hit_ratios() -> dict[str, float]:
    out = {}
    for name in ("graphbuild.copy_dual_points", "gf2.coset_table"):
        ci = CACHES[name].cache_info()
        calls = ci.hits + ci.misses
        out[f"{name}.hit_ratio"] = ci.hits / calls if calls else 0.0
    return out


def plan(workload: str, seed: int, rep: int, workdir: str) -> list[Op]:
    makers = {
        "desk-verify": _desk_verify,
        "component-4-1": _component,
        "aux-group": _aux_group,
        "pencil-queries": _pencil_queries,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return makers[workload](seed, rep, workdir)


# ---------------------------------------------------------------------------
# CLI workloads


def _verb(args: list[str], out: str) -> Callable[[], int]:
    argv = args + ["--threads", str(THREADS), "--out", out]
    # cli.main is looked up per call so a traced run sees the wrapped verb
    return lambda: cli.main(argv)


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _exit_ok(rc) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def _desk_verify(seed, rep, workdir):
    ops = []
    for r, s in DESK_CASES:
        out = os.path.join(workdir, f"report-{r}-{s}.json")

        def check(rc, out=out, r=r, s=s):
            probs = _exit_ok(rc)
            data = _read_json(out)
            if data["case"]["r"] != r or data["case"]["sigma"] != s:
                probs.append(f"report is for case {data['case']}")
            if data["all_pass"] is not True:
                probs.append("all_pass is not true")
            if data["failed_checks"] != []:
                probs.append(f"failed checks {data['failed_checks']}")
            return probs

        ops.append(Op(f"report-{r}-{s}",
                      _verb(["report", "-r", str(r), "-s", str(s),
                             "--seed", str(seed)], out), check))
    return ops


def _closed_forms(r: int, sigma: int) -> dict:
    """Component order, degree, copy counts and part size s from (r, sigma)."""
    rho = r - sigma
    s, t, m1 = 1 << (rho - 1), (1 << (sigma + 1)) - 1, (1 << rho) - 1
    order = 1
    for i in range(1, rho + 1):
        order *= (1 << (i - 1)) * ((1 << (i + sigma)) - 1)
    degree = s * (t - 1) * m1
    return {"order": order, "degree": degree, "s": s,
            "clique_copies": ((1 << sigma) - 1) * order,
            "turan_copies": m1 * order // (s * t),
            "edges": order * degree // 2}


def _component(seed, rep, workdir):
    r, s = COMPONENT_CASE
    want = _closed_forms(r, s)
    golden = _golden.CASE_DATA[(r, s)]
    if (golden["order"], golden["degree"], golden["ell0"], golden["ell1"]) != (
            want["order"], want["degree"], want["clique_copies"],
            want["turan_copies"]):
        raise RuntimeError(f"closed forms disagree with CASE_DATA[{(r, s)}]")
    graph_out = os.path.join(workdir, "graph.json")
    verify_out = os.path.join(workdir, "verify.json")
    rs = ["-r", str(r), "-s", str(s)]

    def check_build(rc):
        probs = _exit_ok(rc)
        with open(graph_out) as f:
            text = f.read()
        data = json.loads(text)
        if json.dumps(data, sort_keys=True, indent=1) + "\n" != text:
            probs.append("graph JSON does not round-trip")
        n, d = want["order"], want["degree"]
        adj = data["adjacency"]
        if (data["r"], data["sigma"]) != (r, s):
            probs.append("graph JSON has the wrong case")
        if len(data["vertices"]) != n or len(adj) != n:
            probs.append(f"graph JSON has {len(data['vertices'])} vertices")
        if any(len(row) != d for row in adj):
            probs.append("graph JSON has a row of the wrong degree")
        edges = {(i, j) for i, row in enumerate(adj) for j in row}
        if any((j, i) not in edges for i, j in edges):
            probs.append("graph JSON adjacency is not symmetric")
        if len(edges) != 2 * want["edges"]:
            probs.append(f"graph JSON has {len(edges) // 2} edges")
        if data["components"] != [n]:
            probs.append(f"graph JSON components {data['components']}")
        return probs

    def check_verify(rc):
        probs = _exit_ok(rc)
        data = _read_json(verify_out)
        if data["ok"] is not True or data["failures"]:
            probs.append(f"decomposition failures {data['failures'][:3]}")
        for key in ("clique_copies", "turan_copies", "edges"):
            if data[key] != want[key]:
                probs.append(f"{key} {data[key]} != {want[key]}")
        return probs

    return [
        Op("build", _verb(["build", *rs], graph_out), check_build),
        Op("verify", _verb(["verify", *rs], verify_out), check_verify),
    ]


def _aux_group(seed, rep, workdir):
    census_out = os.path.join(workdir, "census4.csv")
    hrho4_out = os.path.join(workdir, "hrho4.json")
    hrho5_out = os.path.join(workdir, "hrho5.json")

    def check_census(rc):
        probs = _exit_ok(rc)
        with open(census_out, newline="") as f:
            rows = list(csv.DictReader(f))
        got = {row["super_type"]: (int(row["distance"]), int(row["count"]))
               for row in rows}
        if got != _golden.TABLE1[4]:
            probs.append("census --rho 4 differs from TABLE1[4]")
        if sum(c for _, c in got.values()) != _golden.GROUP_ORDERS[4]:
            probs.append("census --rho 4 does not cover the group")
        return probs

    def check_hrho(path, rho):
        def check(rc):
            probs = _exit_ok(rc)
            data = _read_json(path)
            want = {"order": _golden.GROUP_ORDERS[rho],
                    "order_formula": _golden.GROUP_ORDERS[rho],
                    "coset_index": _golden.COSET_INDEX[rho],
                    "j_display": _golden.J_DISPLAYS[rho]}
            if rho <= 4:
                want["distance_law"] = True
            for key, val in want.items():
                if data.get(key) != val:
                    probs.append(f"hrho --rho {rho} {key} {data.get(key)} != {val}")
            return probs
        return check

    return [
        Op("census-4", _verb(["census", "--rho", "4"], census_out),
           check_census),
        Op("hrho-4", _verb(["hrho", "--rho", "4"], hrho4_out),
           check_hrho(hrho4_out, 4)),
        Op("hrho-5-heavy", _verb(["hrho", "--rho", "5", "--enable-heavy"],
                                 hrho5_out), check_hrho(hrho5_out, 5)),
    ]


# ---------------------------------------------------------------------------
# pencil queries at (6, 2): never materialise the graph


def _mask(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def random_pencil(rng: random.Random, r: int, sigma: int) -> tuple[int, ...]:
    """A uniform (r, sigma)-ordered pencil: a uniform sigma-subspace A0 (from a
    uniform ordered basis) and a uniform ordering of its cosets."""
    n = (1 << r) - 1
    span = {0}
    while len(span) < 1 << sigma:
        x = rng.randrange(1, n + 1)
        if x not in span:
            span |= {y ^ x for y in span}
    cosets, seen = [], set(span)
    for x in range(1, n + 1):
        if x not in seen:
            c = {x ^ y for y in span}
            seen |= c
            cosets.append(_mask(c))
    rng.shuffle(cosets)
    return (_mask(span - {0}),) + tuple(cosets)


def _request(rng: random.Random) -> tuple:
    r, sigma = QUERY_SPACE
    v = random_pencil(rng, r, sigma)
    m1 = len(v) - 1
    return (v, rng.randrange(1 << 16), rng.randrange(1, m1 + 1),
            rng.randrange(1 << 16))


def query_stream(seed: int, rep: int) -> list[tuple]:
    """Requests of repetition rep: every fourth repeats one of a hot set of
    HOT_SET requests fixed by the seed, the others are fresh."""
    hot_rng = random.Random(f"hot:{seed}")
    hot = [_request(hot_rng) for _ in range(HOT_SET)]
    rng = random.Random(f"stream:{seed}:{rep}")
    return [hot[rng.randrange(HOT_SET)] if k % 4 == 3 else _request(rng)
            for k in range(QUERIES_PER_REP)]


def _is_pencil(v, r: int, sigma: int) -> bool:
    a0 = v[0]
    pts = [p for p in range(1, 1 << r) if a0 >> p & 1]
    if len(pts) != (1 << sigma) - 1 or any(
            not a0 >> (a ^ b) & 1 for a in pts for b in pts if a != b):
        return False
    cover = a0
    for e in v[1:]:
        if e & cover or e.bit_count() != 1 << sigma:
            return False
        x = (e & -e).bit_length() - 1
        if any(not e >> (x ^ p) & 1 for p in pts):
            return False
        cover |= e
    return cover == (1 << (1 << r)) - 2


def _pencil_queries(seed, rep, workdir):
    r, sigma = QUERY_SPACE
    ctx = gf2.SpaceCtx(r, sigma)
    want = _closed_forms(r, sigma)
    degree, copy_size, part_size = want["degree"], 2 * want["s"], want["s"]
    hyperplane_points = (1 << (r - 1)) - 1

    def op_for(req):
        v, k_copy, entry, k_nbr = req

        def run():
            nbrs = graphbuild.neighbors(ctx, v)
            copies = decomp.clique_copies_at(ctx, v)
            members = decomp.clique_vertices(ctx, copies[k_copy % len(copies)])
            part = decomp.turan_part(ctx, v, entry)
            w = nbrs[k_nbr % len(nbrs)]
            return nbrs, members, part, w, graphbuild.adjacent(ctx, v, w)

        def check(ans):
            nbrs, members, part, w, hyper = ans
            probs = []
            distinct = set(nbrs)
            if len(nbrs) != degree or len(distinct) != degree or v in distinct:
                probs.append(f"{len(distinct)} distinct neighbours")
            if not _is_pencil(w, r, sigma):
                probs.append("sampled neighbour is not a pencil")
            back = graphbuild.adjacent(ctx, w, v)
            if hyper is None or back != hyper \
                    or hyper.bit_count() != hyperplane_points:
                probs.append("sampled neighbour not adjacent both ways")
            if len(set(members)) != copy_size or v not in members:
                probs.append("clique copy of the wrong size or without v")
            if len(set(part)) != part_size or v not in part \
                    or any(p[0] != v[0] for p in part):
                probs.append("Turan part of the wrong size or label")
            return probs

        return Op("query", run, check)

    return [op_for(req) for req in query_stream(seed, rep)]
