"""In-memory span tracing around the package's module boundaries.

The tracer replaces public functions of the pencilgraphs modules with
wrappers that record one span per call: name, start, end, parent span and
thread.  Spans live in memory and are written out when the repetition ends.
Only coarse functions are wrapped (one call per graph, group, vertex or
query); per-point helpers such as ``gf2.coset_mask`` or ``hrho.compose`` are
never wrapped, because a wrapper per point would distort the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

# module -> public functions that get a span per call
TRACED = {
    "graphbuild": ["neighbors", "adjacent", "build_component", "build_full",
                   "component", "full_graph", "diameter"],
    "decomp": ["clique_copies_at", "clique_vertices", "turan_part",
               "enumerate_clique_copies", "enumerate_turan_copies",
               "verify_decomposition"],
    "autnr": ["synth_point_kind", "synth_fiber_kind", "synth_generators",
              "closure_order"],
    "homog": ["full_generator_set", "check_H_property", "non_uh_witness",
              "extend_partial", "vertex_orbit_of_base"],
    "hrho": ["build_group", "check_distance_law", "cayley_diameter",
             "table_census", "coset_partition"],
    "hrho_heavy": ["coset_reps_heavy"],
    "config": ["build_config", "menger_equals_graph", "self_duality_map",
               "dual_menger_isomorphic"],
    "cli": ["main", "cmd_build", "cmd_verify", "cmd_hrho", "cmd_census",
            "cmd_report"],
    "report": ["acceptance_report"],
}

# span name -> function(result) giving counts recorded on the span
NOTES = {
    "graphbuild.build_component": lambda res: {"vertices": len(res)},
    "graphbuild.build_full": lambda res: {"vertices": len(res)},
    "hrho.build_group": lambda res: {"elements": len(res)},
    "decomp.verify_decomposition": lambda res: {"copies": res.ell0 + res.ell1},
    "homog.check_H_property": lambda res: {"orbit_arcs": res[0].orbit_size},
    "homog.extend_partial": lambda res: {"nodes": res[1].nodes},
    "autnr.synth_point_kind": lambda res: {"kept": len(res)},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[tuple[int | None, str], int] = {}
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _record(self, sid, name, parent, start, end, notes, error):
        rec = {"id": sid, "name": name, "parent": parent,
               "thread": threading.get_ident(), "start": start, "end": end}
        if notes:
            rec["notes"] = notes
        if error:
            rec["error"] = error
        self.spans.append(rec)

    def call(self, name, fn, args=(), kwargs=None, note=None):
        """Run fn(*args, **kwargs) inside a span named name."""
        kwargs = kwargs or {}
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        cache_info = getattr(fn, "cache_info", None)
        misses = cache_info().misses if cache_info else 0
        stack.append(sid)
        start = time.perf_counter()
        result, error = None, None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            notes = {}
            if cache_info:
                notes["miss"] = cache_info().misses - misses
            if note is not None and error is None and notes.get("miss", 1):
                notes.update(note(result))
            self._record(sid, name, parent, start, end, notes, error)

    def count(self, name: str, n: int = 1) -> None:
        """Add n to counter name, attributed to the innermost open span."""
        if not self.enabled:
            return
        stack = self._stack()
        key = (stack[-1] if stack else None, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    # -- installing wrappers ------------------------------------------------

    def _span_wrapper(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return traced

    def install(self) -> None:
        from pencilgraphs import autnr, cli, graphbuild, parallel

        for modname, names in TRACED.items():
            mod = importlib.import_module(f"pencilgraphs.{modname}")
            for fname in names:
                setattr(mod, fname, self._span_wrapper(f"{modname}.{fname}",
                                                       getattr(mod, fname)))
        # the CLI dispatches through a table captured at import time
        for verb in cli._COMMANDS:
            cli._COMMANDS[verb] = getattr(cli, f"cmd_{verb}")

        tracer = self
        emit = cli._emit

        def counted_emit(cfg, text):
            tracer.count("cli.output_bytes", len(text.encode()))
            return emit(cfg, text)

        cli._emit = counted_emit

        transvection = autnr.transvection_table

        def counted_transvection(*args, **kwargs):
            tracer.count("autnr.transvection_table")
            return transvection(*args, **kwargs)

        autnr.transvection_table = counted_transvection

        pmap = parallel.pmap

        def traced_pmap(fn, items, threads=None):
            if not tracer.enabled:
                return pmap(fn, items, threads)
            items = list(items)
            sid_box = []

            def in_span(x):
                # worker threads start with an empty stack; parent them here
                stack = tracer._stack()
                stack.append(sid_box[0])
                try:
                    return fn(x)
                finally:
                    stack.pop()

            def run():
                sid_box.append(tracer._stack()[-1])
                return pmap(in_span, items, threads)

            return tracer.call("parallel.pmap", run,
                               note=lambda _res: {"items": len(items)})

        parallel.pmap = traced_pmap

        # the neighbour-mask table is built lazily on the first nbr_mask call;
        # only that call gets a span, later lookups pass straight through
        nbr_mask = graphbuild.PencilGraph.nbr_mask

        def traced_nbr_mask(g, i):
            if g._nbr_masks is None:
                return tracer.call("graphbuild.nbr_mask", nbr_mask, (g, i))
            return nbr_mask(g, i)

        graphbuild.PencilGraph.nbr_mask = traced_nbr_mask

    def export(self) -> dict:
        """Spans and counters as plain JSON data."""
        return {"spans": self.spans,
                "counts": [{"span": sid, "name": name, "count": n}
                           for (sid, name), n in self.counts.items()]}


# ---------------------------------------------------------------------------
# analysis


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    by_id = {sp["id"]: sp for sp in spans}
    kids: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        p = by_id.get(sp["parent"])
        if p is not None:
            kids.setdefault(p["id"], []).append(
                (max(sp["start"], p["start"]), min(sp["end"], p["end"])))
    return {sid: (sp["end"] - sp["start"]) - _union_length(kids.get(sid, []))
            for sid, sp in by_id.items()}


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost only), self seconds
    and the summed notes."""
    by_id = {sp["id"]: sp for sp in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sp in spans:
        t = out.setdefault(sp["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[sp["id"]]
        p, nested = by_id.get(sp["parent"]), False
        while p is not None:
            if p["name"] == sp["name"]:
                nested = True
                break
            p = by_id.get(p["parent"])
        if not nested:
            t["s"] += sp["end"] - sp["start"]
        for k, v in sp.get("notes", {}).items():
            t[k] = t.get(k, 0) + v
    return out


def counts_under(spans: list[dict], counts: dict, root_name: str,
                 counter: str) -> int:
    """Sum of counter over spans named root_name and their descendants."""
    by_id = {sp["id"]: sp for sp in spans}
    total = 0
    for (sid, name), n in counts.items():
        if name != counter:
            continue
        sp = by_id.get(sid)
        while sp is not None and sp["name"] != root_name:
            sp = by_id.get(sp["parent"])
        if sp is not None:
            total += n
    return total


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("graphbuild.neighbors.calls", "count", "lower"),
    ("graphbuild.neighbors.self_s", "s", "lower"),
    ("graphbuild.build.vertices_per_s", "1/s", "higher"),
    ("graphbuild.nbr_mask.s", "s", "lower"),
    ("graphbuild.adjacent.s", "s", "lower"),
    ("graphbuild.copy_dual_points.hit_ratio", "ratio", "higher"),
    ("gf2.coset_table.hit_ratio", "ratio", "higher"),
    ("decomp.clique_vertices.s", "s", "lower"),
    ("decomp.turan_part.s", "s", "lower"),
    ("decomp.enumerate_clique_copies.s", "s", "lower"),
    ("decomp.enumerate_turan_copies.s", "s", "lower"),
    ("decomp.verify_decomposition.self_s", "s", "lower"),
    ("decomp.copies", "count", "lower"),
    ("autnr.synth_point_kind.s", "s", "lower"),
    ("autnr.synth_fiber_kind.s", "s", "lower"),
    ("autnr.closure_order.s", "s", "lower"),
    ("autnr.candidates_kept_ratio", "ratio", "higher"),
    ("homog.full_generator_set.s", "s", "lower"),
    ("homog.check_H_property.s", "s", "lower"),
    ("homog.non_uh_witness.s", "s", "lower"),
    ("homog.orbit_arcs", "count", "lower"),
    ("homog.extend_partial.nodes", "count", "lower"),
    ("hrho.build_group.s", "s", "lower"),
    ("hrho.build_group.elements_per_s", "1/s", "higher"),
    ("hrho.coset_partition.s", "s", "lower"),
    ("hrho.table_census.s", "s", "lower"),
    ("hrho_heavy.coset_reps_heavy.s", "s", "lower"),
    ("config.build_config.s", "s", "lower"),
    ("config.menger_equals_graph.s", "s", "lower"),
    ("config.self_duality_map.s", "s", "lower"),
    ("parallel.pmap.items", "count", "lower"),
    ("parallel.pmap.s", "s", "lower"),
    ("cli.cmd_build.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("report.acceptance_report.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(tracer: Tracer, hit_ratios: dict[str, float]) -> dict:
    """Every per-layer metric except trace.overhead_s for one repetition;
    a layer the workload never enters reads 0."""
    t = layer_totals(tracer.spans)

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    builds = ("graphbuild.build_component", "graphbuild.build_full")
    groups = [sp for sp in tracer.spans if sp["name"] == "hrho.build_group"
              and sp.get("notes", {}).get("miss")]
    m = {
        "graphbuild.neighbors.calls": get("graphbuild.neighbors", "calls"),
        "graphbuild.neighbors.self_s": get("graphbuild.neighbors", "self_s"),
        "graphbuild.build.vertices_per_s": ratio(
            sum(get(b, "vertices") for b in builds),
            sum(get(b, "s") for b in builds)),
        "hrho.build_group.elements_per_s": ratio(
            sum(sp["notes"]["elements"] for sp in groups),
            sum(sp["end"] - sp["start"] for sp in groups)),
        "decomp.verify_decomposition.self_s":
            get("decomp.verify_decomposition", "self_s"),
        "decomp.copies": get("decomp.verify_decomposition", "copies"),
        "autnr.candidates_kept_ratio": ratio(
            get("autnr.synth_point_kind", "kept"),
            counts_under(tracer.spans, tracer.counts,
                         "autnr.synth_point_kind", "autnr.transvection_table")),
        "homog.orbit_arcs": get("homog.check_H_property", "orbit_arcs"),
        "homog.extend_partial.nodes": get("homog.extend_partial", "nodes"),
        "parallel.pmap.items": get("parallel.pmap", "items"),
        "cli.cmd_build.self_s": get("cli.cmd_build", "self_s"),
        "cli.output_bytes": sum(n for (_, name), n in tracer.counts.items()
                                if name == "cli.output_bytes"),
        "report.acceptance_report.self_s":
            get("report.acceptance_report", "self_s"),
        "trace.spans": len(tracer.spans),
    }
    m.update(hit_ratios)
    for name, _, _ in LAYER_METRICS:
        if name not in m and name.endswith(".s"):
            m[name] = get(name[:-2], "s")
    return m
