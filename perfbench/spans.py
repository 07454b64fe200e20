"""Outside-in layer tracing: timing wrappers rebound over srlab's public names.

The tracer replaces a function object wherever an srlab module binds it
(the calling modules, and the defining module for calls made through
module globals), and wraps ``Codim2Engine`` methods and the registered
theorem checkers.  Each call becomes a span with a name, start, end and
parent span.  Aggregates (calls, total time, self time = span minus its
child spans, work counts, parent->child call counts) cover every span;
raw spans are kept in memory up to ``SPAN_CAP`` and written out when the
run ends.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

SPAN_CAP = 200_000

# (span name, module, attribute); "Class.method" wraps a method on the class
FUNCTIONS = [
    ("harness.verify_theorem", "srlab.harness", "verify_theorem"),
    ("engine.analyze_full", "srlab._engine", "Codim2Engine.analyze_full"),
    ("engine.link_digest", "srlab._engine", "Codim2Engine.link_digest"),
    ("engine.ndp_threshold", "srlab._engine", "Codim2Engine.ndp_threshold"),
    ("engine.linearity_data", "srlab._engine", "Codim2Engine.linearity_data"),
    ("engine.projdim_at_most_3", "srlab._engine", "Codim2Engine._projdim_at_most_3"),
    ("engine.clauses", "srlab._engine", "Codim2Engine.topin_clauses"),
    ("engine.clauses", "srlab._engine", "Codim2Engine.chardepth_clauses"),
    ("engine.clauses", "srlab._engine", "Codim2Engine.main2_clauses"),
    ("engine.clauses", "srlab._engine", "Codim2Engine.corlinear_clauses"),
    ("engine.clauses", "srlab._engine", "Codim2Engine.froberg_clauses"),
    ("engine.clauses", "srlab._engine", "PureSpaceEngine.corbk_clauses"),
    ("engine.flag_dims", "srlab._engine", "flag_dims"),
    ("engine.chordless_span_adj", "srlab._engine", "chordless_span_adj"),
    ("homology.rank_gf2_columns", "srlab.homology", "rank_gf2_columns"),
    ("homology.dims_over_field", "srlab.homology", "dims_over_field"),
    ("homology.dims_cached", "srlab.homology", "dims_cached"),
    ("criteria.link_profile", "srlab.criteria", "link_profile"),
    ("betti.hochster_betti", "srlab.betti", "hochster_betti"),
    ("complexes.alexander_dual", "srlab.complexes", "alexander_dual"),
    ("graphs.clique_complex", "srlab.graphs", "clique_complex"),
    ("cli.build_parser", "srlab.cli", "build_parser"),
    ("cli.main", "srlab.cli", "main"),
] + [
    ("criteria.predicates", "srlab.criteria", name)
    for name in ("reisner_cm", "cm_t", "min_cm_t", "is_buchsbaum", "satisfies_serre",
                 "max_serre", "singularity_dimension_lt", "min_singularity_bound",
                 "ext_dim_profile", "property_report")
] + [
    ("graphs.chordless", "srlab.graphs", name)
    for name in ("chord_condition", "chordless_span", "induced_cycles", "is_chordal", "r_chordal")
]

# work counted per call, besides the call itself
WORK = {
    "homology.rank_gf2_columns": lambda args: len(args[0]),        # columns eliminated
    "betti.hochster_betti": lambda args: (1 << args[0].n) - 1,      # restrictions summed
}


def _field_name(args) -> str:
    key = args[1].key
    return "gf2" if key == 2 else "qq" if key == 0 else "modp"


class Tracer:
    """Span recorder; ``wrap`` makes the timing wrappers."""

    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.t0 = time.perf_counter()
        self.stack: list[list] = []          # frames: [child seconds, name, span index]
        self.stats: dict[str, list] = {}     # name -> [calls, total s, self s, work]
        self.pairs: dict[tuple[str, str], int] = {}
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.spans_total = 0

    def _stat(self, name: str) -> list:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return st

    def wrap(self, name: str, fn):
        fixed = name != "homology.dims_over_field"
        if fixed:
            self._stat(name)
        work = WORK.get(name)
        stack, stats, pairs, name_ids = self.stack, self.stats, self.pairs, self.name_ids
        sname, sstart, send, sparent = self.span_name, self.span_start, self.span_end, self.span_parent
        cap = self.cap
        now = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = name if fixed else f"{name}.{_field_name(args)}"
            st = stats.get(span) or tracer._stat(span)
            if stack:
                parent = stack[-1]
                key = (parent[1], span)
                pairs[key] = pairs.get(key, 0) + 1
                pidx = parent[2]
            else:
                pidx = -1
            tracer.spans_total += 1
            idx = len(sstart)
            if idx < cap:
                sname.append(name_ids[span])
                sparent.append(pidx)
                send.append(0.0)
            else:
                idx = -1
            frame = [0.0, span, idx]
            stack.append(frame)
            t0 = now()
            if idx >= 0:
                sstart.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if work is not None:
                    st[3] += work(args)
                if stack:
                    stack[-1][0] += d
                if idx >= 0:
                    send[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0

    def write(self, path) -> None:
        """Recorded spans as [name index, start us, end us, parent index]."""
        t0 = self.t0
        spans = [
            [self.span_name[i], round((self.span_start[i] - t0) * 1e6),
             round((self.span_end[i] - t0) * 1e6), self.span_parent[i]]
            for i in range(len(self.span_start))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans_total": self.spans_total,
                       "spans_recorded": len(spans), "spans": spans}, fh)


class Installation:
    """The rebindings made by ``install``; ``uninstall`` reverts them."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.harness = None
        self.checkers: dict = {}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()
        if self.harness is not None:
            for tid, td in self.checkers.items():
                self.harness.register_theorem(tid, td.kind, td.checker, td.engine_hook)
            self.checkers.clear()


def _srlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "srlab" or name.startswith("srlab."))]


def install(tracer: Tracer) -> Installation:
    """Rebind every traced srlab name to a timing wrapper."""
    inst = Installation()
    modules = _srlab_modules()
    for span, modname, attr in FUNCTIONS:
        mod = sys.modules.get(modname)
        if mod is None:
            continue  # never imported by this workload, so never called
        owner, _, meth = attr.rpartition(".")
        target = getattr(mod, owner, None) if owner else mod
        original = getattr(target, meth, None) if target is not None else None
        if original is None:
            inst.absent.append(f"{modname}.{attr}")
            continue
        wrapper = tracer.wrap(span, original)
        if owner:
            inst.undo.append((target, meth, original))
            setattr(target, meth, wrapper)
            continue
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    inst.undo.append((m, name, original))
                    setattr(m, name, wrapper)
    harness = sys.modules.get("srlab.harness")
    if harness is not None:
        inst.harness = harness
        for tid, td in list(harness.THEOREMS.items()):
            inst.checkers[tid] = td
            harness.register_theorem(tid, td.kind, tracer.wrap("harness.checker", td.checker),
                                     td.engine_hook)
    return inst


class CacheProbe:
    """Entries and refused insertions of srlab's two module-global caches.

    ``sample`` runs just before every cache clear and once at the end: a
    miss that did not become an entry since the last clear was refused
    at the cache's size limit.  The first call only sets the baseline,
    since the caches may hold entries made before tracing began.
    """

    CACHES = {
        # metric prefix: (module, private cache dict, miss edge (parent span, child span))
        "homology.cache": ("srlab.homology", "_CACHE", ("homology.dims_cached", "homology.dims_over_field.")),
        "criteria.profile_cache": ("srlab.criteria", "_PROFILE_CACHE", ("criteria.link_profile", "homology.dims_cached")),
    }

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.peak = {k: 0 for k in self.CACHES}
        self.refused = {k: 0 for k in self.CACHES}
        self.last_misses = {k: 0 for k in self.CACHES}
        self.absent: list[str] = []
        self.started = False

    def misses(self, edge: tuple[str, str]) -> int:
        parent, child = edge
        return sum(v for (p, c), v in self.tracer.pairs.items()
                   if p == parent and (c == child or child.endswith(".") and c.startswith(child)))

    def sample(self) -> None:
        for key, (modname, attr, edge) in self.CACHES.items():
            cache = getattr(sys.modules.get(modname), attr, None)
            if cache is None:
                if f"{modname}.{attr}" not in self.absent:
                    self.absent.append(f"{modname}.{attr}")
                continue
            misses = self.misses(edge)
            if self.started:
                self.refused[key] += misses - self.last_misses[key] - len(cache)
                self.peak[key] = max(self.peak[key], len(cache))
            self.last_misses[key] = misses
        self.started = True


def layer_metrics(tracer: Tracer, probe: CacheProbe, passes: int) -> dict[str, float]:
    """Per-layer numbers per pass, named as in BENCHMARK.json."""
    stats = tracer.stats

    def calls(name):
        return stats.get(name, [0])[0] / passes

    def self_s(*names):
        return sum(stats[n][2] for n in names if n in stats) / passes

    def work(name):
        return stats.get(name, [0, 0, 0, 0])[3] / passes

    def ratio(hits, total):
        return hits / total if total else 0.0

    out: dict[str, float] = {}
    for short in ("analyze_full", "flag_dims", "ndp_threshold", "chordless_span_adj",
                  "link_digest", "projdim_at_most_3", "linearity_data"):
        out[f"engine.{short}.calls"] = calls(f"engine.{short}")
        out[f"engine.{short}.self_s"] = self_s(f"engine.{short}")
    out["engine.clauses.self_s"] = self_s("engine.clauses")
    out["homology.rank_gf2_columns.calls"] = calls("homology.rank_gf2_columns")
    out["homology.rank_gf2_columns.cols"] = work("homology.rank_gf2_columns")
    out["homology.rank_gf2_columns.self_s"] = self_s("homology.rank_gf2_columns")
    for f in ("gf2", "modp", "qq"):
        out[f"homology.dims_over_field.{f}.calls"] = calls(f"homology.dims_over_field.{f}")
        out[f"homology.dims_over_field.{f}.self_s"] = self_s(f"homology.dims_over_field.{f}")
    dc = tracer.count("homology.dims_cached")
    out["homology.dims_cached.calls"] = dc / passes
    out["homology.dims_cached.hit_ratio"] = ratio(dc - probe.misses(probe.CACHES["homology.cache"][2]), dc)
    out["homology.cache_entries"] = probe.peak["homology.cache"]
    out["homology.cache_refused"] = probe.refused["homology.cache"] / passes
    lp = tracer.count("criteria.link_profile")
    out["criteria.link_profile.calls"] = lp / passes
    out["criteria.link_profile.hit_ratio"] = ratio(lp - probe.misses(probe.CACHES["criteria.profile_cache"][2]), lp)
    out["criteria.link_profile.self_s"] = self_s("criteria.link_profile")
    out["criteria.profile_cache_entries"] = probe.peak["criteria.profile_cache"]
    out["criteria.profile_cache_refused"] = probe.refused["criteria.profile_cache"] / passes
    out["criteria.predicates.self_s"] = self_s("criteria.predicates")
    out["betti.hochster_betti.calls"] = calls("betti.hochster_betti")
    out["betti.hochster_betti.restrictions"] = work("betti.hochster_betti")
    out["betti.hochster_betti.self_s"] = self_s("betti.hochster_betti")
    for name in ("complexes.alexander_dual", "graphs.chordless", "graphs.clique_complex"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["harness.self_s"] = self_s("harness.verify_theorem", "harness.checker")
    out["harness.engine_instances"] = calls("engine.clauses")
    out["harness.generic_instances"] = calls("harness.checker")
    out["cli.build_parser.self_s"] = self_s("cli.build_parser")
    out["cli.main.self_s"] = self_s("cli.main")
    out["trace.spans"] = tracer.spans_total / passes
    return out
