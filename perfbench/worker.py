"""One fresh benchmark process: set up srlab, run timed work, write a result file.

run.py starts this script once per sample, so that srlab's module-global
engine tables and caches start cold and ``ru_maxrss`` is this process's
own peak.  Untraced: whole passes (verify) or a stretch of the query
stream (query-mix) until the time budget is used.  Traced: untraced
passes for half the budget, then traced passes of the same work; the
per-layer numbers are per traced pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_passes(wl, rec: workloads.Recorder, budget: float) -> list[dict]:
    """Whole passes, at least one; another starts only if it should fit in ``budget``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass(rec))
        if time.perf_counter() - t0 + passes[-1]["seconds"] > budget:
            return passes


def run_stream(wl, rec: workloads.Recorder, budget: float, start: int,
               min_ops: int) -> tuple[int, dict[int, str]]:
    """Queries start, start+1, ... until ``budget`` is used.

    Returns the next index and the output digests of the queries that
    fall in the first pass (indices below PASS_QUERIES).
    """
    i = start
    digests = {}
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < budget or i - start < min_ops:
        digest = wl.run_query(i, rec)
        if i < workloads.PASS_QUERIES:
            digests[i] = digest
        i += 1
    return i, digests


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out_path = Path(args.out)
    wl = workloads.create(args.workload, args.seed, out_path.parent)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    table_build_s = wl.setup()
    setup_s = time.perf_counter() - t0
    import srlab
    if not Path(srlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"srlab imported from {srlab.__file__}, not from this checkout")

    rec = workloads.Recorder()
    result = {"setup_s": setup_s, "table_build_s": table_build_s}
    t_timed = time.perf_counter()
    if args.trace:
        plain = run_passes(wl, rec, args.budget / 2)
        tracer = spans.Tracer()
        probe = spans.CacheProbe(tracer)
        rec.on_clear = probe.sample
        installation = spans.install(tracer)
        try:
            traced = run_passes(wl, rec, args.budget / 2)
            probe.sample()
        finally:
            installation.uninstall()
            rec.on_clear = None
        layers = spans.layer_metrics(tracer, probe, len(traced))
        layers["engine.table_build_s"] = table_build_s
        untraced_s = statistics.median(p["seconds"] for p in plain)
        traced_s = statistics.median(p["seconds"] for p in traced)
        layers["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        tracer.write(out_path.with_suffix(".spans.json"))
        result.update(passes=plain + traced, layers=layers,
                      absent=installation.absent + probe.absent,
                      untraced_pass_s=untraced_s, traced_pass_s=traced_s)
    elif args.workload == "query-mix":
        result["next"], result["query_digests"] = run_stream(
            wl, rec, args.budget, args.start, args.min_ops)
        result["passes"] = []
    else:
        result["passes"] = run_passes(wl, rec, args.budget)
    result.update(
        timed_s=time.perf_counter() - t_timed,
        latencies=rec.latencies,
        attempted=rec.attempted,
        failed=rec.failed,
        errors=rec.errors,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    out_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
