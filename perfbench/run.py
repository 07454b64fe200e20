"""srlab benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; srlab is imported from ./src.
Workloads and metric names are listed in BENCHMARK.json; see
perfbench/README.md for what each one measures and why.

The load is a closed loop: one client, one process, no threads.  With
``--trace 0`` three fresh worker processes run one after another, each
setting up srlab from cold and then spending an equal share of what is
left of ``--seconds`` on timed work.  A verify pass is never cut and
every worker runs at least one, so verify-engine (about 15 s a pass)
measures three passes whatever ``--seconds`` says.  Set-up time and
peak RSS are medians over the three workers.
With ``--trace 1`` one worker runs the same work untraced and then
traced, and the per-layer numbers come from the traced part.  Every
operation's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details
(digests, samples, provenance, spans) go to .perfbench-work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
WORKERS = 3          # fresh processes per untraced run
DEADLINE_S = 170     # the whole run, workers included


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(args, budget: float, tag: str, deadline: float, start: int = 0,
               min_ops: int = 0) -> dict:
    out = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget), "--trace", str(args.trace),
           "--start", str(start), "--min-ops", str(min_ops), "--out", str(out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run deadline passed before all workers ran")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def check_digests(results: list[dict], report: dict) -> int:
    """Passes (or query-stream prefixes) whose outputs differ from the first; 0 if all agree."""
    passes = [p for r in results for p in r["passes"]]
    mismatched = sum(p["digests"] != passes[0]["digests"] for p in passes)
    digests = dict(passes[0]["digests"]) if passes else {}
    if not passes:
        merged = {}
        for r in results:
            merged.update({int(i): d for i, d in r.get("query_digests", {}).items()})
        digests["queries"] = hashlib.sha256(
            "".join(merged[i] for i in sorted(merged)).encode()).hexdigest()
    report["digests"] = digests
    report["digest"] = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    return mismatched


def end_to_end(name: str, results: list[dict]) -> tuple[dict[str, float], int]:
    """The end-to-end metrics and the number of latency samples behind the percentiles."""
    latencies = [x for r in results for x in r["latencies"]]
    if name == "query-mix":
        rate = len(latencies) / sum(latencies)
        instances_per_s = queries_per_s = rate
    else:
        # totals and means over every pass of the run: the host's speed drifts
        # over seconds to minutes, and a mean over the whole run follows that
        # drift less than a median over a few passes does
        passes = [p for r in results for p in r["passes"] if p["latencies"]]
        seconds = sum(p["seconds"] for p in passes)
        instances_per_s = sum(p["instances"] for p in passes) / seconds
        queries_per_s = sum(p["calls"] for p in passes) / seconds
        # one sample per theorem id: its mean call time over the passes
        tids = {tid: None for p in passes for tid in p["latencies"]}
        latencies = [statistics.mean(p["latencies"][tid] for p in passes if tid in p["latencies"])
                     for tid in tids]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "instances_per_s": instances_per_s,
        "queries_per_s": queries_per_s,
        "query_p50_ms": 1e3 * percentile(latencies, 0.50),
        "query_p99_ms": 1e3 * percentile(latencies, 0.99),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results) / 1024,
    }, len(latencies)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "srlab" / "__init__.py").is_file():
        print(f"error: no srlab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    WORK_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            results = [run_worker(args, args.seconds, "traced", deadline)]
        else:
            results, start = [], 0
            for k in range(WORKERS):
                left = args.seconds - sum(r["timed_s"] for r in results)
                budget = max(0.0, left) / (WORKERS - k)
                done = sum(len(r["latencies"]) for r in results)
                min_ops = max(0, workloads.PASS_QUERIES - done) if k == WORKERS - 1 else 0
                results.append(run_worker(args, budget, f"w{k}", deadline, start, min_ops))
                start = results[-1].get("next", 0)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu": cpu_model(),
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    mismatched = check_digests(results, report)
    errors = [e for r in results for e in r["errors"]]
    if mismatched:
        errors.append(f"{mismatched} pass(es) gave outputs that differ from the first pass")
    if not any(r["latencies"] for r in results):
        print("error: every operation failed:\n" + "\n".join(errors), file=sys.stderr)
        return 1
    if args.trace:
        values, samples = results[0]["layers"], len(results[0]["latencies"])
    else:
        values, samples = end_to_end(args.workload, results)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report.update(
        metrics=metrics, attempted=attempted, failed=failed, errors=errors,
        error_ratio=failed / attempted if attempted else 1.0,
        samples=samples,
        passes=sum(len(r["passes"]) for r in results),
        setup_samples_s=[r["setup_s"] for r in results],
        table_build_s=[r["table_build_s"] for r in results],
        absent=results[0].get("absent", []),
    )
    report_path = WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: python {report['python']}, "
          f"nproc {report['nproc']}, cpu {report['cpu']}")
    print(f"operations {attempted}, failed {failed}, error_ratio {report['error_ratio']}; "
          f"{report['samples']} latency samples, {report['passes']} passes")
    print(f"set-up samples (s): {report['setup_samples_s']}")
    for p in [p for r in results for p in r["passes"]][:1]:
        print(f"instances per pass: {p['instances']} (independent count {p['expected']})")
    for key, digest in report["digests"].items():
        print(f"digest {key}: {digest}")
    if report["absent"]:
        print(f"not traced (name absent in srlab): {', '.join(report['absent'])}")
    for e in errors:
        print(f"FAILED: {e}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"details: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and not mismatched and attempted > 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
