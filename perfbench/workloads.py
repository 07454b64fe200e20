"""The three workloads: inputs made from the seed, one timed operation, its checks.

An operation is one ``verify_theorem`` call (one theorem id over its
workload spaces, the unit whose sum is the acceptance gate) or one CLI
query through ``srlab.cli.main``.  Every operation is checked against
``oracle``; a failed check, a non-zero exit or an exception counts as a
failed operation.  srlab is imported only by ``setup``, so that its
import time counts as set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

import oracle

now = time.perf_counter

#: covered codim-2 complexes sampled at n=7 per pass in verify-engine
N7_COMPLEX_SAMPLE = 3000
#: queries in one query-mix pass; also the least number a timed run makes
PASS_QUERIES = 1000

ENGINE_THEOREMS = ("thm-topin", "prop-chardepth", "thm-main2", "cor-linear", "froberg")
GENERIC_THEOREMS = ("thm-er", "thm-main", "cor-yan", "yanagawa-bridge", "remark-serre",
                    "subadd", "ext-profile")
QUERY_KINDS = ("info", "dual", "graph-cycles") + tuple(
    f"{cmd}/{k}" for cmd in ("homology", "betti", "check") for k in ("2", "3", "q"))
COMPLEX_SIZES = (6, 7, 8)
FACET_COUNTS = (3, 4, 5, 6, 7)  # facets drawn; duplicates and absorbed ones drop out
INPUT = "<input file>"  # stands for the query's input path in its argv


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Recorder:
    """Outcomes of the operations one process ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.on_clear = None  # called before caches are cleared (trace mode)

    def record(self, seconds: float | None, error: str | None) -> None:
        self.attempted += 1
        if seconds is not None:
            self.latencies.append(seconds)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


class Workload:
    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def _import_caches(self):
        from srlab import criteria, homology
        self._clear_fns = (homology.clear_homology_cache, criteria.clear_profile_cache)

    def clear_caches(self, rec: Recorder) -> None:
        if rec.on_clear is not None:
            rec.on_clear()
        for fn in self._clear_fns:
            fn()


class VerifyWorkload(Workload):
    """One pass = one verify call per theorem id, caches cleared at its start."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.name = name
        self.theorems = ENGINE_THEOREMS if name == "verify-engine" else GENERIC_THEOREMS

    def spaces(self, tid: str, manifest_spaces: list[dict]) -> list[dict]:
        if self.name == "verify-generic":
            return manifest_spaces
        out = []
        for sp in manifest_spaces:
            if sp.get("n", 0) <= 6:
                out.append(sp)
            elif sp["d"] == "graphs":
                out.append(dict(sp, seed=self.seed))
        if tid in ("thm-topin", "prop-chardepth"):
            out.append({"n": 7, "d": 5, "mode": "sample", "count": N7_COMPLEX_SAMPLE,
                        "seed": self.seed, "cover": True})
        return out

    def setup(self) -> float:
        """Import, manifest, engine tables; returns the table build seconds."""
        import srlab.harness as harness
        from srlab import _engine
        self._import_caches()
        self.harness = harness
        manifest = harness.load_manifest()
        self.calls = []
        for tid in self.theorems:
            spaces = self.spaces(tid, [sp.to_json() for sp in manifest[tid]])
            self.calls.append((tid, spaces, sum(oracle.space_count(sp) for sp in spaces)))
        t0 = now()
        if self.name == "verify-engine":
            for n in range(3, 8):
                _engine.codim2_engine(n)
        return now() - t0

    def run_pass(self, rec: Recorder) -> dict:
        """Pass totals, with each theorem's call time and output digest."""
        SearchSpace = self.harness.SearchSpace
        self.clear_caches(rec)
        seconds = 0.0
        instances = 0
        digests = {}
        latencies = {}
        for tid, spaces, expected in self.calls:
            objs = [SearchSpace.from_json(sp) for sp in spaces]
            t0 = now()
            try:
                result = self.harness.verify_theorem(tid, objs)
            except Exception as exc:  # EngineError and any other breach count as failures
                rec.record(None, f"{tid}: {type(exc).__name__}: {exc}")
                continue
            dt = now() - t0
            seconds += dt
            instances += result.instances_checked
            latencies[tid] = dt
            digests[tid] = sha(result.to_json())
            error = None
            if result.counterexamples:
                error = f"{tid}: {len(result.counterexamples)} counterexample(s)"
            elif result.instances_checked != expected:
                error = f"{tid}: {result.instances_checked} instances checked, expected {expected}"
            rec.record(dt, error)
        return {"seconds": seconds, "instances": instances, "calls": len(self.calls),
                "expected": sum(c[2] for c in self.calls), "latencies": latencies,
                "digests": digests}


# ---------------------------------------------------------------------------
# query-mix


def make_query(seed: int, i: int) -> dict:
    """Query ``i`` of the seeded stream: its kind, argv and input.

    Every block of 180 queries holds each (kind, complex size n, facet
    count) triple once, in a seeded order, so that the mix, and the
    share of large complexes that drive the QQ tail, is the same in any
    window of the stream and for every seed.
    """
    strata = [(kind, n, k) for kind in QUERY_KINDS for n in COMPLEX_SIZES
              for k in FACET_COUNTS]
    block, pos = divmod(i, len(strata))
    random.Random(f"query-mix:{seed}:block:{block}").shuffle(strata)
    kind, n, k = strata[pos]
    rng = random.Random(f"query-mix:{seed}:query:{i}")
    if kind == "graph-cycles":
        n = rng.randint(8, 11)
        p = rng.uniform(0.2, 0.5)
        adj = [0] * n
        lines = [f"V: {n}"]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    lines.append(f"{u + 1} {v + 1}")
        return {"kind": kind, "argv": ["graph", "cycles", INPUT, "--json"], "n": n,
                "adj": adj, "text": "\n".join(lines) + "\n"}
    facets: set[tuple[int, ...]] = set()
    for _ in range(k):
        facets.add(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, 4)))))
    masks = [oracle.mask_of(f) for f in facets]
    masks = sorted(m for m in masks if not any(m != o and m & o == m for o in masks))
    text = f"V: {n}\n" + "".join(" ".join(map(str, f)) + "\n" for f in sorted(facets))
    cmd, _, field = kind.partition("/")
    args = [cmd, INPUT, "--json"]
    if field:
        args += ["--field", field]
    if cmd == "betti":
        args.append("--ring")
    if cmd == "check":
        args.append("--report")
    return {"kind": kind, "argv": args, "n": n, "facets": masks, "text": text}


class QueryWorkload(Workload):
    def setup(self) -> float:
        import srlab.cli as cli
        self._import_caches()
        self.cli = cli
        self.input_path = self.work_dir / f"query-input-{self.seed}.txt"
        return 0.0

    def run_query(self, i: int, rec: Recorder) -> str:
        """Runs query ``i``; returns the digest of its output."""
        q = make_query(self.seed, i)
        self.input_path.write_text(q["text"], encoding="utf-8")
        argv = [str(self.input_path) if a == INPUT else a for a in q["argv"]]
        self.clear_caches(rec)
        out, err = io.StringIO(), io.StringIO()
        t0 = now()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rec.record(None, f"query {i} {' '.join(argv)}: {type(exc).__name__}: {exc}")
            return ""
        dt = now() - t0
        text = out.getvalue()
        error = None
        if rc != 0:
            error = f"exit {rc}: {err.getvalue().strip()}"
        else:
            try:
                payload = json.loads(text)
                if q["kind"] == "graph-cycles":
                    error = oracle.check_cycles(q["n"], q["adj"], payload)
                else:
                    error = oracle.check_complex_query(q["kind"].split("/")[0], q["n"],
                                                       q["facets"], payload)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        rec.record(dt, None if error is None else f"query {i} ({q['kind']}): {error}")
        return sha(text)

    def run_pass(self, rec: Recorder) -> dict:
        """Queries 0..PASS_QUERIES-1, the same in every pass."""
        seconds = 0.0
        digests = []
        for i in range(PASS_QUERIES):
            n = len(rec.latencies)
            digests.append(self.run_query(i, rec))
            seconds += sum(rec.latencies[n:])
        return {"seconds": seconds, "instances": PASS_QUERIES, "calls": PASS_QUERIES,
                "expected": PASS_QUERIES, "digests": {"queries": sha("".join(digests))}}


WORKLOADS = ("verify-engine", "verify-generic", "query-mix")


def create(name: str, seed: int, work_dir: Path) -> Workload:
    if name == "query-mix":
        return QueryWorkload(seed, work_dir)
    if name in WORKLOADS:
        return VerifyWorkload(name, seed, work_dir)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
