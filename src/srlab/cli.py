"""Command-line entry point.

Exit codes: 0 success / predicate true, 1 predicate false (with a reason
line), 2 usage or parse error, 3 internal invariant breach.  Predicate
subcommands encode their boolean in the exit code for shell pipelines;
``--json`` switches every payload to a canonical JSON form tagged
``"schema": "sr-lab/1"``.

The argparse tree is built once per process, on the first ``main``
call, and reused: parsing leaves the parser unchanged and returns a
fresh namespace each time, so no option carries over from one call to
the next.  A one-shot ``srlab`` process still builds it once; callers
that run many queries through ``main`` in one process build it once in
all.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from ._engine import EngineError
from .betti import betti_json, check_ndp, hochster_betti, render_betti, FULL_LINEARITY
from .complexes import (
    Complex,
    ParseError,
    alexander_dual,
    complex_info,
    link,
    parse_complex,
    render_complex,
)
from .criteria import (
    cm_t,
    is_buchsbaum,
    property_report,
    reisner_cm,
    satisfies_serre,
    singularity_dimension_lt,
)
from .fixtures import fixture_names, fixture_text
from .graphs import chord_condition, induced_cycles, is_chordal, is_cycle_graph, parse_graph
from .harness import HarnessError, verify_theorem
from .homology import FieldSpec, reduced_homology

SCHEMA = "sr-lab/1"


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_complex(path: str) -> Complex:
    return parse_complex(_read(path))


def _field(args) -> FieldSpec:
    return FieldSpec.parse(getattr(args, "field", "2") or "2")


# ---------------------------------------------------------------------------
# subcommand handlers (return exit codes)


def _cmd_info(args) -> int:
    info = complex_info(_load_complex(args.file))
    if args.json:
        obj = {
            "schema": SCHEMA,
            "n": info.n,
            "kind": info.kind,
            "dim": "void" if info.dim is None else info.dim,
            "d": info.d,
            "pure": info.pure,
            "f_vector": list(info.f_vector),
            "h_vector": list(info.h_vector),
            "vertex_cover": info.vertex_cover,
        }
        print(_jdump(obj))
    else:
        dim = "void" if info.dim is None else info.dim
        print(f"n: {info.n}")
        print(f"kind: {info.kind}")
        print(f"dim: {dim} (d = {info.d})")
        print(f"pure: {info.pure}")
        print(f"f-vector (f_-1..f_dim): {list(info.f_vector)}")
        print(f"h-vector (h_0..h_d): {list(info.h_vector)}")
        print(f"vertex cover: {info.vertex_cover}")
    return 0


def _cmd_dual(args) -> int:
    dual = alexander_dual(_load_complex(args.file))
    if args.json:
        print(_jdump({"schema": SCHEMA, "n": dual.n, "kind": dual.kind,
                      "facets": [list(f) for f in dual.facets()]}))
    elif dual.is_void:
        print("# void complex (dual of the full simplex)")
    else:
        sys.stdout.write(render_complex(dual))
    return 0


def _cmd_link(args) -> int:
    c = _load_complex(args.file)
    try:
        face = tuple(int(t) for t in args.face.split())
    except ValueError:
        raise ParseError(f"bad face spec {args.face!r}") from None
    lk = link(c, face)
    if args.json:
        print(_jdump({"schema": SCHEMA, "n": lk.complex.n, "kind": lk.complex.kind,
                      "facets": [list(f) for f in lk.complex.facets()],
                      "old_labels": list(lk.old_labels)}))
    else:
        sys.stdout.write(render_complex(lk.complex))
        mapping = " ".join(f"{i + 1}->{v}" for i, v in enumerate(lk.old_labels))
        print(f"# labels (new->original): {mapping}")
    return 0


def _cmd_homology(args) -> int:
    hv = reduced_homology(_load_complex(args.file), _field(args))
    if args.json:
        print(_jdump({"schema": SCHEMA, "field": str(_field(args)),
                      "dims": {str(i): v for i, v in hv.as_dict().items()}}))
    else:
        for i, v in hv.as_dict().items():
            print(f"H~_{i} = {v}")
    return 0


def _cmd_betti(args) -> int:
    subject = "ring" if args.ring else "ideal"
    t = hochster_betti(_load_complex(args.file), _field(args), subject)
    if args.json:
        print(_jdump(betti_json(t)))
    else:
        print(f"Betti table of the {subject} over {t.field} (n = {t.n}):")
        sys.stdout.write(render_betti(t))
    return 0


def _cmd_check(args) -> int:
    c = _load_complex(args.file)
    k = _field(args)
    if args.report:
        rep = property_report(c, k)
        if args.json:
            print(_jdump(rep.as_json()))
        else:
            for key, val in rep.as_json().items():
                if key != "schema":
                    print(f"{key}: {val}")
        return 0
    if args.cm:
        name, value = "CM", reisner_cm(c, k)
    elif args.cmt is not None:
        name, value = f"CM_{args.cmt}", cm_t(c, args.cmt, k)
    elif args.serre is not None:
        name, value = f"S_{args.serre}", satisfies_serre(c, args.serre, k)
    elif args.buchsbaum:
        name, value = "Buchsbaum", is_buchsbaum(c, k)
    elif args.sing_dim is not None:
        name, value = f"singularity dim < {args.sing_dim}", singularity_dimension_lt(c, args.sing_dim, k)
    else:
        d, p = args.ndp
        tbl = hochster_betti(c, k, "ideal")
        pval = FULL_LINEARITY if p in ("inf", "full") else int(p)
        name, value = f"N_({d},{p})", check_ndp(tbl, int(d), pval)
    if args.json:
        print(_jdump({"schema": SCHEMA, "check": name, "field": str(k), "value": value}))
    else:
        print(f"{name}: {str(value).lower()}")
    return 0 if value else 1


def _cmd_graph(args) -> int:
    g = parse_graph(_read(args.file))
    if args.gcmd == "cycles":
        rep = induced_cycles(g, max(4, g.n) if args.max_len is None else args.max_len)
        if args.json:
            print(_jdump({"schema": SCHEMA, "searched_max_length": rep.searched_max_length,
                          "cycles": [list(c) for c in rep.cycles]}))
        else:
            for cyc in rep.cycles:
                print(" ".join(map(str, cyc)))
            print(f"# {len(rep.cycles)} chordless cycle(s) up to length {rep.searched_max_length}")
        return 0
    if args.gcmd == "chordal":
        if args.r is not None:
            name, value = f"chord condition up to {args.r}", chord_condition(g, args.r)
        else:
            name, value = "chordal", is_chordal(g)
    else:
        name, value = "single cycle", is_cycle_graph(g)
    if args.json:
        print(_jdump({"schema": SCHEMA, "check": name, "value": value}))
    else:
        print(f"{name}: {str(value).lower()}")
    return 0 if value else 1


def _cmd_verify(args) -> int:
    result = verify_theorem(
        args.id,
        field=_field(args),
        max_n=args.n,
        sample=args.sample,
        seed=args.seed,
        cap=args.cap,
    )
    if args.json:
        print(result.to_json(include_elapsed=args.elapsed))
    else:
        status = "OK" if result.ok() else f"{len(result.counterexamples)} COUNTEREXAMPLE(S)"
        if result.truncated:
            status += " shown, more past --cap"
        print(f"{result.theorem_id}: {result.instances_checked} instances checked "
              f"({result.mode}, {result.field}) in {result.elapsed_s}s -> {status}")
        for cx in result.counterexamples:
            inst = cx.get("facets") or cx.get("edges")
            print(f"  n={cx['n']} {inst}: {'; '.join(cx['clauses'])}")
    return 0 if result.ok() else 1


def _cmd_fixtures(args) -> int:
    if args.list or args.name is None:
        for name in fixture_names():
            print(name)
        return 0
    try:
        sys.stdout.write(fixture_text(args.name))
    except KeyError as exc:
        raise HarnessError(str(exc)) from None
    return 0


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="srlab",
        description="Exact Stanley-Reisner toolkit: homology, Betti tables, "
                    "CM_t / Serre criteria, chordality, theorem verification.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(p, field=True):
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        if field:
            p.add_argument("--field", default="2", metavar="K",
                           help="coefficient field: a prime (2, 3, 5, ...) or q for the rationals")

    p = sub.add_parser("info", help="dimension, purity, f- and h-vectors")
    p.add_argument("file")
    add_common(p, field=False)

    p = sub.add_parser("dual", help="Alexander dual in facet-list form")
    p.add_argument("file")
    add_common(p, field=False)

    p = sub.add_parser("link", help="link of a face, with the relabeling map")
    p.add_argument("file")
    p.add_argument("--face", required=True, metavar="'1 2'")
    add_common(p, field=False)

    p = sub.add_parser("homology", help="reduced homology dimensions")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("betti", help="graded Betti table via Hochster's formula")
    p.add_argument("file")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--ideal", action="store_true", default=True)
    grp.add_argument("--ring", action="store_true")
    add_common(p)

    p = sub.add_parser("check", help="ring-theoretic predicates (exit code = truth)")
    p.add_argument("file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--cm", action="store_true")
    grp.add_argument("--cmt", type=int, metavar="T")
    grp.add_argument("--serre", type=int, metavar="R")
    grp.add_argument("--buchsbaum", action="store_true")
    grp.add_argument("--ndp", nargs=2, metavar=("D", "P"))
    grp.add_argument("--sing-dim", type=int, metavar="M")
    grp.add_argument("--report", action="store_true")
    add_common(p)

    p = sub.add_parser("graph", help="chordless cycles and chordality")
    p.add_argument("gcmd", choices=["cycles", "chordal", "is-cycle"])
    p.add_argument("file")
    p.add_argument("--max-len", type=int, metavar="L")
    p.add_argument("-r", type=int, metavar="R",
                   help="check 'every cycle of length <= R has a chord'")
    add_common(p, field=False)

    p = sub.add_parser("verify", help="machine-verify a theorem id over its spaces")
    p.add_argument("id", metavar="ID",
                   help="a registered theorem id; an unknown id is refused "
                        "with the ids registered at that moment")
    p.add_argument("--n", type=int, help="cap the ambient size of the default spaces")
    p.add_argument("--sample", type=int, metavar="COUNT",
                   help="replace exhaustive spaces by seeded samples")
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int, default=64, help="max stored counterexamples")
    p.add_argument("--elapsed", action="store_true",
                   help="include wall time in JSON (off for byte-reproducibility)")
    add_common(p)

    p = sub.add_parser("fixtures", help="print a bundled fixture")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    add_common(p, field=False)
    return ap


_HANDLERS = {
    "info": _cmd_info,
    "dual": _cmd_dual,
    "link": _cmd_link,
    "homology": _cmd_homology,
    "betti": _cmd_betti,
    "check": _cmd_check,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
    "fixtures": _cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.cmd](args)
    except (ParseError, HarnessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, AssertionError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
