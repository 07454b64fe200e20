"""Machine verification of the theorem catalogue over desk-scale spaces.

Each registered theorem id pairs a clause checker with default search
spaces pinned in ``verify_manifest.json``.  Spaces enumerate labeled
instances in a fixed order; sampling is seeded and deduplicated.  Every
checker is invariant under relabeling the vertices, so an exhaustive
space of at most ``ORBIT_SLOT_LIMIT`` slots checks each S_n-orbit once,
on its least slot mask (``_engine.orbit_reps``), while every labeled
instance is still enumerated, counted and, when it fails, recorded on
its own mask.  Large exhaustive GF(2) runs are dispatched to the table
engine in ``_engine``; small spaces and non-GF(2) fields take the
generic route through the public modules.  Both routes are
cross-validated against each other in the test suite.  Expected
counterexample count for every registered id over its default spaces:
zero.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field as dfield
from importlib import resources
from math import comb
from typing import Callable, Iterator

from . import _engine
from ._bits import size_subsets
from .betti import (
    FULL_LINEARITY,
    check_er_shape,
    check_ndp,
    check_subadditivity,
    hochster_betti,
    homological_invariants,
)
from .complexes import (
    Complex,
    alexander_dual,
    barycentric_subdivision,
    skeleton_graph,
)
from .criteria import (
    cm_t,
    ext_dim_profile,
    is_buchsbaum,
    max_serre,
    min_cm_t,
    min_singularity_bound,
    reisner_cm,
    satisfies_serre,
    singularity_dimension_lt,
)
from .fixtures import fixture_complex
from .graphs import Graph, chord_condition, chordless_span, is_cycle_graph, clique_complex
from .homology import GF2, FieldSpec, reduced_homology

#: spaces at least this large (2^slots) go through the table engine
ENGINE_MIN_INSTANCES = 8192

EXHAUSTIVE_SLOT_LIMIT = 24  # exhaustive mode allowed only when slots <= this
ORBIT_SLOT_LIMIT = 21       # orbit tables (2^slots entries) up to n = 7 codim-2 and graphs
SAMPLE_ATTEMPT_FACTOR = 300


class HarnessError(ValueError):
    """Unknown theorem id or an out-of-bounds search space."""


# ---------------------------------------------------------------------------
# search spaces


@dataclass(frozen=True)
class SearchSpace:
    """One enumeration family: pure complexes (facet size d on [n]),
    graphs on [n], or a single named fixture.

    cover: for complexes, require every ambient vertex to be a face; for
    graphs, forbid isolated vertices.
    """

    n: int = 0
    d: int | str = 0            # facet size, or "graphs"
    mode: str = "exhaustive"    # "exhaustive" | "sample"
    count: int = 0
    seed: int | None = None
    cover: bool = True
    fixture: str | None = None

    @property
    def kind(self) -> str:
        if self.fixture is not None:
            return "fixture"
        return "graph" if self.d == "graphs" else "complex"

    @property
    def slot_size(self) -> int:
        """Vertices per slot: 2 for graph edges, d for facets."""
        return 2 if self.kind == "graph" else int(self.d)

    def slot_masks(self) -> list[int]:
        return size_subsets(self.n, self.slot_size)

    def slot_count(self) -> int:
        if self.kind == "fixture":
            return 0
        return comb(self.n, 2) if self.kind == "graph" else comb(self.n, int(self.d))

    def validate(self) -> None:
        if self.kind == "fixture":
            return
        if self.kind == "complex" and not (1 <= int(self.d) <= self.n):
            raise HarnessError(f"facet size {self.d} out of range for n={self.n}")
        if self.mode == "exhaustive" and self.slot_count() > EXHAUSTIVE_SLOT_LIMIT:
            raise HarnessError(
                f"exhaustive enumeration needs at most {EXHAUSTIVE_SLOT_LIMIT} "
                f"slots; space has {self.slot_count()}"
            )
        if self.mode == "sample":
            if self.seed is None or self.count <= 0:
                raise HarnessError("sample mode needs a seed and a positive count")
        elif self.mode != "exhaustive":
            raise HarnessError(f"unknown mode {self.mode!r}")

    def iter_masks(self, keep: Callable[[int], bool] | None = None) -> Iterator[int]:
        """Instance masks in enumeration order.

        ``keep`` is the instance filter (cover / no-isolated-vertices):
        exhaustive mode scans everything and skips rejects; sample mode
        keeps drawing until ``count`` distinct accepted masks have been
        produced (bounded by an attempt limit).
        """
        K = self.slot_count()
        if self.mode == "exhaustive":
            if keep is None:
                yield from range(1, 1 << K)
            else:
                for s in range(1, 1 << K):
                    if keep(s):
                        yield s
        else:
            rng = random.Random(self.seed)
            seen: set[int] = set()
            produced = 0
            attempts = 0
            limit = self.count * SAMPLE_ATTEMPT_FACTOR
            while produced < self.count and attempts < limit:
                attempts += 1
                s = rng.randrange(1, 1 << K)
                if s in seen:
                    continue
                seen.add(s)
                if keep is not None and not keep(s):
                    continue
                yield s
                produced += 1

    def to_json(self) -> dict:
        if self.kind == "fixture":
            return {"fixture": self.fixture}
        out: dict = {"n": self.n, "d": self.d, "mode": self.mode, "cover": self.cover}
        if self.mode == "sample":
            out["count"] = self.count
            out["seed"] = self.seed
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SearchSpace":
        if "fixture" in obj:
            return cls(fixture=obj["fixture"])
        return cls(
            n=obj["n"],
            d=obj["d"],
            mode=obj.get("mode", "exhaustive"),
            count=obj.get("count", 0),
            seed=obj.get("seed"),
            cover=obj.get("cover", True),
        )


def _mask_cover(slots: list[int], full: int) -> Callable[[int], bool]:
    def keep(s: int) -> bool:
        occ = 0
        while s:
            b = s & -s
            s ^= b
            occ |= slots[b.bit_length() - 1]
        return occ == full
    return keep


def _decoder(space: SearchSpace) -> Callable[[int], Complex | Graph]:
    """Instance mask -> Complex or Graph; a fixture space has one instance."""
    if space.kind == "fixture":
        c = fixture_complex(space.fixture)
        return lambda s: c
    n = space.n
    slots = space.slot_masks()
    if space.kind == "graph":
        def graph(s: int) -> Graph:
            adj = [0] * n
            while s:
                b = s & -s
                s ^= b
                pm = slots[b.bit_length() - 1]
                u = (pm & -pm).bit_length() - 1
                v = (pm ^ (pm & -pm)).bit_length() - 1
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            return Graph.from_adj(tuple(adj))
        return graph

    def pure_complex(s: int) -> Complex:
        masks = []
        while s:
            b = s & -s
            s ^= b
            masks.append(slots[b.bit_length() - 1])
        return Complex(n, tuple(masks), _trusted=True)
    return pure_complex


def _generic_keep(space: SearchSpace) -> Callable[[int], bool] | None:
    return _mask_cover(space.slot_masks(), (1 << space.n) - 1) if space.cover else None


def enumerate_pure_complexes(space: SearchSpace) -> Iterator[Complex]:
    """All (or sampled) nonempty facet sets of d-subsets of [n], in a
    fixed order, passing the cover filter."""
    space.validate()
    if space.kind != "complex":
        raise HarnessError("expected a pure-complex space")
    decode = _decoder(space)
    return (decode(s) for s in space.iter_masks(_generic_keep(space)))


def enumerate_graphs(space: SearchSpace) -> Iterator[Graph]:
    """All (or sampled) nonempty edge sets on [n]; cover = no isolated vertices."""
    space.validate()
    if space.kind != "graph":
        raise HarnessError("expected a graph space")
    decode = _decoder(space)
    return (decode(s) for s in space.iter_masks(_generic_keep(space)))


# ---------------------------------------------------------------------------
# generic clause checkers (instance -> list of violated-clause strings)


def _dim_ring(c: Complex) -> int:
    return 0 if c.dim is None else c.dim + 1


def _check_thm_er(c: Complex, field: FieldSpec) -> list[str]:
    dual = alexander_dual(c)
    tbl = hochster_betti(c, field, "ideal")
    dd = _dim_ring(dual)
    out = []
    for t in range(0, c.n + 1):
        lhs = cm_t(dual, t, field)
        rhs = check_er_shape(tbl, c.n, dd, t)
        if lhs != rhs:
            out.append(f"t={t}: CM_t(dual)={lhs} but diagram shape={rhs}")
    return out


def _check_thm_main(c: Complex, field: FieldSpec) -> list[str]:
    d = _dim_ring(c)
    dual = alexander_dual(c)
    if dual.is_void:
        return []
    dtbl = hochster_betti(dual, field, "ideal")
    out = []
    for t in range(0, d + 1):
        if cm_t(c, t, field) and not check_ndp(dtbl, c.n - d, 2 * d - c.n - t + 2):
            out.append(f"CM_{t} but dual ideal misses N({c.n - d},{2 * d - c.n - t + 2})")
    return out


def _check_cor_yan(c: Complex, field: FieldSpec) -> list[str]:
    d = _dim_ring(c)
    out = []
    for t in range(0, d + 1):
        if cm_t(c, t, field) and not satisfies_serre(c, 2 * d - c.n - t + 2, field):
            out.append(f"CM_{t} but S_{2 * d - c.n - t + 2} fails")
    if is_buchsbaum(c, field):
        depth = homological_invariants(hochster_betti(c, field, "ring")).depth
        # the Serre bound gives depth >= min(r, dim); the cap at d only
        # bites for the full simplex (codimension 0)
        bound = min(2 * d - c.n + 1, d)
        if depth < bound:
            out.append(f"Buchsbaum but depth {depth} < min(2d-n+1, d) = {bound}")
    return out


def _check_yanagawa(c: Complex, field: FieldSpec) -> list[str]:
    d = _dim_ring(c)
    dual = alexander_dual(c)
    if dual.is_void:
        return []
    dtbl = hochster_betti(dual, field, "ideal")
    out = []
    for r in range(2, d + 2):
        lhs = satisfies_serre(c, r, field)
        rhs = check_ndp(dtbl, c.n - d, r)
        if lhs != rhs:
            out.append(f"S_{r}={lhs} but N({c.n - d},{r})={rhs}")
    return out


def _check_remark_serre(c: Complex, field: FieldSpec) -> list[str]:
    d = _dim_ring(c)
    out = []
    for r in range(0, d + 2):
        if satisfies_serre(c, r, field) and c.is_pure and not cm_t(c, max(0, d - r), field):
            out.append(f"S_{r} holds but CM_{max(0, d - r)} fails")
    return out


def _check_subadd(c: Complex, field: FieldSpec) -> list[str]:
    out = []
    v = check_subadditivity(hochster_betti(c, field, "ideal"))
    if v:
        out.append(f"subadditivity violations on I_Delta: {v}")
    dual = alexander_dual(c)
    if not dual.is_void:
        v = check_subadditivity(hochster_betti(dual, field, "ideal"))
        if v:
            out.append(f"subadditivity violations on I_dual: {v}")
    return out


def _check_ext_profile(c: Complex, field: FieldSpec) -> list[str]:
    d = _dim_ring(c)
    prof = ext_dim_profile(c, field)
    out = []
    if prof.pure_via_ext() != c.is_pure:
        out.append("Ext purity characterization disagrees")
    if prof.dimext[d] != d:
        out.append(f"top Ext dimension {prof.dimext[d]} != d = {d}")
    for r in range(2, d + 2):
        if prof.serre_via_ext(r) != satisfies_serre(c, r, field):
            out.append(f"Ext S_{r} characterization disagrees")
    for m in range(-1, d + 1):
        if prof.singdim_lt_via_ext(m) != singularity_dimension_lt(c, m, field):
            out.append(f"Ext singularity-dim<{m} characterization disagrees")
    for t in range(0, d + 1):
        if prof.cmt_via_ext(t, c.is_pure) != cm_t(c, t, field):
            out.append(f"Ext CM_{t} characterization disagrees")
    return out


def _check_topin(c: Complex, field: FieldSpec) -> list[str]:
    d = _dim_ring(c)
    dual = alexander_dual(c)
    dtbl = hochster_betti(dual, field, "ideal")
    g = skeleton_graph(dual)
    out = []
    for t in range(0, d + 1):
        a = cm_t(c, t, field)
        b = check_ndp(dtbl, 2, d - t)
        s = satisfies_serre(c, d - t, field)
        r = d - t + 2
        ch = chord_condition(g, r) if r >= 3 else True
        if not (a == b == s == ch):
            out.append(f"t={t}: CM_t={a} N(2,{d - t})={b} S_{d - t}={s} chord<= {r}={ch}")
    return out


def _check_chardepth(c: Complex, field: FieldSpec) -> list[str]:
    if not is_buchsbaum(c, field):
        return []
    d = _dim_ring(c)
    out = []
    depth = homological_invariants(hochster_betti(c, field, "ring")).depth
    if depth < d - 1:
        out.append(f"Buchsbaum but depth {depth} < dim = {d - 1}")
    noncm = not reisner_cm(c, field)
    cyc = is_cycle_graph(skeleton_graph(alexander_dual(c)))
    if noncm != cyc:
        out.append(f"non-CM={noncm} but dual skeleton is-the-cycle={cyc}")
    return out


def _check_corbk(c: Complex, field: FieldSpec) -> list[str]:
    if not is_buchsbaum(c, field):
        return []
    d = _dim_ring(c)
    hv = reduced_homology(c, field)
    out = []
    for i in hv.nonzero_degrees():
        if i >= 1 and c.n < 2 * d - i:
            out.append(f"H_{i} != 0 but n = {c.n} < 2d - i = {2 * d - i}")
    return out


def _check_sd_invariance(c: Complex, field: FieldSpec) -> list[str]:
    sd = barycentric_subdivision(c)
    out = []
    a, b = min_cm_t(c, field), min_cm_t(sd, field)
    if a != b:
        out.append(f"min CM_t changes under subdivision: {a} vs {b}")
    a, b = max_serre(c, field), max_serre(sd, field)
    if a != b:
        out.append(f"max Serre changes under subdivision: {a} vs {b}")
    a, b = min_singularity_bound(c, field), min_singularity_bound(sd, field)
    if a != b:
        out.append(f"singularity bound changes under subdivision: {a} vs {b}")
    return out


def _check_main2(g: Graph, field: FieldSpec) -> list[str]:
    dual = alexander_dual(clique_complex(g))
    out = []
    for r in range(3, g.n + 1):
        lhs = cm_t(dual, g.n - r, field)
        rhs = chord_condition(g, r)
        if lhs != rhs:
            out.append(f"r={r}: CM_(n-r)(dual clique)={lhs} but chord condition={rhs}")
    return out


def _check_corlinear(g: Graph, field: FieldSpec) -> list[str]:
    cx = clique_complex(g)
    dual = alexander_dual(cx)
    if dual.is_void:
        return []
    tbl = hochster_betti(cx, field, "ideal")
    linear = check_ndp(tbl, 2, FULL_LINEARITY)
    _, hi = chordless_span(g.adj)
    out = []
    for r in range(3, g.n + 1):
        if hi > r:
            continue  # not r-chordal
        lhs = cm_t(dual, g.n - r, field)
        if lhs != linear:
            out.append(f"r={r} (r-chordal): CM_(n-r)={lhs} but linear resolution={linear}")
    return out


def _check_froberg(g: Graph, field: FieldSpec) -> list[str]:
    cx = clique_complex(g)
    tbl = hochster_betti(cx, field, "ideal")
    linear = check_ndp(tbl, 2, FULL_LINEARITY)
    lo, _ = chordless_span(g.adj)
    chordal = lo == 0
    if linear != chordal:
        return [f"linear resolution={linear} but chordal={chordal}"]
    return []


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class TheoremDef:
    theorem_id: str
    kind: str                                 # "complex" | "graph"
    checker: Callable[..., list[str]]
    engine_hook: str | None = None            # key into _ENGINE_HOOKS


THEOREMS: dict[str, TheoremDef] = {}


def register_theorem(theorem_id: str, kind: str, checker, engine_hook: str | None = None):
    """Register ``checker(instance, field) -> violated clauses`` under an id.

    The checker must be invariant under relabeling the vertices: whether
    it returns clauses may not change when the instance is permuted.  An
    exhaustive space checks each S_n-orbit once, on its representative;
    a recorded member that passes while its representative fails raises
    ``EngineError``.
    """
    THEOREMS[theorem_id] = TheoremDef(theorem_id, kind, checker, engine_hook)


register_theorem("thm-er", "complex", _check_thm_er)
register_theorem("thm-main", "complex", _check_thm_main)
register_theorem("cor-yan", "complex", _check_cor_yan)
register_theorem("yanagawa-bridge", "complex", _check_yanagawa)
register_theorem("remark-serre", "complex", _check_remark_serre)
register_theorem("subadd", "complex", _check_subadd)
register_theorem("ext-profile", "complex", _check_ext_profile)
register_theorem("thm-topin", "complex", _check_topin, engine_hook="topin")
register_theorem("prop-chardepth", "complex", _check_chardepth, engine_hook="chardepth")
register_theorem("cor-bk", "complex", _check_corbk, engine_hook="corbk")
register_theorem("sd-invariance", "complex", _check_sd_invariance)
register_theorem("thm-main2", "graph", _check_main2, engine_hook="main2")
register_theorem("cor-linear", "graph", _check_corlinear, engine_hook="corlinear")
register_theorem("froberg", "graph", _check_froberg, engine_hook="froberg")


# ---------------------------------------------------------------------------
# result type


@dataclass
class VerificationResult:
    theorem_id: str
    field: str
    spaces: list[dict]
    mode: str
    instances_checked: int
    counterexamples: list[dict]
    seed: int | None = None
    elapsed_s: float | None = None
    truncated: bool = False

    def ok(self) -> bool:
        """No instance failed, counting those dropped past the cap."""
        return not self.counterexamples and not self.truncated

    def to_json_obj(self, include_elapsed: bool = False) -> dict:
        obj = {
            "schema": "sr-lab/1",
            "theorem_id": self.theorem_id,
            "field": self.field,
            "spaces": self.spaces,
            "mode": self.mode,
            "instances_checked": self.instances_checked,
            "counterexamples": self.counterexamples,
            "counterexamples_truncated": self.truncated,
            "seed": self.seed,
        }
        if include_elapsed:
            obj["elapsed_s"] = self.elapsed_s
        return obj

    def to_json(self, include_elapsed: bool = False) -> str:
        return json.dumps(self.to_json_obj(include_elapsed), sort_keys=True,
                          separators=(",", ":"))


# ---------------------------------------------------------------------------
# manifest


def load_manifest() -> dict[str, list[SearchSpace]]:
    text = resources.files("srlab").joinpath("verify_manifest.json").read_text()
    raw = json.loads(text)
    return {tid: [SearchSpace.from_json(s) for s in spaces] for tid, spaces in raw.items()}


def default_spaces(theorem_id: str) -> list[SearchSpace]:
    manifest = load_manifest()
    if theorem_id not in manifest:
        raise HarnessError(f"no default spaces for theorem id {theorem_id!r}")
    return manifest[theorem_id]


# ---------------------------------------------------------------------------
# verification driver


def _record(space: SearchSpace, mask: int, inst: Complex | Graph, clauses: list[str]) -> dict:
    rec: dict = {"space": space.to_json(), "mask": mask, "n": inst.n}
    if isinstance(inst, Graph):
        rec["edges"] = [list(e) for e in inst.edges()]
    else:
        rec["facets"] = [list(f) for f in inst.facets()]
    rec["clauses"] = clauses
    return rec


def _engine_eligible(td: TheoremDef, space: SearchSpace, field: FieldSpec) -> bool:
    if td.engine_hook is None or field.key != 2 or space.kind == "fixture":
        return False
    if (1 << space.slot_count()) < ENGINE_MIN_INSTANCES:
        return False
    if td.engine_hook in ("topin", "chardepth"):
        return (space.kind == "complex" and space.d == space.n - 2
                and 3 <= space.n <= 7 and space.cover)
    if td.engine_hook in ("main2", "corlinear", "froberg"):
        return space.kind == "graph" and 3 <= space.n <= 7 and space.cover
    if td.engine_hook == "corbk":
        return (space.kind == "complex" and int(space.d) >= 1
                and space.n <= 7 and comb(space.n - 1, int(space.d) - 1) <= 15)
    return False


def _route(td: TheoremDef, space: SearchSpace, field: FieldSpec,
           decode: Callable[[int], Complex | Graph]):
    """(keep, check) for one space: the instance filter (None for none) and
    mask -> violated clauses, through the table engine when eligible."""
    if _engine_eligible(td, space, field):
        if td.engine_hook == "corbk":
            eng = _engine.pure_space_engine(space.n, int(space.d))
        else:
            eng = _engine.codim2_engine(space.n)
        keep = eng.graph_no_isolated if space.kind == "graph" else eng.covers
        return (keep if space.cover else None), getattr(eng, f"{td.engine_hook}_clauses")
    if space.kind != "fixture" and td.kind != space.kind:
        raise HarnessError(f"{td.theorem_id} expects {td.kind} spaces")
    checker = td.checker
    return _generic_keep(space), lambda s: checker(decode(s), field)


def _run_space(td: TheoremDef, space: SearchSpace, field: FieldSpec, cap: int,
               counterexamples: list[dict]) -> tuple[int, bool]:
    """Check one space's instances; returns (instances checked, truncated).

    An exhaustive space memoizes verdicts by S_n-orbit: each orbit is
    checked on its least mask, and a member of a failing orbit is
    re-checked on its own mask when it is recorded, so the records are
    those of a per-instance run.  Sample and fixture spaces check every
    instance.
    """
    decode = _decoder(space)
    keep, check = _route(td, space, field, decode)
    reps = None
    if space.kind == "fixture":
        masks: Iterator[int] | list[int] = [-1]
    else:
        masks = space.iter_masks(keep)
        if space.mode == "exhaustive" and space.slot_count() <= ORBIT_SLOT_LIMIT:
            reps = _engine.orbit_reps(space.n, space.slot_size)
    verdicts: dict[int, list[str]] = {}  # orbit representative -> its clauses
    checked = 0
    truncated = False
    for s in masks:
        checked += 1
        if reps is None:
            clauses = check(s)
        else:
            r = reps[s]
            clauses = verdicts.get(r)
            if clauses is None:
                clauses = verdicts[r] = check(r)
            if clauses and r != s and len(counterexamples) < cap:
                clauses = check(s)
                if not clauses:
                    raise _engine.EngineError(
                        f"{td.theorem_id}: mask {s} passes but its orbit representative "
                        f"{r} fails; the checker is not invariant under relabeling")
        if clauses:
            if len(counterexamples) >= cap:
                truncated = True
                continue
            counterexamples.append(_record(space, s, decode(s), clauses))
    return checked, truncated


def verify_theorem(
    theorem_id: str,
    spaces: list[SearchSpace] | None = None,
    field: FieldSpec = GF2,
    max_n: int | None = None,
    sample: int | None = None,
    seed: int | None = None,
    cap: int = 64,
) -> VerificationResult:
    """Run one theorem's clauses over its spaces; zero counterexamples expected.

    ``max_n`` filters the default spaces; ``sample``/``seed`` convert every
    space to seeded sampling.  Results are deterministic functions of
    (theorem_id, spaces, field, seed).
    """
    td = THEOREMS.get(theorem_id)
    if td is None:
        raise HarnessError(
            f"unknown theorem id {theorem_id!r} (known: {', '.join(sorted(THEOREMS))})"
        )
    if spaces is None:
        spaces = default_spaces(theorem_id)
    if cap < 0:
        raise HarnessError(f"counterexample cap must be >= 0, got {cap}")
    if max_n is not None:
        spaces = [sp for sp in spaces if sp.kind == "fixture" or sp.n <= max_n]
        if not spaces:
            raise HarnessError(f"no space of {theorem_id} has n <= {max_n}")
    if sample is not None:
        if seed is None:
            raise HarnessError("sampling override needs a seed")
        spaces = [
            sp if sp.kind == "fixture" else SearchSpace(
                n=sp.n, d=sp.d, mode="sample", count=sample, seed=seed, cover=sp.cover)
            for sp in spaces
        ]
    for sp in spaces:
        sp.validate()

    t0 = time.perf_counter()
    counterexamples: list[dict] = []
    checked = 0
    truncated = False
    for sp in spaces:
        got, trunc = _run_space(td, sp, field, cap, counterexamples)
        checked += got
        truncated = truncated or trunc
    modes = {sp.mode for sp in spaces if sp.kind != "fixture"}
    mode = modes.pop() if len(modes) == 1 else ("mixed" if modes else "fixture")
    return VerificationResult(
        theorem_id=theorem_id,
        field=str(field),
        spaces=[sp.to_json() for sp in spaces],
        mode=mode,
        instances_checked=checked,
        counterexamples=counterexamples,
        seed=seed,
        elapsed_s=round(time.perf_counter() - t0, 3),
        truncated=truncated,
    )


def replay_counterexample(theorem_id: str, record: dict, field: FieldSpec = GF2) -> list[str]:
    """Re-run the generic checker on one reported instance (engine-independent)."""
    td = THEOREMS.get(theorem_id)
    if td is None:
        raise HarnessError(f"unknown theorem id {theorem_id!r}")
    if "facets" in record:
        instance: Complex | Graph = Complex.from_facets(record["facets"], n=record["n"])
    else:
        instance = Graph(record["n"], [tuple(e) for e in record["edges"]])
    return td.checker(instance, field)


def theorem_ids() -> list[str]:
    return sorted(THEOREMS)
