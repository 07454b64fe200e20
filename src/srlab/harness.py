"""Machine verification of the theorem catalogue over desk-scale spaces.

Each registered theorem id pairs a clause checker with default search
spaces pinned in ``verify_manifest.json``.  Spaces define labeled
instances in a fixed order; sampling is seeded and deduplicated.  Every
checker, and the cover filter (``_engine.cover_filter``) that every
route applies, is invariant under relabeling the vertices.  So every
exhaustive space (at most ``ORBIT_SLOT_LIMIT`` slots) is walked one
S_n-orbit at a time (``_engine.orbit_classes``): the filter and the
check run on the orbit's least mask, and the orbit's size is added to
the count.  A sample space of graphs or of codimension-2 complexes on
``DECK_KEY_N`` = 7 vertices checks each isomorphism class once, keyed by
the vertex-deleted deck of its graph (``_engine.deck_key``), while every
drawn instance is counted.  Other samples check every instance.  Every
class is checked and counted first; then only the members of failing
classes are scanned, each recorded on its own mask up to the cap and
re-checked unless its class was checked on it.

The six engine-hooked theorems each have one clause function over a
digest (``ComplexDigest`` or ``GraphDigest``).  Their registered
checkers build the digest from the public modules over any field; on
every GF(2) space the table engine covers (``_engine_eligible``) the
same clause function reads digests from ``_engine`` instead.  The test
suite compares the two providers field by field.  Expected counterexample count for
every registered id over its default spaces: zero.
"""
from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from importlib import resources
from math import comb
from typing import Callable, Iterator

from . import _engine
from ._bits import labels_of, pick, size_subsets
from .betti import (
    FULL_LINEARITY,
    check_er_shape,
    check_ndp,
    check_subadditivity,
    dual_ideal_table,
    hochster_betti,
    homological_invariants,
)
from .complexes import Complex, alexander_dual, barycentric_subdivision
from .criteria import (
    cm_t,
    ext_dim_profile,
    is_buchsbaum,
    link_profile,
    max_serre,
    min_cm_t,
    min_singularity_bound,
    satisfies_serre,
    singularity_dimension_lt,
)
from .fixtures import COMPLEXES, fixture_complex
from .graphs import Graph, chordless_span, clique_complex, is_cycle_graph
from .homology import GF2, FieldSpec, reduced_homology

ORBIT_SLOT_LIMIT = 21       # exhaustive mode: orbit tables (2^slots entries), up to n = 7 codim-2 and graphs
SAMPLE_SLOT_LIMIT = 70      # sample mode: every complex space on n <= 8 (C(8,4) = 70), graphs to n = 12
DECK_KEY_N = 7              # sample spaces keyed by their deck (n - 1 orbit table: 15 slots)
SAMPLE_ATTEMPT_FACTOR = 300


class HarnessError(ValueError):
    """Unknown theorem id or an out-of-bounds search space."""


# ---------------------------------------------------------------------------
# search spaces


@dataclass(frozen=True)
class SearchSpace:
    """One enumeration family: pure complexes (facet size d on [n]),
    graphs on [n], or a single named complex from ``fixtures.COMPLEXES``.

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
        return 2 if self.kind == "graph" else self.d

    def slot_masks(self) -> list[int]:
        return size_subsets(self.n, self.slot_size)

    def slot_count(self) -> int:
        if self.kind == "fixture":
            return 0
        return comb(self.n, 2) if self.kind == "graph" else comb(self.n, self.d)

    def validate(self) -> None:
        if self.kind == "fixture":
            if self.fixture not in COMPLEXES:
                raise HarnessError(f"no complex fixture named {self.fixture!r} "
                                   f"(available: {', '.join(sorted(COMPLEXES))})")
            return
        if type(self.n) is not int or self.n < 0:  # a bool is no vertex count
            raise HarnessError(f"vertex count must be an int >= 0, not {self.n!r}")
        if self.kind == "complex":
            if type(self.d) is not int:
                raise HarnessError(f"facet size must be an int or 'graphs', not {self.d!r}")
            if not 1 <= self.d <= self.n:
                raise HarnessError(f"facet size {self.d} out of range for n={self.n}")
        if self.slot_count() == 0:
            raise HarnessError(f"a {self.kind} space on n={self.n} vertices has no slots")
        if self.mode == "exhaustive" and self.slot_count() > ORBIT_SLOT_LIMIT:
            raise HarnessError(
                f"exhaustive enumeration needs at most {ORBIT_SLOT_LIMIT} "
                f"slots; space has {self.slot_count()}"
            )
        if self.mode == "sample":
            if type(self.seed) is not int or type(self.count) is not int or self.count < 1:
                raise HarnessError(f"sample mode needs an int seed and an int count >= 1, "
                                   f"not seed={self.seed!r}, count={self.count!r}")
            if self.slot_count() > SAMPLE_SLOT_LIMIT:
                raise HarnessError(
                    f"sampling needs at most {SAMPLE_SLOT_LIMIT} slots; "
                    f"space has {self.slot_count()}"
                )
        elif self.mode != "exhaustive":
            raise HarnessError(f"unknown mode {self.mode!r}")

    def iter_masks(self, keep: Callable[[int], bool] | None = None) -> Iterator[int]:
        """Instance masks in enumeration order.

        ``keep`` is the instance filter (cover / no-isolated-vertices):
        exhaustive mode scans everything and skips rejects; sample mode
        keeps drawing until ``count`` distinct accepted masks have been
        produced, bounded by an attempt limit, or until every one of the
        2^K - 1 masks has been drawn.
        """
        K = self.slot_count()
        if self.mode == "exhaustive":
            yield from filter(keep, range(1, 1 << K))  # keep=None drops no s >= 1
        else:
            rng = random.Random(self.seed)
            seen: set[int] = set()
            produced = 0
            attempts = 0
            limit = self.count * SAMPLE_ATTEMPT_FACTOR
            total = (1 << K) - 1
            while produced < self.count and attempts < limit and len(seen) < total:
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


def _decoder(space: SearchSpace) -> Callable[[int], Complex | Graph]:
    """Instance mask -> Complex or Graph; a fixture space has one instance."""
    if space.kind == "fixture":
        c = fixture_complex(space.fixture)
        return lambda s: c
    n = space.n
    slots = space.slot_masks()
    if space.kind == "graph":
        return lambda s: Graph(n, [labels_of(pair) for pair in pick(slots, s)])
    return lambda s: Complex(n, tuple(pick(slots, s)), _trusted=True)


def _keep(space: SearchSpace) -> Callable[[int], bool] | None:
    """The space's instance filter: its cover condition, or None."""
    if space.kind == "fixture" or not space.cover:
        return None
    return _engine.cover_filter(space.n, space.slot_size)


def enumerate_pure_complexes(space: SearchSpace) -> Iterator[Complex]:
    """All (or sampled) nonempty facet sets of d-subsets of [n], in a
    fixed order, passing the cover filter."""
    space.validate()
    if space.kind != "complex":
        raise HarnessError("expected a pure-complex space")
    decode = _decoder(space)
    return (decode(s) for s in space.iter_masks(_keep(space)))


def enumerate_graphs(space: SearchSpace) -> Iterator[Graph]:
    """All (or sampled) nonempty edge sets on [n]; cover = no isolated vertices."""
    space.validate()
    if space.kind != "graph":
        raise HarnessError("expected a graph space")
    decode = _decoder(space)
    return (decode(s) for s in space.iter_masks(_keep(space)))


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
    """CM_t of Delta gives N_{n-d, 2d-n-t+2} of the dual's ideal.

    The dual's table is ``dual_ideal_table``, read from the links of
    Delta, so the theorem is checked modulo Hochster's dual formula on
    those links, not modulo Alexander duality plus Hochster's formula
    on the restrictions of a built dual.
    """
    if c == Complex.simplex(c.n):  # its Alexander dual is void
        return []
    d = _dim_ring(c)
    dtbl = dual_ideal_table(c, field)
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
    """S_r of Delta iff N_{n-d, r} of the dual's ideal, for r in 2..d+1.

    The dual's table is ``dual_ideal_table``, read from the links of
    Delta: the check holds modulo Hochster's dual formula on those links,
    not modulo Alexander duality plus Hochster's formula on a built dual.
    """
    if c == Complex.simplex(c.n):
        return []
    d = _dim_ring(c)
    dtbl = dual_ideal_table(c, field)
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
    """Subadditivity of the syzygy degrees of I_Delta and of I_{Delta^vee}.

    I_Delta's table is Hochster's sum over restrictions; the dual's is
    ``dual_ideal_table``, read from the links of Delta, so the dual half
    holds modulo Hochster's dual formula on those links, not modulo
    Alexander duality plus Hochster's formula on a built dual.
    """
    out = []
    v = check_subadditivity(hochster_betti(c, field, "ideal"))
    if v:
        out.append(f"subadditivity violations on I_Delta: {v}")
    if c != Complex.simplex(c.n):
        v = check_subadditivity(dual_ideal_table(c, field))
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


# ---------------------------------------------------------------------------
# digests: what the engine-hooked theorems read, from two providers


class _lazy:
    """A digest field: ``fn(digest)`` runs on the first read, and its value
    is stored on the digest, where it shadows this descriptor."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _threshold(holds: Callable[[int], bool], d: int) -> int | None:
    """The least t in 0..d with holds(d - t), or None."""
    return next((t for t in range(d + 1) if holds(d - t)), None)


def _dual_adj(c: Complex) -> tuple[int, ...]:
    """Adjacency of the Alexander dual's 1-skeleton, without the dual:
    {a, b} is an edge of it iff [n] \\ {a, b} is not a face of c."""
    full = (1 << c.n) - 1
    adj = [0] * c.n
    for a in range(c.n):
        for b in range(a + 1, c.n):
            if not c.has_face_mask(full ^ (1 << a) ^ (1 << b)):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return tuple(adj)


class ComplexDigest:
    """What thm-topin, prop-chardepth and cor-bk read about a complex,
    from the public modules over any field.

    Fields are computed on first read, so a clause that stops at its
    premise (Buchsbaum) computes nothing past it.  A threshold is the
    least t in 0..d at which its property holds; CM_t, N_{2,d-t}, S_{d-t}
    and the chord condition at d-t+2 then hold for every larger t too.
    Both providers read the S_{d-t} threshold off ``serre_viol``, the
    least Serre-violating degree of ``criteria.link_profile``.
    ``dims`` are reduced homology dims from degree -1; ``dual_adj`` is the
    adjacency of the Alexander dual's 1-skeleton.  Neither it nor the
    N_{2,p} threshold builds the dual: the threshold reads
    ``dual_ideal_table``, from the links of the complex.
    """

    def __init__(self, c: Complex, field: FieldSpec):
        self.c = c
        self.field = field
        self.n = c.n
        self.d = _dim_ring(c)

    min_cm_t = _lazy(lambda dg: min_cm_t(dg.c, dg.field))  # None when not pure
    serre_viol = _lazy(lambda dg: link_profile(dg.c.facet_masks, dg.field)[1])
    # S_{d-t} holds iff d - t <= 1 or serre_viol >= d - t - 1
    serre_threshold = _lazy(lambda dg: max(0, dg.d - 1 - dg.serre_viol))
    dims = _lazy(lambda dg: reduced_homology(dg.c, dg.field).dims)
    ndp_threshold = _lazy(lambda dg: _threshold(
        partial(check_ndp, dual_ideal_table(dg.c, dg.field), 2), dg.d))
    dual_adj = _lazy(lambda dg: _dual_adj(dg.c))
    dual_chordless_min = _lazy(lambda dg: chordless_span(dg.dual_adj, early_min=True)[0])
    dual_is_cycle = _lazy(lambda dg: is_cycle_graph(Graph.from_adj(dg.dual_adj)))
    buchsbaum = _lazy(lambda dg: is_buchsbaum(dg.c, dg.field))
    depth = _lazy(lambda dg: homological_invariants(hochster_betti(dg.c, dg.field, "ring")).depth)


class _EngineComplexDigest(ComplexDigest):
    """The same fields over GF(2) for slot mask ``s`` of an engine space,
    read from the engine's tables.  The one field no table gives, the
    depth of a complex that is not Cohen-Macaulay, comes from the decoded
    complex by the generic route."""

    field = GF2

    def __init__(self, eng: _engine.PureSpaceEngine, decode: Callable[[int], Complex], s: int):
        self.eng = eng
        self.decode = decode
        self.s = s
        self.n = eng.n
        self.d = eng.d

    c = _lazy(lambda dg: dg.decode(dg.s))
    analysis = _lazy(lambda dg: dg.eng.analyze_full(dg.s))
    min_cm_t = _lazy(lambda dg: dg.analysis[0] + 1)
    serre_viol = _lazy(lambda dg: dg.analysis[1])
    dims = _lazy(lambda dg: dg.analysis[2])
    dual_edges = _lazy(lambda dg: dg.eng.dual_mask(dg.s))
    ndp_threshold = _lazy(lambda dg: dg.eng.ndp_threshold(dg.dual_edges, dg.dims))
    dual_adj = _lazy(lambda dg: dg.eng.adj_of_edges(dg.dual_edges))
    buchsbaum = _lazy(lambda dg: dg.eng.is_buchsbaum(dg.s))

    depth = _lazy(lambda dg: dg.d if dg.min_cm_t == 0 else ComplexDigest.depth.fn(dg))


class GraphDigest:
    """What thm-main2, cor-linear and froberg read about a graph G, from
    the public modules over any field; fields are computed on first read.
    ``dual_min_cm_t`` is min CM_t of the Alexander dual of clique(G), None
    when that dual is void; the chordless lengths are 0 when G is chordal.
    """

    def __init__(self, g: Graph, field: FieldSpec):
        self.g = g
        self.field = field
        self.n = g.n

    adj = _lazy(lambda dg: dg.g.adj)
    clique = _lazy(lambda dg: clique_complex(dg.g))
    clique_dual = _lazy(lambda dg: alexander_dual(dg.clique))
    dual_min_cm_t = _lazy(lambda dg: None if dg.clique_dual.is_void
                          else min_cm_t(dg.clique_dual, dg.field))
    linear = _lazy(lambda dg: check_ndp(hochster_betti(dg.clique, dg.field, "ideal"), 2,
                                        FULL_LINEARITY))
    chordless_min = _lazy(lambda dg: chordless_span(dg.adj, early_min=True)[0])
    chordless_max = _lazy(lambda dg: chordless_span(dg.adj)[1])


class _EngineGraphDigest(GraphDigest):
    """The same fields over GF(2) for edge mask ``e``, read from the
    codimension-2 engine's tables; with ``check_duality`` the dual's
    homology is checked against clique(G)'s by Alexander duality."""

    field = GF2

    def __init__(self, eng: _engine.Codim2Engine, check_duality: bool, e: int):
        self.eng = eng
        self.check_duality = check_duality
        self.e = e
        self.n = eng.n

    adj = _lazy(lambda dg: dg.eng.adj_of_edges(dg.e))
    dual_min_cm_t = _lazy(lambda dg: dg.eng.clique_dual_cm(dg.e, dg.check_duality))
    linear = _lazy(lambda dg: dg.eng.linearity_data(dg.e))


def _engine_digests(hook: str, space: SearchSpace, decode: Callable[[int], Complex | Graph]
                    ) -> Callable[[int], ComplexDigest | GraphDigest]:
    """mask -> its digest read from the GF(2) tables, for an engine-eligible space."""
    if space.kind == "graph":
        # thm-main2 checks Alexander duality on every dual it analyzes
        return partial(_EngineGraphDigest, _engine.codim2_engine(space.n), hook == "main2")
    if hook == "corbk":
        eng = _engine.pure_space_engine(space.n, space.d)
    else:
        eng = _engine.codim2_engine(space.n)
    return partial(_EngineComplexDigest, eng, decode)


# ---------------------------------------------------------------------------
# the engine-hooked theorems: one clause function each, over a digest


def _topin_clauses(dg: ComplexDigest) -> list[str]:
    """Codimension 2: CM_t, N_{2,d-t}, S_{d-t} and the chord condition at
    d-t+2 on the dual's 1-skeleton agree for every t."""
    d = dg.d
    t_cm = dg.min_cm_t
    t_ndp = dg.ndp_threshold
    t_serre = dg.serre_threshold
    # the chord condition at d-t+2 holds from t = d+3-(shortest chordless cycle) on
    t_chord = max(0, d + 3 - dg.dual_chordless_min) if dg.dual_chordless_min else 0
    if t_cm == t_ndp == t_serre == t_chord:
        return []
    out = []
    for t in range(0, d + 1):
        a = t_cm is not None and t >= t_cm
        b = t >= t_ndp
        s = t >= t_serre
        ch = t >= t_chord
        r = d - t + 2
        if not (a == b == s == ch):
            out.append(f"t={t}: CM_t={a} N(2,{d - t})={b} S_{d - t}={s} chord<= {r}={ch}")
    return out


def _chardepth_clauses(dg: ComplexDigest) -> list[str]:
    """Buchsbaum in codimension 2: depth >= d-1, and non-CM iff the dual's
    1-skeleton is the n-cycle."""
    if not dg.buchsbaum:
        return []
    out = []
    if dg.depth < dg.d - 1:
        out.append(f"Buchsbaum but depth {dg.depth} < dim = {dg.d - 1}")
    noncm = dg.min_cm_t != 0
    if noncm != dg.dual_is_cycle:
        out.append(f"non-CM={noncm} but dual skeleton is-the-cycle={dg.dual_is_cycle}")
    return out


def _corbk_clauses(dg: ComplexDigest) -> list[str]:
    """Buchsbaum with H~_i != 0 for some i >= 1 forces n >= 2d - i."""
    if not dg.buchsbaum:
        return []
    out = []
    for i, dim in enumerate(dg.dims, start=-1):
        if dim and i >= 1 and dg.n < 2 * dg.d - i:
            out.append(f"H_{i} != 0 but n = {dg.n} < 2d - i = {2 * dg.d - i}")
    return out


def _main2_clauses(dg: GraphDigest) -> list[str]:
    """dual(clique(G)) is CM_{n-r} iff every cycle of length <= r has a
    chord, for all r in [3, n]."""
    out = []
    for r in range(3, dg.n + 1):
        lhs = dg.dual_min_cm_t is None or dg.n - r >= dg.dual_min_cm_t
        rhs = not dg.chordless_min or dg.chordless_min > r
        if lhs != rhs:
            out.append(f"r={r}: CM_(n-r)(dual clique)={lhs} but chord condition={rhs}")
    return out


def _corlinear_clauses(dg: GraphDigest) -> list[str]:
    """For r-chordal G with dual(clique(G)) not void: CM_{n-r} iff
    I_{clique(G)} has a linear resolution."""
    if dg.dual_min_cm_t is None:
        return []
    out = []
    for r in range(max(3, dg.chordless_max), dg.n + 1):  # the r with G r-chordal
        lhs = dg.n - r >= dg.dual_min_cm_t
        if lhs != dg.linear:
            out.append(f"r={r} (r-chordal): CM_(n-r)={lhs} but linear resolution={dg.linear}")
    return out


def _froberg_clauses(dg: GraphDigest) -> list[str]:
    """I_{clique(G)} has a linear resolution iff G is chordal."""
    chordal = dg.chordless_min == 0
    if dg.linear != chordal:
        return [f"linear resolution={dg.linear} but chordal={chordal}"]
    return []


#: engine hook -> the theorem's clauses over a digest (both routes)
_ENGINE_HOOKS: dict[str, Callable[..., list[str]]] = {
    "topin": _topin_clauses,
    "chardepth": _chardepth_clauses,
    "corbk": _corbk_clauses,
    "main2": _main2_clauses,
    "corlinear": _corlinear_clauses,
    "froberg": _froberg_clauses,
}


def _digest_checker(digest: type, clauses: Callable[..., list[str]]) -> Callable[..., list[str]]:
    """The registered checker(instance, field) of an engine-hooked theorem:
    its clauses over the instance's public-module digest."""
    return lambda inst, field: clauses(digest(inst, field))


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
    exhaustive space checks each S_n-orbit once, on its least mask, and
    counts the orbit's size; an n = 7 sample of graphs or codimension-2
    complexes checks each isomorphism class once, on its first drawn
    mask.  After every class is checked, a recorded member of a failing
    class is checked on its own mask, and one that passes raises
    ``EngineError``.
    ``engine_hook`` names the theorem's clause function in
    ``_ENGINE_HOOKS``; on a space the table engine takes, that function
    reads digests from the engine instead of calling ``checker``.
    """
    THEOREMS[theorem_id] = TheoremDef(theorem_id, kind, checker, engine_hook)


register_theorem("thm-er", "complex", _check_thm_er)
register_theorem("thm-main", "complex", _check_thm_main)
register_theorem("cor-yan", "complex", _check_cor_yan)
register_theorem("yanagawa-bridge", "complex", _check_yanagawa)
register_theorem("remark-serre", "complex", _check_remark_serre)
register_theorem("subadd", "complex", _check_subadd)
register_theorem("ext-profile", "complex", _check_ext_profile)
register_theorem("thm-topin", "complex", _digest_checker(ComplexDigest, _topin_clauses),
                  engine_hook="topin")
register_theorem("prop-chardepth", "complex", _digest_checker(ComplexDigest, _chardepth_clauses),
                  engine_hook="chardepth")
register_theorem("cor-bk", "complex", _digest_checker(ComplexDigest, _corbk_clauses),
                  engine_hook="corbk")
register_theorem("sd-invariance", "complex", _check_sd_invariance)
register_theorem("thm-main2", "graph", _digest_checker(GraphDigest, _main2_clauses),
                  engine_hook="main2")
register_theorem("cor-linear", "graph", _digest_checker(GraphDigest, _corlinear_clauses),
                  engine_hook="corlinear")
register_theorem("froberg", "graph", _digest_checker(GraphDigest, _froberg_clauses),
                  engine_hook="froberg")


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
    """Whether the table engine supplies the digests on this space.

    The rule reads the field, the theorem's hook and the space's shape,
    never its size: GF(2) only, no fixture, and a space whose tables
    exist.  thm-topin and prop-chardepth take covered codimension-2
    spaces on 3 <= n <= 7 vertices; thm-main2, cor-linear and froberg
    take graph spaces on 3 <= n <= 7 vertices without isolated vertices;
    cor-bk takes pure spaces on n <= 7 vertices whose vertex links have
    at most 15 facet slots (C(n-1, d-1) <= 15).
    """
    if td.engine_hook is None or field.key != 2 or space.kind == "fixture":
        return False
    if td.engine_hook in ("topin", "chardepth"):
        return (space.kind == "complex" and space.d == space.n - 2
                and 3 <= space.n <= 7 and space.cover)
    if td.engine_hook in ("main2", "corlinear", "froberg"):
        return space.kind == "graph" and 3 <= space.n <= 7 and space.cover
    if td.engine_hook == "corbk":
        return (space.kind == "complex" and space.d >= 1
                and space.n <= 7 and comb(space.n - 1, space.d - 1) <= 15)
    return False


def _route(td: TheoremDef, space: SearchSpace, field: FieldSpec,
           decode: Callable[[int], Complex | Graph]) -> Callable[[int], list[str]]:
    """mask -> violated clauses for one space: the theorem's clauses over
    digests read from the table engine when the space is eligible, else
    its registered checker on the decoded instance."""
    if td.kind != ("complex" if space.kind == "fixture" else space.kind):  # fixtures are complexes
        raise HarnessError(f"{td.theorem_id} expects {td.kind} spaces")
    if _engine_eligible(td, space, field):
        clauses = _ENGINE_HOOKS[td.engine_hook]
        digest = _engine_digests(td.engine_hook, space, decode)
        return lambda s: clauses(digest(s))
    checker = td.checker
    return lambda s: checker(decode(s), field)


def _classes(space: SearchSpace) -> tuple[list[tuple[int, int]], Callable[
        [dict[int, list[str]]], Iterator[tuple[int, int]]]]:
    """(the mask each class is checked on, its instance count) for every
    class, and ``members(failing)``: each (mask, class mask) pair with
    its class mask in ``failing``, in enumeration order.

    Classes are the S_n-orbits an exhaustive space's filter keeps, the
    decks of a ``DECK_KEY_N``-vertex sample of graphs or codimension-2
    complexes (checked on their first drawn mask), each drawn mask of
    any other sample, and a fixture's one instance.
    """
    n, k = space.n, space.slot_size
    if space.kind == "fixture":
        drawn = {-1: -1}  # mask -> the mask its class is checked on
    elif space.mode == "exhaustive":
        keep = _keep(space)
        # the empty mask is an orbit of its own and no instance
        classes = [(r, size) for r, size in _engine.orbit_classes(n, k)[1:]
                   if keep is None or keep(r)]
        rep = _engine.orbit_reps(n, k)  # from the same DFS as the classes
        return classes, lambda failing: (
            (s, rep[s]) for s in range(1, len(rep)) if rep[s] in failing)
    elif n == DECK_KEY_N and (space.kind == "graph" or space.d == n - 2):
        key = _engine.deck_key(n, k)
        first: dict[tuple[int, ...], int] = {}
        drawn = {s: first.setdefault(key(s), s) for s in space.iter_masks(_keep(space))}
    else:
        drawn = {s: s for s in space.iter_masks(_keep(space))}
    return (list(Counter(drawn.values()).items()),
            lambda failing: ((s, c) for s, c in drawn.items() if c in failing))


def _run_space(td: TheoremDef, space: SearchSpace, field: FieldSpec, cap: int,
               counterexamples: list[dict]) -> tuple[int, bool]:
    """Check one space's instances; returns (instances checked, truncated).

    Every class of ``_classes`` is checked and counted first.  Then the
    members of failing classes are recorded, each on its own mask, until
    one is past ``cap``; a member its class was not checked on is
    re-checked, and one that passes raises ``EngineError``, so the
    records are those of a per-instance run.
    """
    decode = _decoder(space)
    check = _route(td, space, field, decode)
    classes, members = _classes(space)
    failing: dict[int, list[str]] = {}  # class mask -> its clauses
    checked = 0
    for c, size in classes:
        clauses = check(c)
        if clauses:
            failing[c] = clauses
        checked += size
    if not failing:  # nothing to record: no scan of the members
        return checked, False
    for s, c in members(failing):
        if len(counterexamples) >= cap:
            return checked, True
        clauses = failing[c] if s == c else check(s)
        if not clauses:
            raise _engine.EngineError(
                f"{td.theorem_id}: mask {s} passes but {c}, the mask its class was "
                f"checked on, fails; the checker is not invariant under relabeling")
        counterexamples.append(_record(space, s, decode(s), clauses))
    return checked, False


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
