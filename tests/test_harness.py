"""Enumeration spaces, theorem runner, engine/generic agreement."""

from __future__ import annotations

import json
import random
from functools import reduce
from math import comb
from operator import or_
from types import SimpleNamespace

import pytest

from srlab import (
    Complex,
    GF2,
    Graph,
    SearchSpace,
    enumerate_graphs,
    enumerate_pure_complexes,
    replay_counterexample,
    theorem_ids,
    verify_theorem,
)
from srlab import harness as hmod
from srlab._bits import labels_of, pick
from srlab._engine import EngineError, deck_key
from srlab.harness import (
    HarnessError,
    THEOREMS,
    ComplexDigest,
    GraphDigest,
    default_spaces,
    load_manifest,
    register_theorem,
)


class TestSpaces:
    def test_exhaustive_counts(self):
        # 2^C(4,2) - 1 nonempty edge sets; inclusion-exclusion gives the
        # covering count: 63 total, 41 covering
        no_cover = list(enumerate_pure_complexes(SearchSpace(n=4, d=2, cover=False)))
        cover = list(enumerate_pure_complexes(SearchSpace(n=4, d=2, cover=True)))
        assert len(no_cover) == 63
        assert len(cover) == 41
        expected = sum((-1) ** k * comb(4, k) * (2 ** comb(4 - k, 2)) for k in range(5))
        assert len(cover) == expected

    def test_single_simplex_space(self):
        cs = list(enumerate_pure_complexes(SearchSpace(n=3, d=3)))
        assert cs == [Complex.simplex(3)]

    def test_sampling_is_seeded_and_deduplicated(self):
        sp = SearchSpace(n=5, d=2, mode="sample", count=20, seed=7)
        a = [c.facet_masks for c in enumerate_pure_complexes(sp)]
        b = [c.facet_masks for c in enumerate_pure_complexes(sp)]
        assert a == b
        assert len(set(a)) == len(a) == 20

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (3, "graphs")])
    def test_sampling_stops_once_every_mask_is_drawn(self, monkeypatch, n, d):
        draws = []

        class CountingRandom(random.Random):
            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        monkeypatch.setattr(hmod, "random", SimpleNamespace(Random=CountingRandom))
        sp = SearchSpace(n=n, d=d, mode="sample", count=200000, seed=1)
        masks = list(sp.iter_masks(hmod._keep(sp)))
        # the draws of a run that stops at the first draw completing the space
        total = (1 << sp.slot_count()) - 1
        rng = random.Random(1)
        drawn: list[int] = []
        while len(set(drawn)) < total:
            drawn.append(rng.randrange(1, total + 1))
        assert len(draws) == len(drawn)
        keep = hmod._keep(sp)
        first_draws = [s for i, s in enumerate(drawn) if s not in drawn[:i]]
        assert masks == [s for s in first_draws if keep(s)]

    def test_graph_enumeration_no_isolated(self):
        gs = list(enumerate_graphs(SearchSpace(n=3, d="graphs")))
        assert len(gs) == 4  # paths (3 labelings) + triangle
        assert all(all(a for a in g.adj) for g in gs)

    def test_exhaustive_bound(self):
        with pytest.raises(HarnessError):
            SearchSpace(n=8, d=4, mode="exhaustive").validate()  # C(8,4)=70 slots

    def test_sample_needs_seed(self):
        with pytest.raises(HarnessError):
            SearchSpace(n=4, d=2, mode="sample", count=5).validate()

    @pytest.mark.parametrize("n", [0, 1])
    def test_graph_space_without_slots_rejected(self, n):
        # no edge slot on fewer than 2 vertices: such a run would check nothing
        sp = SearchSpace(n=n, d="graphs")
        assert sp.slot_count() == 0
        with pytest.raises(HarnessError):
            sp.validate()
        with pytest.raises(HarnessError):
            verify_theorem("thm-main2", [sp])

    def test_space_json_roundtrip(self):
        sp = SearchSpace(n=7, d="graphs", mode="sample", count=500, seed=3)
        assert SearchSpace.from_json(sp.to_json()) == sp
        assert SearchSpace.from_json({"fixture": "MT6"}).kind == "fixture"


class TestManifest:
    def test_all_ids_have_spaces(self):
        manifest = load_manifest()
        assert set(manifest) == set(theorem_ids())
        for tid, spaces in manifest.items():
            for sp in spaces:
                sp.validate()

    def test_unknown_id(self):
        with pytest.raises(HarnessError):
            verify_theorem("no-such-claim")
        with pytest.raises(HarnessError):
            default_spaces("no-such-claim")


class TestVerify:
    def test_small_run_ok(self):
        r = verify_theorem("thm-er", max_n=4)
        assert r.ok()
        assert r.instances_checked == 63
        assert r.mode == "exhaustive"

    def test_fixture_space(self):
        r = verify_theorem("cor-bk", [SearchSpace(fixture="MT6")])
        assert r.ok() and r.instances_checked == 1

    def test_sampled_run_echoes_seed(self):
        r = verify_theorem("thm-main", max_n=4, sample=10, seed=42)
        assert r.ok() and r.seed == 42 and r.mode == "sample"

    def test_byte_determinism(self):
        a = verify_theorem("yanagawa-bridge", max_n=4, sample=15, seed=9)
        b = verify_theorem("yanagawa-bridge", max_n=4, sample=15, seed=9)
        assert a.to_json() == b.to_json()

    def test_json_shape(self):
        r = verify_theorem("remark-serre", max_n=3)
        obj = json.loads(r.to_json())
        assert obj["schema"] == "sr-lab/1"
        assert obj["counterexamples"] == []
        assert "elapsed_s" not in obj
        assert "elapsed_s" in r.to_json_obj(include_elapsed=True)


class TestFalseClaimMachinery:
    """The runner must actually find and replay counterexamples."""

    def test_counterexamples_found_and_replayable(self):
        def always_cm(c, field):
            from srlab import reisner_cm
            return [] if reisner_cm(c, field) else ["claimed CM but is not"]

        register_theorem("test-always-cm", "complex", always_cm)
        try:
            r = verify_theorem("test-always-cm", [SearchSpace(n=4, d=2)])
            assert not r.ok()
            assert r.instances_checked == 41
            for cx in r.counterexamples:
                assert replay_counterexample("test-always-cm", cx)
            # the first failing instance re-verifies as the same violation
            assert all(cx["clauses"] == ["claimed CM but is not"]
                       for cx in r.counterexamples)
        finally:
            THEOREMS.pop("test-always-cm")

    def test_counterexample_cap(self):
        def never(g, field):
            return ["nope"]

        register_theorem("test-never", "graph", never)
        try:
            r = verify_theorem("test-never", [SearchSpace(n=4, d="graphs")], cap=5)
            assert len(r.counterexamples) == 5 and r.truncated
        finally:
            THEOREMS.pop("test-never")

    def test_zero_cap_still_fails(self):
        def never(g, field):
            return ["nope"]

        register_theorem("test-never", "graph", never)
        try:
            r = verify_theorem("test-never", [SearchSpace(n=4, d="graphs")], cap=0)
            assert r.counterexamples == [] and r.truncated
            assert not r.ok()
        finally:
            THEOREMS.pop("test-never")

    def test_negative_cap_rejected(self):
        with pytest.raises(HarnessError):
            verify_theorem("thm-er", max_n=2, cap=-1)

    def test_empty_max_n_filter_rejected(self):
        with pytest.raises(HarnessError):
            verify_theorem("thm-topin", max_n=2)


class TestOrbitMemo:
    """Exhaustive spaces check one instance per S_n-orbit, and n = 7 samples
    one per deck; the records must still be those of a per-instance run."""

    def test_failing_invariant_checker_records_every_labeled_mask(self):
        def three_facets(c, field):
            # label-invariant verdict, label-dependent clause text
            return [f"3 facets: {c.facets()}"] if len(c.facet_masks) == 3 else []

        sp = SearchSpace(n=5, d=3)
        register_theorem("test-three-facets", "complex", three_facets)
        try:
            r = verify_theorem("test-three-facets", [sp], cap=5)
        finally:
            THEOREMS.pop("test-three-facets")
        slots = sp.slot_masks()

        def union(s: int) -> int:
            return reduce(or_, (m for i, m in enumerate(slots) if s >> i & 1), 0)

        covered = [s for s in range(1, 1 << len(slots)) if union(s) == 31]
        expected = []
        for s in covered:
            c = Complex(5, tuple(slots[i] for i in range(len(slots)) if s >> i & 1),
                        _trusted=True)
            clauses = three_facets(c, GF2)
            if clauses:
                expected.append({"space": sp.to_json(), "mask": s, "n": 5,
                                 "facets": [list(f) for f in c.facets()],
                                 "clauses": clauses})
        assert len(expected) > 5
        assert r.counterexamples == expected[:5]
        assert r.truncated and not r.ok()
        assert r.instances_checked == len(covered)

    def test_non_invariant_checker_is_caught(self):
        def has_facet_123(c, field):
            return ["has {1,2,3}"] if 0b111 in c.facet_masks else []

        register_theorem("test-labeled", "complex", has_facet_123)
        try:
            with pytest.raises(EngineError):
                verify_theorem("test-labeled", [SearchSpace(n=5, d=3, cover=False)])
            # an n = 5 sample has no class key: every instance is checked
            r = verify_theorem("test-labeled", [SearchSpace(
                n=5, d=3, mode="sample", count=50, seed=3, cover=False)])
            assert not r.ok()
        finally:
            THEOREMS.pop("test-labeled")

    def test_sampled_n7_failing_class_records_every_drawn_mask(self):
        def fourteen_edges(g, field):
            # label-invariant verdict, label-dependent clause text
            return [f"14 edges: {g.edges()}"] if len(g.edges()) == 14 else []

        sp = SearchSpace(n=7, d="graphs", mode="sample", count=300, seed=1)
        register_theorem("test-fourteen-edges", "graph", fourteen_edges)
        try:
            r = verify_theorem("test-fourteen-edges", [sp], cap=5)
        finally:
            THEOREMS.pop("test-fourteen-edges")
        slots = sp.slot_masks()
        drawn = list(sp.iter_masks(hmod._keep(sp)))
        expected = []
        for s in drawn:
            g = Graph(7, [labels_of(pair) for pair in pick(slots, s)])
            clauses = fourteen_edges(g, GF2)
            if clauses:
                expected.append({"space": sp.to_json(), "mask": s, "n": 7,
                                 "edges": [list(e) for e in g.edges()], "clauses": clauses})
        assert len(expected) > 5
        # a recorded mask past the first-seen one of its class is re-checked
        key = deck_key(7, 2)
        first = {}
        for s in drawn:
            first.setdefault(key(s), s)
        assert any(first[key(rec["mask"])] != rec["mask"] for rec in expected[:5])
        assert r.counterexamples == expected[:5]
        assert r.truncated and not r.ok()
        assert r.instances_checked == len(drawn) == 300

    @pytest.mark.parametrize("d", ["graphs", 5])
    def test_sampled_n7_checks_once_per_class(self, d):
        calls = []

        def counting(inst, field):
            calls.append(inst)
            return []

        kind = "graph" if d == "graphs" else "complex"
        sp = SearchSpace(n=7, d=d, mode="sample", count=400, seed=2)
        register_theorem("test-counting", kind, counting)
        try:
            r = verify_theorem("test-counting", [sp])
        finally:
            THEOREMS.pop("test-counting")
        key = deck_key(7, sp.slot_size)
        classes = {key(s) for s in sp.iter_masks(hmod._keep(sp))}
        assert r.ok() and r.instances_checked == 400
        assert len(calls) == len(classes) < 400

    def test_non_invariant_checker_is_caught_on_n7_sample(self):
        def has_edge_12(g, field):
            return ["has {1,2}"] if (1, 2) in g.edges() else []

        register_theorem("test-labeled-graph", "graph", has_edge_12)
        try:
            with pytest.raises(EngineError):
                verify_theorem("test-labeled-graph", [SearchSpace(
                    n=7, d="graphs", mode="sample", count=500, seed=3)])
        finally:
            THEOREMS.pop("test-labeled-graph")

    def test_checks_fall_to_orbit_count(self):
        calls = []

        def counting(g, field):
            calls.append(g)
            return []

        register_theorem("test-counting", "graph", counting)
        try:
            r = verify_theorem("test-counting", [SearchSpace(n=5, d="graphs", cover=False)])
        finally:
            THEOREMS.pop("test-counting")
        assert r.instances_checked == 2 ** 10 - 1
        assert len(calls) == 33  # the 34 graphs on 5 unlabeled vertices, less the empty one


#: digest fields per kind of space the engine takes
COMPLEX_FIELDS = ("min_cm_t", "serre_threshold", "dims", "ndp_threshold", "dual_adj",
                  "dual_chordless_min", "dual_is_cycle", "buchsbaum", "depth")
PURE_FIELDS = ("min_cm_t", "serre_threshold", "dims", "buchsbaum")
GRAPH_FIELDS = ("adj", "dual_min_cm_t", "linear", "chordless_min", "chordless_max")
#: pure spaces that cor-bk routes to the engine (2^slots >= 8192, C(n-1, d-1) <= 15)
CORBK_ENGINE_SPACES = [(6, 2), (6, 3), (6, 4), (7, 2), (7, 3), (7, 5)]


def _engine_space(n: int, d, count: int, seed: int) -> SearchSpace:
    """Every covered instance for n <= 5, a seeded sample above."""
    if n <= 5:
        return SearchSpace(n=n, d=d)
    return SearchSpace(n=n, d=d, mode="sample", count=count, seed=seed)


def _assert_same_digests(hooks: tuple[str, ...], space: SearchSpace, fields) -> None:
    """Both providers give equal fields and equal clauses on every instance."""
    decode = hmod._decoder(space)
    engine = hmod._engine_digests(hooks[0], space, decode)
    generic = GraphDigest if space.kind == "graph" else ComplexDigest
    checked = 0
    for s in space.iter_masks(hmod._keep(space)):
        inst = decode(s)
        fast, slow = engine(s), generic(inst, GF2)
        for f in fields:
            assert getattr(fast, f) == getattr(slow, f), (space, s, f)
        for hook in hooks:
            clauses = hmod._ENGINE_HOOKS[hook]
            assert clauses(hmod._engine_digests(hook, space, decode)(s)) == clauses(slow)
        checked += 1
    assert checked


class TestEngineAgainstGeneric:
    """The table engine's digests must equal the public-module digests,
    field by field, on every instance the engine would check."""

    def test_codim2_n5_full(self):
        for n in (3, 4, 5):
            _assert_same_digests(("topin", "chardepth"), _engine_space(n, n - 2, 0, 0),
                                 COMPLEX_FIELDS)

    @pytest.mark.slow
    def test_codim2_n6_sampled(self):
        _assert_same_digests(("topin", "chardepth"), _engine_space(6, 4, 400, 11),
                             COMPLEX_FIELDS)

    @pytest.mark.slow
    def test_codim2_n7_sampled(self):
        _assert_same_digests(("topin", "chardepth"), _engine_space(7, 5, 120, 13),
                             COMPLEX_FIELDS)

    def test_corbk_n5_full(self):
        for n in range(1, 6):
            for d in range(1, n + 1):
                _assert_same_digests(("corbk",), _engine_space(n, d, 0, 0), PURE_FIELDS)

    @pytest.mark.parametrize("n, d", CORBK_ENGINE_SPACES)
    def test_corbk_engine_spaces_sampled(self, n, d):
        space = _engine_space(n, d, 60, 17 + d)
        assert hmod._engine_eligible(THEOREMS["cor-bk"], space, GF2)
        _assert_same_digests(("corbk",), space, PURE_FIELDS)

    def test_graph_engines_n5_full(self):
        for n in (3, 4, 5):
            _assert_same_digests(("main2", "corlinear", "froberg"),
                                 _engine_space(n, "graphs", 0, 0), GRAPH_FIELDS)

    @pytest.mark.parametrize("n", [6, 7])
    def test_graph_engines_sampled(self, n):
        _assert_same_digests(("main2", "corlinear", "froberg"),
                             _engine_space(n, "graphs", 150, 23 + n), GRAPH_FIELDS)

    def test_engine_and_generic_runs_agree(self):
        sp = [SearchSpace(n=5, d=3)]
        generic = verify_theorem("thm-topin", sp)
        old = hmod.ENGINE_MIN_INSTANCES
        hmod.ENGINE_MIN_INSTANCES = 1
        try:
            engine = verify_theorem("thm-topin", sp)
        finally:
            hmod.ENGINE_MIN_INSTANCES = old
        assert generic.instances_checked == engine.instances_checked
        assert generic.ok() and engine.ok()


def _digest(**fields) -> SimpleNamespace:
    return SimpleNamespace(**fields)


#: (hook, digest, clauses): one digest per theorem that breaks it, with the
#: clause text both routes record, and one that satisfies it
CHECKER_CASES = [
    ("topin", _digest(d=3, min_cm_t=1, ndp_threshold=2, serre_threshold=1, dual_chordless_min=5),
     ["t=1: CM_t=True N(2,2)=False S_2=True chord<= 4=True"]),
    ("topin", _digest(d=3, min_cm_t=None, ndp_threshold=0, serre_threshold=0,
                      dual_chordless_min=0),
     [f"t={t}: CM_t=False N(2,{3 - t})=True S_{3 - t}=True chord<= {5 - t}=True"
      for t in range(4)]),
    ("topin", _digest(d=3, min_cm_t=1, ndp_threshold=1, serre_threshold=1, dual_chordless_min=5),
     []),
    ("chardepth", _digest(buchsbaum=True, d=4, depth=2, min_cm_t=1, dual_is_cycle=True),
     ["Buchsbaum but depth 2 < dim = 3"]),
    ("chardepth", _digest(buchsbaum=True, d=3, depth=2, min_cm_t=1, dual_is_cycle=False),
     ["non-CM=True but dual skeleton is-the-cycle=False"]),
    ("chardepth", _digest(buchsbaum=False, d=3, depth=0, min_cm_t=2, dual_is_cycle=False), []),
    ("corbk", _digest(buchsbaum=True, n=4, d=3, dims=(0, 0, 1, 0)),
     ["H_1 != 0 but n = 4 < 2d - i = 5"]),
    ("corbk", _digest(buchsbaum=True, n=5, d=3, dims=(0, 0, 1, 0)), []),
    ("main2", _digest(n=5, dual_min_cm_t=0, chordless_min=4),
     ["r=4: CM_(n-r)(dual clique)=True but chord condition=False",
      "r=5: CM_(n-r)(dual clique)=True but chord condition=False"]),
    ("main2", _digest(n=5, dual_min_cm_t=2, chordless_min=4), []),
    ("corlinear", _digest(n=5, dual_min_cm_t=2, chordless_max=0, linear=True),
     ["r=4 (r-chordal): CM_(n-r)=False but linear resolution=True",
      "r=5 (r-chordal): CM_(n-r)=False but linear resolution=True"]),
    ("corlinear", _digest(n=5, dual_min_cm_t=2, chordless_max=5, linear=False), []),
    ("froberg", _digest(linear=True, chordless_min=4),
     ["linear resolution=True but chordal=False"]),
    ("froberg", _digest(linear=False, chordless_min=4), []),
]


@pytest.mark.parametrize("hook, digest, clauses", CHECKER_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CHECKER_CASES)])
def test_every_checker_can_fail(hook, digest, clauses):
    assert hmod._ENGINE_HOOKS[hook](digest) == clauses


class TestCoverFilterBehaviors:
    def test_both_settings_run(self):
        on = verify_theorem("remark-serre", [SearchSpace(n=4, d=2, cover=True)])
        off = verify_theorem("remark-serre", [SearchSpace(n=4, d=2, cover=False)])
        assert on.instances_checked == 41
        assert off.instances_checked == 63
        assert on.ok() and off.ok()
