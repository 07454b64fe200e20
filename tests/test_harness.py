"""Enumeration spaces, theorem runner, engine/generic agreement."""

from __future__ import annotations

import json
from math import comb

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
from srlab._engine import EngineError, codim2_engine, pure_space_engine
from srlab.harness import (
    HarnessError,
    THEOREMS,
    _check_chardepth,
    _check_corbk,
    _check_corlinear,
    _check_froberg,
    _check_main2,
    _check_topin,
    default_spaces,
    load_manifest,
    register_theorem,
)
from srlab.homology import FieldSpec


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
    """Exhaustive spaces check one instance per S_n-orbit; the records must
    still be those of a per-instance run."""

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
        covered = [s for s in range(1, 1 << len(slots))
                   if hmod._mask_cover(slots, 31)(s)]
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
            # sampled spaces check every instance, so nothing is assumed there
            r = verify_theorem("test-labeled", [SearchSpace(
                n=5, d=3, mode="sample", count=50, seed=3, cover=False)])
            assert not r.ok()
        finally:
            THEOREMS.pop("test-labeled")

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


class TestEngineAgainstGeneric:
    """The table engine must agree with the public-module route."""

    def test_codim2_n5_full(self):
        eng = codim2_engine(5)
        sp = SearchSpace(n=5, d=3)
        slots = sp.slot_masks()
        for s in range(1, 1 << len(slots)):
            if not eng.covers(s):
                continue
            c = Complex(5, tuple(slots[i] for i in range(len(slots)) if s >> i & 1),
                        _trusted=True)
            assert bool(eng.topin_clauses(s)) == bool(_check_topin(c, GF2))
            assert bool(eng.chardepth_clauses(s)) == bool(_check_chardepth(c, GF2))

    @pytest.mark.slow
    def test_codim2_n6_sampled(self):
        eng = codim2_engine(6)
        sp = SearchSpace(n=6, d=4, mode="sample", count=400, seed=11)
        slots = sp.slot_masks()
        for s in sp.iter_masks():
            if not eng.covers(s):
                continue
            c = Complex(6, tuple(slots[i] for i in range(len(slots)) if s >> i & 1),
                        _trusted=True)
            assert bool(eng.topin_clauses(s)) == bool(_check_topin(c, GF2))
            assert bool(eng.chardepth_clauses(s)) == bool(_check_chardepth(c, GF2))

    @pytest.mark.slow
    def test_codim2_n7_sampled(self):
        eng = codim2_engine(7)
        sp = SearchSpace(n=7, d=5, mode="sample", count=120, seed=13)
        slots = sp.slot_masks()
        for s in sp.iter_masks(eng.covers):
            c = Complex(7, tuple(slots[i] for i in range(len(slots)) if s >> i & 1),
                        _trusted=True)
            assert bool(eng.topin_clauses(s)) == bool(_check_topin(c, GF2))
            assert bool(eng.chardepth_clauses(s)) == bool(_check_chardepth(c, GF2))

    def test_corbk_n5_full(self):
        for d in (2, 3, 4):
            eng = pure_space_engine(5, d)
            decode = hmod._decoder(SearchSpace(n=5, d=d))
            for s in range(1, 1 << len(eng.facet_slots)):
                if not eng.covers(s):
                    continue
                c = decode(s)
                assert bool(eng.corbk_clauses(s)) == bool(_check_corbk(c, GF2))

    def test_graph_engines_n5_full(self):
        eng = codim2_engine(5)
        for e in range(1, 1 << 10):
            if not eng.graph_no_isolated(e):
                continue
            g = Graph.from_adj(eng.adj_of_edges(e))
            assert bool(eng.main2_clauses(e)) == bool(_check_main2(g, GF2))
            assert bool(eng.corlinear_clauses(e)) == bool(_check_corlinear(g, GF2))
            assert bool(eng.froberg_clauses(e)) == bool(_check_froberg(g, GF2))

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


class TestCoverFilterBehaviors:
    def test_both_settings_run(self):
        on = verify_theorem("remark-serre", [SearchSpace(n=4, d=2, cover=True)])
        off = verify_theorem("remark-serre", [SearchSpace(n=4, d=2, cover=False)])
        assert on.instances_checked == 41
        assert off.instances_checked == 63
        assert on.ok() and off.ok()
