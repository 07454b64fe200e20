"""Enumeration spaces, theorem runner, engine/generic agreement."""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from functools import reduce
from itertools import count, islice
from math import comb
from operator import or_
from types import SimpleNamespace

import pytest

from srlab import (
    Complex,
    FieldSpec,
    GF2,
    Graph,
    QQ,
    SearchSpace,
    alexander_dual,
    enumerate_graphs,
    enumerate_pure_complexes,
    replay_counterexample,
    satisfies_serre,
    skeleton_graph,
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

from conftest import all_complex_facets


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

    @pytest.mark.parametrize("name", ["NOPE", "C5.graph"])
    def test_fixture_must_name_a_complex(self, name):
        # C5.graph is a graph fixture: a fixture space decodes a complex
        with pytest.raises(HarnessError, match="no complex fixture"):
            SearchSpace(fixture=name).validate()
        with pytest.raises(HarnessError, match="no complex fixture"):
            verify_theorem("thm-er", [SearchSpace(fixture=name)])

    def test_sample_needs_seed(self):
        with pytest.raises(HarnessError):
            SearchSpace(n=4, d=2, mode="sample", count=5).validate()

    @pytest.mark.parametrize("d", [2.5, True, "foo"])
    def test_facet_size_must_be_an_int(self, d):
        # not read through int(): 2.5 would check the d = 2 space, True d = 1
        sp = SearchSpace(n=4, d=d)
        with pytest.raises(HarnessError, match="facet size must be an int"):
            sp.validate()
        with pytest.raises(HarnessError, match="facet size must be an int"):
            verify_theorem("thm-er", [sp])

    @pytest.mark.parametrize("space", [
        SearchSpace(n=4.5, d=2),
        SearchSpace(n=-3, d="graphs"),
        SearchSpace(n=True, d="graphs"),
        SearchSpace(n="4", d=2),
    ], ids=["float", "negative", "bool", "str"])
    def test_vertex_count_must_be_an_int(self, space):
        tid = "thm-main2" if space.kind == "graph" else "thm-er"
        with pytest.raises(HarnessError, match="vertex count must be an int"):
            space.validate()
        with pytest.raises(HarnessError, match="vertex count must be an int"):
            verify_theorem(tid, [space])

    @pytest.mark.parametrize("count, seed", [
        (2.5, 1), (True, 1), (0, 1), ("3", 1), (3, "x"), (3, 1.5), (3, True), (3, None),
    ])
    def test_sample_count_and_seed_must_be_ints(self, count, seed):
        # refused before the count is echoed in a run's JSON or the seed reaches random.Random
        sp = SearchSpace(n=4, d=2, mode="sample", count=count, seed=seed)
        with pytest.raises(HarnessError, match="sample mode needs an int seed"):
            sp.validate()
        with pytest.raises(HarnessError, match="sample mode needs an int seed"):
            verify_theorem("thm-er", [sp])

    @pytest.mark.parametrize("n", [0, 1])
    def test_graph_space_without_slots_rejected(self, n):
        # no edge slot on fewer than 2 vertices: such a run would check nothing
        sp = SearchSpace(n=n, d="graphs")
        assert sp.slot_count() == 0
        with pytest.raises(HarnessError):
            sp.validate()
        with pytest.raises(HarnessError):
            verify_theorem("thm-main2", [sp])

    def test_sample_slot_bound(self):
        # refused before any filter is built or any mask drawn
        big = SearchSpace(n=14, d=7, mode="sample", count=1, seed=1)  # 3,432 slots
        t0 = time.perf_counter()
        with pytest.raises(HarnessError, match="at most 70 slots"):
            verify_theorem("cor-bk", [big])
        with pytest.raises(HarnessError):
            list(enumerate_pure_complexes(big))
        assert time.perf_counter() - t0 < 1.0
        for n, d in ((9, 4), (13, "graphs")):  # 126 and 78 slots
            with pytest.raises(HarnessError):
                SearchSpace(n=n, d=d, mode="sample", count=1, seed=1).validate()
        # the largest spaces kept: every space on 8 vertices, graphs on 12,
        # cor-bk's 35-slot (7, 3) space, and every default space as a sample
        for n, d in ((8, 4), (12, "graphs"), (7, 3)):
            SearchSpace(n=n, d=d, mode="sample", count=1, seed=1).validate()
        for tid in theorem_ids():
            for sp in default_spaces(tid):
                sp.validate()
                if sp.kind != "fixture":
                    SearchSpace(n=sp.n, d=sp.d, mode="sample", count=5, seed=1).validate()

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

    @pytest.mark.parametrize("tid", ["thm-main2", "cor-linear", "froberg"])
    def test_graph_theorem_refuses_fixture_space(self, tid):
        # every fixture space holds a complex, never a graph
        with pytest.raises(HarnessError, match="expects graph spaces"):
            verify_theorem(tid, [SearchSpace(fixture="C4")])

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


def _covering_count(n: int, k: int) -> int:
    """Nonempty sets of k-subsets of [n] whose union is [n], by
    inclusion-exclusion over the vertices left uncovered."""
    return sum((-1) ** j * comb(n, j) * 2 ** comb(n - j, k) for j in range(n + 1))


class TestOrbitWeights:
    """Exhaustive spaces count each S_n-orbit by its size; the counts must
    match inclusion-exclusion, and the failing path must give the records
    of a per-instance run."""

    @pytest.mark.parametrize("tid", sorted(load_manifest()))
    def test_instances_checked_is_the_covering_count(self, tid):
        spaces = [sp for sp in default_spaces(tid)
                  if sp.kind != "fixture" and sp.mode == "exhaustive" and sp.n <= 6]
        for sp in spaces:
            assert verify_theorem(tid, [sp]).instances_checked == \
                _covering_count(sp.n, sp.slot_size), (tid, sp)

    #: covered orbits: graphs on 6 vertices with no isolated vertex (OEIS
    #: A002494); a codimension-2 complex on [n] misses a vertex iff every
    #: edge of its complement graph contains that vertex, so its covered
    #: orbits are the nonempty graphs on n vertices (A000088 less one) that
    #: are not a star K_{1,m}, m = 1..n-1
    @pytest.mark.parametrize("n, d, orbits", [(5, 3, 34 - 1 - 4), (6, 4, 156 - 1 - 5),
                                              (6, "graphs", 122)])
    def test_checks_once_per_covered_orbit(self, n, d, orbits):
        calls = []

        def counting(inst, field):
            calls.append(inst)
            return []

        sp = SearchSpace(n=n, d=d)
        register_theorem("test-counting", sp.kind, counting)
        try:
            r = verify_theorem("test-counting", [sp])
        finally:
            THEOREMS.pop("test-counting")
        assert r.ok() and r.instances_checked == _covering_count(n, sp.slot_size)
        assert len(calls) == orbits

    @pytest.mark.parametrize("cap", [16, 19, 200])
    def test_failing_classes_across_spaces_give_per_instance_records(self, cap):
        def three_facets(c, field):
            # label-invariant verdict, label-dependent clause text
            return [f"3 facets: {c.facets()}"] if len(c.facet_masks) == 3 else []

        spaces = [SearchSpace(n=4, d=2), SearchSpace(n=5, d=3)]
        register_theorem("test-three-facets", "complex", three_facets)
        try:
            r = verify_theorem("test-three-facets", spaces, cap=cap)
        finally:
            THEOREMS.pop("test-three-facets")
        expected = []
        checked = 0
        for sp in spaces:
            slots = sp.slot_masks()
            for s in range(1, 1 << len(slots)):
                facets = tuple(pick(slots, s))
                if reduce(or_, facets) != (1 << sp.n) - 1:
                    continue
                checked += 1
                c = Complex(sp.n, facets, _trusted=True)
                clauses = three_facets(c, GF2)
                if clauses:
                    expected.append({"space": sp.to_json(), "mask": s, "n": sp.n,
                                     "facets": [list(f) for f in c.facets()],
                                     "clauses": clauses})
        # 16 of the 3-edge graphs on [4] cover it: the cap 16 ends the first
        # space, 19 falls inside the second, 200 lies past every failure
        assert sum(rec["n"] == 4 for rec in expected) == 16 < 19 < len(expected) < 200
        assert r.counterexamples == expected[:cap]
        assert r.truncated == (len(expected) > cap)
        assert r.instances_checked == checked


class TestClassMemoChecks:
    """A failing class is checked once, and then only its recorded
    members past the one it was checked on are checked again."""

    @staticmethod
    def _run(sp: SearchSpace, kind: str, fails, cap: int):
        calls = []

        def counting(inst, field):
            calls.append(inst)
            return fails(inst)

        register_theorem("test-counting", kind, counting)
        try:
            r = verify_theorem("test-counting", [sp], cap=cap)
        finally:
            THEOREMS.pop("test-counting")
        return r, len(calls)

    @pytest.mark.parametrize("cap", [0, 5, 200])
    def test_orbit_space(self, cap):
        sp = SearchSpace(n=5, d=3)
        r, calls = self._run(sp, "complex",
                             lambda c: ["3 facets"] if len(c.facet_masks) == 3 else [], cap)
        rep = hmod._engine.orbit_reps(5, 3)
        rechecked = sum(rec["mask"] != rep[rec["mask"]] for rec in r.counterexamples)
        assert calls == 34 - 1 - 4 + rechecked  # the covered orbits of TestOrbitWeights
        assert r.instances_checked == _covering_count(5, 3)
        # 100 covered masks in 3 orbits: complements a triangle, P4 or P3 + K2
        assert len(r.counterexamples) == min(cap, 100) and r.truncated == (cap < 100)
        assert cap < 100 or rechecked == 100 - 3

    def test_deck_keyed_sample(self):
        sp = SearchSpace(n=7, d="graphs", mode="sample", count=300, seed=1)
        r, calls = self._run(sp, "graph",
                             lambda g: ["14 edges"] if len(g.edges()) == 14 else [], 5)
        key = deck_key(7, 2)
        first = {}
        for s in sp.iter_masks(hmod._keep(sp)):
            first.setdefault(key(s), s)
        rechecked = sum(first[key(rec["mask"])] != rec["mask"] for rec in r.counterexamples)
        assert len(r.counterexamples) == 5 and rechecked
        assert calls == len(first) + rechecked

    def test_exhaustive_space_past_the_orbit_tables_refused(self):
        # 22 and 24 slots: no orbit table, so no route walks them
        t0 = time.perf_counter()
        for n in (22, 24):
            with pytest.raises(HarnessError, match="at most 21 slots"):
                SearchSpace(n=n, d=1).validate()
            with pytest.raises(HarnessError):
                verify_theorem("cor-bk", [SearchSpace(n=n, d=1)])
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.slow
    @pytest.mark.parametrize("cap", [0, 64])
    def test_failing_run_stops_at_the_cap(self, cap):
        # every instance fails: the members are scanned up to the cap, not
        # through all 2^21 labelled masks
        sp = SearchSpace(n=7, d=5)
        hmod._engine.orbit_reps(7, 5)  # the orbit tables are built beforehand
        register_theorem("test-never", "complex", lambda c, field: ["nope"])
        try:
            t0 = time.perf_counter()
            r = verify_theorem("test-never", [sp], cap=cap)
            elapsed = time.perf_counter() - t0
        finally:
            THEOREMS.pop("test-never")
        assert elapsed < 0.2
        assert r.instances_checked == _covering_count(7, 5) == 2_096_731
        assert r.truncated and not r.ok()
        slots = sp.slot_masks()
        covered = (s for s in count(1) if reduce(or_, pick(slots, s)) == (1 << 7) - 1)
        assert [rec["mask"] for rec in r.counterexamples] == list(islice(covered, cap))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_engine_depth_of_the_non_cm_buchsbaum_class(n):
    """The covered codimension-2 complex whose dual 1-skeleton is the
    n-cycle is Buchsbaum, not CM, of depth d - 1: the engine digest
    reads that depth from the generic route."""
    cycle = {(1 << v) | (1 << (v + 1) % n) for v in range(n)}
    full = (1 << n) - 1
    space = SearchSpace(n=n, d=n - 2)
    slots = space.slot_masks()
    s = sum(1 << i for i, f in enumerate(slots) if full ^ f not in cycle)
    decode = hmod._decoder(space)
    fast = hmod._engine_digests("chardepth", space, decode)(s)
    slow = ComplexDigest(decode(s), GF2)
    for dg in (fast, slow):
        assert dg.buchsbaum and dg.min_cm_t == 1 and dg.dual_is_cycle
        assert dg.depth == dg.d - 1 == n - 3
        assert hmod._chardepth_clauses(dg) == []


def test_engine_depth_on_every_codim2_class_of_six_vertices():
    """Engine and generic depth agree on each covered class at n = 6, where
    depth d - 2 first occurs (one class, not Buchsbaum)."""
    space = SearchSpace(n=6, d=4)
    keep = hmod._keep(space)
    decode = hmod._decoder(space)
    engine = hmod._engine_digests("chardepth", space, decode)
    gaps = []
    for r, _ in hmod._engine.orbit_classes(6, 4)[1:]:
        if keep(r):
            fast, slow = engine(r), ComplexDigest(decode(r), GF2)
            assert fast.depth == slow.depth, r
            gaps.append(fast.d - fast.depth)
    assert sorted(set(gaps)) == [0, 1, 2] and gaps.count(2) == 1 and len(gaps) == 150


@pytest.mark.parametrize("n", range(6))
def test_dual_adj_without_the_dual(n):
    # {a, b} is a dual edge iff [n] \ {a, b} is no face, on every complex
    for facets in [()] + list(all_complex_facets(n)):
        c = Complex(n, facets, _trusted=True)
        assert hmod._dual_adj(c) == skeleton_graph(alexander_dual(c)).adj, facets


def _serre_threshold_by_loop(c: Complex, field: FieldSpec) -> int:
    """The least t in 0..d with S_{d-t}, by one satisfies_serre call per t."""
    d = c.dim + 1
    return next(t for t in range(d + 1) if satisfies_serre(c, d - t, field))


@pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
def test_serre_threshold_matches_the_loop(field):
    """The one formula max(0, d - 1 - serre_viol) against the loop over
    satisfies_serre, on every covered pure complex with n <= 5."""
    thresholds = Counter()
    for n in range(1, 6):
        for d in range(1, n + 1):
            for c in enumerate_pure_complexes(SearchSpace(n=n, d=d)):
                t = ComplexDigest(c, field).serre_threshold
                assert t == _serre_threshold_by_loop(c, field), (field, c)
                thresholds[t] += 1
    assert sorted(thresholds) == [0, 1, 2]


@pytest.mark.parametrize("n", range(3, 7))
def test_engine_serre_threshold_matches_the_loop(n):
    """The engine digest's threshold against the loop, on every covered
    codimension-2 mask for n <= 5 and every covered class at n = 6."""
    space = SearchSpace(n=n, d=n - 2)
    keep = hmod._keep(space)
    decode = hmod._decoder(space)
    engine = hmod._engine_digests("topin", space, decode)
    if n <= 5:
        masks = list(space.iter_masks(keep))
    else:
        masks = [r for r, _ in hmod._engine.orbit_classes(n, n - 2)[1:] if keep(r)]
    for s in masks:
        assert engine(s).serre_threshold == _serre_threshold_by_loop(decode(s), GF2), (n, s)
    assert masks


#: digest fields per kind of space the engine takes
COMPLEX_FIELDS = ("min_cm_t", "serre_threshold", "dims", "ndp_threshold", "dual_adj",
                  "dual_chordless_min", "dual_is_cycle", "buchsbaum", "depth")
PURE_FIELDS = ("min_cm_t", "serre_threshold", "dims", "buchsbaum")
GRAPH_FIELDS = ("adj", "dual_min_cm_t", "linear", "chordless_min", "chordless_max")
#: pure spaces above n = 5 that cor-bk routes to the engine
CORBK_ENGINE_SPACES = [
    (n, d) for n in (6, 7) for d in range(1, n + 1)
    if hmod._engine_eligible(THEOREMS["cor-bk"], SearchSpace(n=n, d=d), GF2)
]
#: the theorems with an engine route
ENGINE_HOOKED = sorted(tid for tid, td in THEOREMS.items() if td.engine_hook)


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

    def test_corbk_engine_spaces_follow_the_link_bound(self):
        # C(n-1, d-1) <= 15 leaves out only (7, 4) above n = 5
        assert CORBK_ENGINE_SPACES == [(6, d) for d in range(1, 7)] + [
            (7, d) for d in (1, 2, 3, 5, 6, 7)]

    def test_engine_and_generic_runs_agree(self, monkeypatch):
        """Each engine-hooked theorem's whole run on its default spaces with
        n <= 5 is the same on both routes; all of those spaces take the
        engine but graphs on 2 vertices."""
        runs = {}
        for tid in ENGINE_HOOKED:
            spaces = [sp for sp in default_spaces(tid) if sp.kind != "fixture" and sp.n <= 5]
            routed = [sp for sp in spaces if hmod._engine_eligible(THEOREMS[tid], sp, GF2)]
            assert routed == [sp for sp in spaces if sp.kind == "complex" or sp.n >= 3], tid
            runs[tid] = spaces, verify_theorem(tid, spaces)
        assert len(runs) == 6
        monkeypatch.setattr(hmod, "_engine_eligible", lambda td, space, field: False)
        for tid, (spaces, engine) in runs.items():
            assert engine.to_json() == verify_theorem(tid, spaces).to_json(), tid
            assert engine.ok() and engine.instances_checked, tid


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
