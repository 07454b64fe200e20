"""Digest agreement between the GF(2) table engine and the generic route.

Each engine kernel is compared value by value with the public modules,
on every instance for n <= 5 and on seeded samples at n = 6 and 7.  A
theorem check that holds returns no clauses on either route, so
comparing only whether a counterexample appeared cannot catch a wrong
digest; these comparisons can.
"""

from __future__ import annotations

import pytest

from srlab import GF2, SearchSpace, enumerate_graphs, enumerate_pure_complexes
from srlab._engine import _SERRE_NONE, codim2_engine, flag_dims, level_hom, pure_space_engine
from srlab.criteria import NO_VIOLATION, is_buchsbaum, link_profile, min_cm_t
from srlab.graphs import clique_complex
from srlab.harness import _mask_cover
from srlab.homology import faces_by_size_from_masks, reduced_homology

SAMPLE = {6: 400, 7: 200}  # seeded instances per space above n = 5


def space(n: int, d, cover: bool, seed: int = 0) -> SearchSpace:
    """Every instance for n <= 5 or at most 10 slots, a seeded sample above."""
    sp = SearchSpace(n=n, d=d, cover=cover)
    if n <= 5 or sp.slot_count() <= 10:
        return sp
    return SearchSpace(n=n, d=d, mode="sample", count=SAMPLE[n], seed=seed + n, cover=cover)


def pure_instances(n: int, d: int, cover: bool, seed: int = 0):
    """(facet-set mask, Complex) pairs decoded by the harness."""
    sp = space(n, d, cover, seed)
    keep = _mask_cover(sp.slot_masks(), (1 << n) - 1) if cover else None
    return zip(sp.iter_masks(keep), enumerate_pure_complexes(sp))


def graph_instances(n: int, seed: int = 0):
    """(edge-set mask, Graph) pairs decoded by the harness, isolated vertices allowed."""
    sp = space(n, "graphs", False, seed)
    return zip(sp.iter_masks(), enumerate_graphs(sp))


@pytest.mark.parametrize("n", range(1, 8))
def test_closure_matches_face_enumeration(n):
    lh = level_hom(n)
    index = [{f: i for i, f in enumerate(level)} for level in lh.levels]
    for k in range(1, n + 1):
        for s, c in pure_instances(n, k, cover=False, seed=k):
            groups = faces_by_size_from_masks(c.facet_masks)
            expected = [sum(1 << index[j][f] for f in groups[j]) for j in range(k + 1)]
            assert lh.closure(k, s) == expected, (n, k, s)


@pytest.mark.parametrize("n", range(2, 8))
def test_flag_dims_match_clique_complex_homology(n):
    for e, g in graph_instances(n):
        assert flag_dims(e, n) == reduced_homology(clique_complex(g), GF2).dims, (n, e)


@pytest.mark.parametrize("n", range(3, 8))
def test_graph_decoding_and_filters(n):
    eng = codim2_engine(n)
    no_isolated = _mask_cover(eng.pair_slots, (1 << n) - 1)
    for e, g in graph_instances(n):
        assert eng.adj_of_edges(e) == g.adj, (n, e)
        assert eng.graph_no_isolated(e) == no_isolated(e), (n, e)
    covers = _mask_cover(eng.facet_slots, (1 << n) - 1)
    for s, _ in pure_instances(n, n - 2, cover=False):
        assert eng.covers(s) == covers(s), (n, s)


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (5, 3), (6, 3), (7, 3)])
def test_pure_engine_filters(n, d):
    """Cover filter and Buchsbaum gate of the pure-space engine; (7, 3)
    has 35 facet slots, so its folds read four table chunks."""
    eng = pure_space_engine(n, d)
    covers = _mask_cover(eng.facet_slots, (1 << n) - 1)
    for s, c in pure_instances(n, d, cover=False, seed=d):
        assert eng.covers(s) == covers(s), (n, d, s)
        if covers(s) and n <= 6:
            assert eng.is_buchsbaum(s) == is_buchsbaum(c, GF2), (n, d, s)


@pytest.mark.parametrize("n", range(3, 8))
def test_codim2_analyze_matches_generic(n):
    eng = codim2_engine(n)
    for s, c in pure_instances(n, n - 2, cover=True):
        t_cm, serre_viol, dims = eng.analyze(s)
        generic_viol = link_profile(c.facet_masks, GF2)[1]
        assert t_cm == min_cm_t(c, GF2), (n, s)
        assert serre_viol == (_SERRE_NONE if generic_viol == NO_VIOLATION else generic_viol), (n, s)
        assert dims == reduced_homology(c, GF2).dims, (n, s)
