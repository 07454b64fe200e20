"""The orbit tables behind the memoized exhaustive runs, and the label
invariance of the engine digests that makes memoizing by orbit sound.

``orbit_reps(n, k)[s]`` must be the least slot mask in the S_n-orbit of
``s``; the class counts are those of OEIS A000088 (graphs on n
unlabeled vertices), both for edge sets (k = 2) and for facet sets of
codimension-2 complexes (k = n - 2, the complements of edges).  Every
digest the engine checks must then be equal at ``s`` and at ``rep[s]``.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from math import factorial

import pytest

from srlab import SearchSpace
from srlab._bits import size_subsets
from srlab._engine import chordless_span_adj, codim2_engine, orbit_reps, pure_space_engine

A000088 = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
SAMPLE_N6 = 300  # seeded masks per n = 6 space


def _cases(n_values):
    """(n, k) pairs for edge sets and codimension-2 facet sets."""
    return sorted({(n, k) for n in n_values for k in (2, n - 2) if k >= 0})


def _brute_rep(n: int, k: int, s: int) -> int:
    """Least image of s over all n! relabelings of [n]."""
    slots = size_subsets(n, k)
    index = {m: i for i, m in enumerate(slots)}
    members = [slots[i] for i in range(len(slots)) if s >> i & 1]
    best = s
    for perm in permutations(range(n)):
        image = 0
        for f in members:
            g = 0
            for v in range(n):
                if f >> v & 1:
                    g |= 1 << perm[v]
            image |= 1 << index[g]
        best = min(best, image)
    return best


@pytest.mark.parametrize("n, k", _cases(range(1, 7)))
def test_class_counts_match_a000088(n, k):
    rep = orbit_reps(n, k)
    assert len(rep) == 1 << len(size_subsets(n, k))
    assert len(set(rep)) == A000088[n]


@pytest.mark.slow
@pytest.mark.parametrize("k", [2, 5])
def test_class_counts_n7(k):
    assert len(set(orbit_reps(7, k))) == A000088[7]


@pytest.mark.parametrize("n, k", _cases(range(1, 7)) + [(6, 3)])
def test_reps_are_least_and_orbits_divide_group_order(n, k):
    rep = orbit_reps(n, k)
    for s, r in enumerate(rep):
        assert rep[r] == r <= s, (n, k, s)
    sizes = Counter(rep)
    assert sum(sizes.values()) == len(rep)
    assert all(factorial(n) % size == 0 for size in sizes.values()), (n, k)


@pytest.mark.parametrize("n, k", _cases(range(1, 6)))
def test_reps_match_brute_force_relabeling(n, k):
    rep = orbit_reps(n, k)
    for s in range(len(rep)):
        assert rep[s] == _brute_rep(n, k, s), (n, k, s)


# ---------------------------------------------------------------------------
# label invariance of the engine digests


def _masks(n: int, d, keep):
    """Every covered mask for n <= 5, a seeded sample of covered masks at n = 6."""
    if n <= 5:
        sp = SearchSpace(n=n, d=d)
    else:
        sp = SearchSpace(n=n, d=d, mode="sample", count=SAMPLE_N6, seed=31 + n)
    return list(sp.iter_masks(keep))


def _complex_digests(eng, s: int) -> tuple:
    t_cm, serre_viol, dims, _ = eng.analyze_full(s)
    gmask = eng.dual_graph_mask(s)
    return (t_cm, serre_viol, dims, eng.link_digest(s), eng.ndp_threshold(gmask, dims),
            chordless_span_adj(eng.adj_of_edges(gmask)))


def _graph_digests(eng, e: int) -> tuple:
    return (eng.linearity_data(e), chordless_span_adj(eng.adj_of_edges(e)),
            eng.ndp_threshold(e, None))


@pytest.mark.parametrize("n", range(3, 7))
def test_codim2_digests_are_label_invariant(n):
    eng = codim2_engine(n)
    rep = orbit_reps(n, n - 2)
    masks = _masks(n, n - 2, eng.covers)
    assert masks
    for s in masks:
        assert _complex_digests(eng, s) == _complex_digests(eng, rep[s]), (n, s, rep[s])


@pytest.mark.parametrize("n", range(3, 7))
def test_graph_digests_are_label_invariant(n):
    eng = codim2_engine(n)
    rep = orbit_reps(n, 2)
    masks = _masks(n, "graphs", eng.graph_no_isolated)
    assert masks
    for e in masks:
        assert _graph_digests(eng, e) == _graph_digests(eng, rep[e]), (n, e, rep[e])


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)])
def test_pure_engine_digests_are_label_invariant(n, d):
    eng = pure_space_engine(n, d)
    rep = orbit_reps(n, d)
    for s in _masks(n, d, eng.covers):
        r = rep[s]
        assert eng.is_buchsbaum(s) == eng.is_buchsbaum(r), (n, d, s)
        assert eng.lh.dims_pure(d, s) == eng.lh.dims_pure(d, r), (n, d, s)
