"""The orbit tables behind the memoized exhaustive runs, and the label
invariance of the engine digests that makes memoizing by orbit sound.

``orbit_reps(n, k)[s]`` must be the least slot mask in the S_n-orbit of
``s``; the class counts are those of OEIS A000088 (graphs on n
unlabeled vertices), both for edge sets (k = 2) and for facet sets of
codimension-2 complexes (k = n - 2, the complements of edges).
``orbit_classes(n, k)`` must list each representative with the size of
its orbit, and the cover filter must be constant on every orbit, which
is what lets the harness filter, check and count exhaustive spaces one
orbit at a time.  ``deck_key(n, k)``, the class key of sampled n = 7
spaces, must be equal at two masks iff their orbit representatives are.
Every digest the engine checks must then be equal at ``s`` and at
``rep[s]``.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from math import comb, factorial

import pytest

from srlab import SearchSpace
from srlab import harness as hmod
from srlab._bits import size_subsets
from srlab._engine import (
    codim2_engine,
    cover_filter,
    deck_key,
    orbit_classes,
    orbit_reps,
    pure_space_engine,
)

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
# orbit weights: what the exhaustive harness counts instead of labeled masks


#: every (n, k) with 1 <= k <= n whose orbit table has at most 15 slots
SMALL_TABLES = [(n, k) for n in range(1, 16) for k in range(1, n + 1) if comb(n, k) <= 15]


@pytest.mark.parametrize("n, k", SMALL_TABLES)
def test_orbit_classes_are_the_counted_reps(n, k):
    assert orbit_classes(n, k) == sorted(Counter(orbit_reps(n, k)).items())


def _assert_cover_filter_constant_on_orbits(n: int, k: int) -> None:
    keep = cover_filter(n, k)
    rep = orbit_reps(n, k)
    assert any(map(keep, range(len(rep))))
    assert all(keep(s) == keep(rep[s]) for s in range(len(rep))), (n, k)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(1, n + 1)])
def test_cover_filter_is_constant_on_orbits(n, k):
    _assert_cover_filter_constant_on_orbits(n, k)


@pytest.mark.slow
@pytest.mark.parametrize("k", [2, 5])
def test_orbit_weights_n7(k):
    assert orbit_classes(7, k) == sorted(Counter(orbit_reps(7, k)).items())
    _assert_cover_filter_constant_on_orbits(7, k)


# ---------------------------------------------------------------------------
# the deck: a complete class key for edge sets and codimension-2 facet sets


@pytest.mark.parametrize("n, k", _cases(range(3, 7)))
def test_deck_key_separates_exactly_the_orbits(n, k):
    key = deck_key(n, k)
    rep = orbit_reps(n, k)
    classes: dict = {}
    for s in range(len(rep)):
        classes.setdefault(key(s), set()).add(rep[s])
    assert all(len(reps) == 1 for reps in classes.values()), (n, k)  # a key, one class
    assert len(classes) == A000088[n], (n, k)                         # a class, one key


@pytest.mark.slow
@pytest.mark.parametrize("k", [2, 5])
def test_deck_key_n7(k):
    key = deck_key(7, k)
    rep = orbit_reps(7, k)
    keys = {r: key(r) for r in set(rep)}
    assert len(keys) == len(set(keys.values())) == A000088[7]
    assert all(key(s) == keys[rep[s]] for s in range(len(rep)))


@pytest.mark.parametrize("n, k", [(2, 2), (2, 0), (5, 1), (6, 3), (8, 2)])
def test_deck_key_refuses_other_spaces(n, k):
    with pytest.raises(ValueError):
        deck_key(n, k)


# ---------------------------------------------------------------------------
# label invariance of the engine digests


def _masks(n: int, d, keep):
    """Every covered mask for n <= 5, a seeded sample of covered masks at n = 6."""
    if n <= 5:
        sp = SearchSpace(n=n, d=d)
    else:
        sp = SearchSpace(n=n, d=d, mode="sample", count=SAMPLE_N6, seed=31 + n)
    return list(sp.iter_masks(keep))


#: the digest fields each engine-hooked theorem may read
COMPLEX_FIELDS = ("min_cm_t", "serre_threshold", "dims", "ndp_threshold", "dual_adj",
                  "dual_chordless_min", "dual_is_cycle", "buchsbaum", "depth")
GRAPH_FIELDS = ("adj", "dual_min_cm_t", "linear", "chordless_min", "chordless_max")


def _digest(space: SearchSpace, hook: str, s: int, fields) -> tuple:
    dg = hmod._engine_digests(hook, space)(s)
    # the relabeling-dependent adjacency is compared by its degree sequence
    return tuple(sorted(a.bit_count() for a in getattr(dg, f)) if f.endswith("adj")
                 else getattr(dg, f) for f in fields)


@pytest.mark.parametrize("n", range(3, 7))
def test_codim2_digests_are_label_invariant(n):
    eng = codim2_engine(n)
    sp = SearchSpace(n=n, d=n - 2)
    rep = orbit_reps(n, n - 2)
    masks = _masks(n, n - 2, cover_filter(n, n - 2))
    assert masks
    for s in masks:
        expected = _digest(sp, "topin", rep[s], COMPLEX_FIELDS)
        assert _digest(sp, "topin", s, COMPLEX_FIELDS) == expected, (n, s, rep[s])
        assert eng.link_digest(s) == eng.link_digest(rep[s]), (n, s, rep[s])


@pytest.mark.parametrize("n", range(3, 7))
def test_graph_digests_are_label_invariant(n):
    eng = codim2_engine(n)
    sp = SearchSpace(n=n, d="graphs")
    rep = orbit_reps(n, 2)
    masks = _masks(n, "graphs", cover_filter(n, 2))
    assert masks
    for e in masks:
        expected = _digest(sp, "main2", rep[e], GRAPH_FIELDS)
        assert _digest(sp, "main2", e, GRAPH_FIELDS) == expected, (n, e, rep[e])
        if e == eng.full:  # the complete graph is no complex's dual skeleton
            continue
        ndp = [eng.ndp_threshold(x, eng.analyze_full(eng.dual_mask(x))[3]) for x in (e, rep[e])]
        assert ndp[0] == ndp[1], (n, e, rep[e])


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)])
def test_pure_engine_digests_are_label_invariant(n, d):
    eng = pure_space_engine(n, d)
    rep = orbit_reps(n, d)
    for s in _masks(n, d, cover_filter(n, d)):
        r = rep[s]
        assert eng.is_buchsbaum(s) == eng.is_buchsbaum(r), (n, d, s)
        assert eng.analyze_full(s)[:4] == eng.analyze_full(r)[:4], (n, d, s)
