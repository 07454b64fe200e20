"""Digest agreement between the GF(2) table engine and the generic route.

Each engine kernel is compared value by value with the public modules,
on every instance for n <= 5 and on seeded samples at n = 6 and 7; the
N_{2,.} threshold and full linearity on every instance for n <= 5 and on
seeded samples at n = 6 and 7, and the chordless span on every instance
for n <= 5.  The GF(2) homology of closures and clique complexes is
also compared with an elimination of every boundary column, without
the clearing the engine uses.  The LinkTables and FlagTables the
engines read are checked entry by entry: each LinkTables entry against
link_profile, and each FlagTables entry (the least nonlinear step of
I_{clique(G)}, which the N_{2,.} threshold and full linearity read for
the cards of a graph) against the Betti table of hochster_betti.  A
theorem check that holds returns no clauses on either route, so
comparing only whether a counterexample appeared cannot catch a wrong
digest; these comparisons can.
"""

from __future__ import annotations

import random
from math import comb

import pytest

from srlab import GF2, SearchSpace, enumerate_graphs, enumerate_pure_complexes
from srlab import _engine
from srlab._engine import (
    codim2_engine,
    cover_filter,
    deck_key,
    flag_dims,
    flag_tables,
    level_hom,
    link_tables,
    orbit_reps,
    pure_space_engine,
)
from srlab.betti import FULL_LINEARITY, check_ndp, hochster_betti
from srlab.complexes import alexander_dual
from srlab.criteria import NO_VIOLATION, is_buchsbaum, link_profile, min_cm_t
from srlab.graphs import Graph, chordless_span, clique_complex
from srlab.homology import faces_by_size_from_masks, reduced_homology

from conftest import brute_chordless
from test_homology import _dims_by_elimination

SAMPLE = {6: 400, 7: 200}  # seeded instances per space above n = 5


def space(n: int, d, cover: bool, seed: int = 0) -> SearchSpace:
    """Every instance for n <= 5 or at most 10 slots, a seeded sample above."""
    sp = SearchSpace(n=n, d=d, cover=cover)
    if n <= 5 or sp.slot_count() <= 10:
        return sp
    return SearchSpace(n=n, d=d, mode="sample", count=SAMPLE[n], seed=seed + n, cover=cover)


def covers_reference(slots: list[int], n: int):
    """The cover filter by decoding: the flagged slots' union is [n]."""
    full = (1 << n) - 1

    def keep(s: int) -> bool:
        union = 0
        for i, slot in enumerate(slots):
            if s >> i & 1:
                union |= slot
        return union == full
    return keep


def pure_instances(n: int, d: int, cover: bool, seed: int = 0):
    """(facet-set mask, Complex) pairs decoded by the harness."""
    sp = space(n, d, cover, seed)
    keep = covers_reference(sp.slot_masks(), n) if cover else None
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
            # the clearing reduction against one that eliminates every column
            assert lh.dims_from_levels(expected) == _dims_by_elimination(c.facet_masks, 2), (
                n, k, s)


@pytest.mark.parametrize("n", range(2, 8))
def test_flag_dims_match_clique_complex_homology(n):
    for e, g in graph_instances(n):
        cc = clique_complex(g)
        assert flag_dims(e, n) == reduced_homology(cc, GF2).dims, (n, e)
        assert flag_dims(e, n) == _dims_by_elimination(cc.facet_masks, 2), (n, e)


@pytest.mark.parametrize("n", range(3, 8))
def test_graph_decoding_and_filters(n):
    eng = codim2_engine(n)
    no_isolated = covers_reference(eng.pair_slots, n)
    for e, g in graph_instances(n):
        assert eng.adj_of_edges(e) == g.adj, (n, e)
        assert cover_filter(n, 2)(e) == no_isolated(e), (n, e)
    covers = covers_reference(eng.facet_slots, n)
    for s, _ in pure_instances(n, n - 2, cover=False):
        assert cover_filter(n, n - 2)(s) == covers(s), (n, s)


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (5, 3), (6, 3), (7, 3)])
def test_pure_engine_filters(n, d):
    """The shared cover filter and the Buchsbaum gate of the pure-space
    engine; (7, 3) has 35 facet slots, so its folds read four table
    chunks."""
    eng = pure_space_engine(n, d)
    covers = covers_reference(eng.facet_slots, n)
    for s, c in pure_instances(n, d, cover=False, seed=d):
        assert cover_filter(n, d)(s) == covers(s), (n, d, s)
        if covers(s) and n <= 6:
            assert eng.is_buchsbaum(s) == is_buchsbaum(c, GF2), (n, d, s)


@pytest.mark.parametrize("n", [3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_complement_fold(n):
    """Complementing reverses the sorted slot order, so the one fold f2e
    maps facet masks to complement-pair masks and back: dual_mask is an
    involution on every covered mask, and a facet mask has
    the deck of its complement graph (every covered mask for n <= 6, a
    seeded sample at n = 7)."""
    eng = codim2_engine(n)
    K = comb(n, 2)
    for i in range(K):
        assert eng.facet_slots[i] == ((1 << n) - 1) ^ eng.pair_slots[K - 1 - i]
        assert eng.f2e.value(1 << i) == 1 << (K - 1 - i)
    covered = list(filter(cover_filter(n, n - 2), range(1, 1 << K)))
    for s in covered:
        assert eng.dual_mask(eng.dual_mask(s)) == s, (n, s)
    if n != 4:  # at n = 4 both keys are deck_key(4, 2)
        by_facets, by_edges = deck_key(n, n - 2), deck_key(n, 2)
        for s in covered if n <= 6 else random.Random(n).sample(covered, 20_000):
            assert by_facets(s) == by_edges(eng.f2e.value(s)), (n, s)


@pytest.mark.parametrize("n", range(3, 8))
def test_codim2_analyze_matches_generic(n):
    eng = codim2_engine(n)
    for s, c in pure_instances(n, n - 2, cover=True):
        max_unclean, serre_viol, dims = eng.analyze_full(s)
        assert max_unclean + 1 == min_cm_t(c, GF2), (n, s)
        assert serre_viol == link_profile(c.facet_masks, GF2)[1], (n, s)
        assert dims == reduced_homology(c, GF2).dims == _dims_by_elimination(c.facet_masks, 2), (
            n, s)


@pytest.mark.parametrize("n", range(3, 8))
def test_ndp_threshold_matches_dual_ideal_betti(n):
    """Least t with N_{2, d-t} on the dual's ideal, against check_ndp on
    hochster_betti of the Alexander dual."""
    eng = codim2_engine(n)
    d = n - 2
    for s, c in pure_instances(n, d, cover=True):
        dtbl = hochster_betti(alexander_dual(c), GF2, "ideal")
        expected = min(t for t in range(d + 1) if check_ndp(dtbl, 2, d - t))
        dims = reduced_homology(c, GF2).dims
        assert eng.ndp_threshold(eng.dual_mask(s), dims) == expected, (n, s)


@pytest.mark.parametrize("n", range(3, 8))
def test_linearity_data_matches_clique_ideal_betti(n):
    """Full linearity of I_{clique(G)}, against check_ndp on its hochster_betti."""
    eng = codim2_engine(n)
    for e, g in graph_instances(n):
        expected = check_ndp(hochster_betti(clique_complex(g), GF2, "ideal"), 2, FULL_LINEARITY)
        assert eng.linearity_data(e) == expected, (n, e)


@pytest.mark.parametrize("n", range(1, 6))
def test_chordless_span_matches_graphs(n):
    """The span DFS against the permutation oracle, also with a length
    cap; the edgeless graph included (a graph space needs n >= 2)."""
    for e, g in [(0, Graph(n, []))] + (list(graph_instances(n)) if n >= 2 else []):
        lengths = [len(c) for c in brute_chordless(g)]
        assert chordless_span(g.adj) == (min(lengths, default=0), max(lengths, default=0)), (n, e)
        lo, _ = chordless_span(g.adj, early_min=True)
        assert lo == min(lengths, default=0), (n, e)
        for r in range(3, n + 1):
            capped = [k for k in lengths if k <= r]
            assert chordless_span(g.adj, max_len=r) == (min(capped, default=0),
                                                        max(capped, default=0)), (n, e, r)


# ---------------------------------------------------------------------------
# the digest tables, entry by entry

FULL_SLOTS = 10      # tables with at most this many slots are checked on every entry
TABLE_SAMPLE = 1000  # seeded entries per larger table in the quick loop


def _link_table_keys() -> list[tuple[int, int]]:
    """(m, k) of every LinkTables the engines read: Codim2Engine(n) for
    3 <= n <= 7 and each PureSpaceEngine(n, d) that cor-bk can route
    (n <= 7, C(n-1, d-1) <= 15) read (n-1, d-1), which reads the tables
    of its vertex links, one size down, to k = 1."""
    tops = {(n - 1, n - 3) for n in range(4, 8)}
    tops |= {(n - 1, d - 1) for n in range(2, 8) for d in range(2, n + 1)
             if comb(n - 1, d - 1) <= 15}
    return sorted({(m - i, k - i) for m, k in tops for i in range(k)})


LINK_TABLE_KEYS = _link_table_keys()


def _table_entries(slots: int, rep: list[int], seed: str, every: bool) -> list[int]:
    """Every nonzero entry index, or a seeded sample above FULL_SLOTS slots;
    a sample must mostly hit entries copied from an orbit representative."""
    if every or slots <= FULL_SLOTS:
        return list(range(1, 1 << slots))
    sample = random.Random(seed).sample(range(1, 1 << slots), TABLE_SAMPLE)
    assert sum(rep[s] != s for s in sample) > TABLE_SAMPLE // 2
    return sample


def _check_link_table(m: int, k: int, every: bool) -> None:
    lt = link_tables(m, k)
    for s in _table_entries(len(lt.slots), orbit_reps(m, k), f"link:{m}:{k}", every):
        facets = tuple(f for i, f in enumerate(lt.slots) if s >> i & 1)
        assert lt.digest[s] == link_profile(facets, GF2), (m, k, s)


def _check_flag_table(w: int, every: bool) -> None:
    """Each entry against the least step i of the Betti table of
    I_{clique(G)} with beta_{i,j} != 0 for some j != i + 2."""
    ft = flag_tables(w)
    slots = len(ft.pair_slots)
    for e in _table_entries(slots, orbit_reps(w, 2), f"flag:{w}", every):
        edges = [((p & -p).bit_length(), p.bit_length())
                 for i, p in enumerate(ft.pair_slots) if e >> i & 1]
        table = hochster_betti(clique_complex(Graph(w, edges)), GF2, "ideal")
        expected = min((i for (i, j), v in table.entries.items() if v and j != i + 2),
                       default=NO_VIOLATION)
        assert ft.step[e] == expected, (w, e)


def test_link_table_keys_cover_the_engines():
    for n in range(3, 8):
        codim2_engine(n)
    for n in range(1, 8):
        for d in range(1, n + 1):
            if comb(n - 1, d - 1) <= 15:
                pure_space_engine(n, d)
    assert set(_engine._LINK_TABLES) <= set(LINK_TABLE_KEYS)
    assert max(comb(m, k) for m, k in LINK_TABLE_KEYS) == 15


@pytest.mark.parametrize("m, k", LINK_TABLE_KEYS)
def test_link_tables_match_link_profile(m, k):
    _check_link_table(m, k, every=False)


@pytest.mark.parametrize("w", range(2, 7))
def test_flag_tables_match_clique_homology(w):
    _check_flag_table(w, every=False)


@pytest.mark.slow
@pytest.mark.parametrize("m, k", [key for key in LINK_TABLE_KEYS if comb(*key) > FULL_SLOTS])
def test_link_tables_every_entry(m, k):
    _check_link_table(m, k, every=True)


@pytest.mark.slow
def test_flag_tables_every_entry():
    _check_flag_table(6, every=True)
