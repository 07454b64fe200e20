"""Hochster Betti tables, derived invariants, shape predicates."""

from __future__ import annotations

import functools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from srlab import (
    FULL_LINEARITY,
    GF2,
    QQ,
    Complex,
    alexander_dual,
    check_er_shape,
    check_ndp,
    check_subadditivity,
    hochster_betti,
    homological_invariants,
    minimal_nonfaces,
    render_betti,
)
from srlab._bits import antichain, mask_of, remap
from srlab.betti import BettiTable, betti_json, dual_ideal_table, ring_table
from srlab.homology import FieldSpec, clear_homology_cache, dims_cached, dims_over_field

from conftest import (all_complex_facets, all_pure_complexes, brute_minimal_nonfaces,
                      seeded_complexes)
from test_complexes import small_complexes
from test_homology import RP2_6, moore_space_mod3


class TestHochsterIndexing:
    def test_square_complete_intersection(self, c4):
        # two degree-2 generators, one syzygy in degree 4: the Koszul shape
        t = hochster_betti(c4, GF2, "ideal")
        assert t.entries == {(0, 2): 2, (1, 4): 1}
        inv = homological_invariants(hochster_betti(c4, GF2, "ring"))
        assert (inv.projdim_ring, inv.depth, inv.dim_ring, inv.cm) == (2, 2, 2, True)
        assert inv.regularity_ideal == 3

    def test_full_simplex_empty_table(self):
        t = hochster_betti(Complex.simplex(3), GF2, "ideal")
        assert t.entries == {}
        inv = homological_invariants(hochster_betti(Complex.simplex(3), GF2, "ring"))
        assert (inv.projdim_ring, inv.depth, inv.cm) == (0, 3, True)
        assert inv.regularity_ideal is None

    def test_ring_shift(self, c4):
        ideal = hochster_betti(c4, GF2, "ideal")
        ring = hochster_betti(c4, GF2, "ring")
        assert ring.entries[(0, 0)] == 1
        for (i, j), v in ideal.entries.items():
            assert ring.entries[(i + 1, j)] == v
        assert ring_table(ideal).entries == ring.entries

    def test_irrelevant_complex_koszul(self):
        # maximal ideal of 3 variables: binomial Betti numbers
        t = hochster_betti(Complex.irrelevant(3), GF2, "ideal")
        assert t.entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}

    def test_generator_degrees_match_nonfaces(self, mt6, r6, dualc5):
        for c in (mt6, r6, dualc5):
            t = hochster_betti(c, GF2, "ideal")
            by_size: dict[int, int] = {}
            for nf in minimal_nonfaces(c):
                by_size[len(nf)] = by_size.get(len(nf), 0) + 1
            gens = {j: v for (i, j), v in t.entries.items() if i == 0}
            assert gens == by_size

    @settings(max_examples=30, deadline=None)
    @given(small_complexes(max_n=5))
    def test_generator_row_equals_nonface_counts(self, c):
        if c.is_void:
            return
        for k in (GF2, QQ):
            t = hochster_betti(c, k, "ideal")
            by_size: dict[int, int] = {}
            for nf in minimal_nonfaces(c):
                by_size[len(nf)] = by_size.get(len(nf), 0) + 1
            assert {j: v for (i, j), v in t.entries.items() if i == 0} == by_size

    def test_facet_order_invariance(self, mt6):
        flipped = Complex.from_facets(list(reversed(mt6.facets())), n=6)
        assert hochster_betti(flipped, GF2, "ideal").entries == \
            hochster_betti(mt6, GF2, "ideal").entries

    def test_size_bound(self):
        # refused before any of the 2^23 restrictions is summed
        with pytest.raises(ValueError, match="exceeds bound 22"):
            hochster_betti(Complex.simplex(23), GF2)

    def test_void_refused(self):
        with pytest.raises(ValueError):
            hochster_betti(Complex.void(3), GF2)


class TestInvariants:
    def test_dualc5_depth(self, dualc5):
        inv = homological_invariants(hochster_betti(dualc5, GF2, "ring"))
        assert (inv.projdim_ring, inv.depth, inv.dim_ring, inv.cm) == (3, 2, 3, False)

    def test_d6_projdim_three(self, d6):
        inv = homological_invariants(hochster_betti(d6, GF2, "ring"))
        assert inv.projdim_ring == 3
        assert inv.depth == 3
        assert inv.dim_ring == 4

    def test_requires_ring_table(self, c4):
        with pytest.raises(ValueError):
            homological_invariants(hochster_betti(c4, GF2, "ideal"))


class TestNdp:
    def test_square(self, c4):
        t = hochster_betti(c4, GF2, "ideal")
        assert check_ndp(t, 2, 1) is True
        assert check_ndp(t, 2, 2) is False
        assert check_ndp(t, 2, 0) is True
        assert check_ndp(t, 2, -3) is True

    def test_dual_mt6_three_linear_steps(self, mt6):
        t = hochster_betti(alexander_dual(mt6), GF2, "ideal")
        assert all(j == 2 for (i, j) in t.entries if i == 0)
        assert check_ndp(t, 2, 3) is True

    def test_full_linearity_sentinel(self, c4, mt6):
        t = hochster_betti(c4, GF2, "ideal")
        assert check_ndp(t, 2, FULL_LINEARITY) is False
        t = hochster_betti(alexander_dual(mt6), GF2, "ideal")
        assert check_ndp(t, 2, FULL_LINEARITY) is False  # linear only three steps

    def test_wrong_generator_degree(self, r6):
        t = hochster_betti(r6, GF2, "ideal")
        assert check_ndp(t, 3, 1) is False  # generated in degree 2, not 3


class TestErShape:
    def test_pendant_cycle_table(self, r6):
        t = hochster_betti(r6, GF2, "ideal")
        assert check_er_shape(t, 6, 4, 2) is True
        assert check_er_shape(t, 6, 4, 1) is False

    def test_square_shape_tracks_dual_cmness(self, c4):
        # dual of the square is two disjoint edges: Buchsbaum, not CM
        t = hochster_betti(c4, GF2, "ideal")
        assert check_er_shape(t, 4, 2, 1) is True
        assert check_er_shape(t, 4, 2, 0) is False

    def test_empty_table_vacuous(self):
        t = hochster_betti(Complex.simplex(3), GF2, "ideal")
        assert check_er_shape(t, 3, 0, 0) is True


class TestSubadditivity:
    def test_square(self, c4):
        assert check_subadditivity(hochster_betti(c4, GF2, "ideal")) == []

    def test_mt6_and_dual(self, mt6):
        assert check_subadditivity(hochster_betti(mt6, GF2, "ideal")) == []
        assert check_subadditivity(hochster_betti(alexander_dual(mt6), GF2, "ideal")) == []

    def test_hand_built_violation(self):
        t = BettiTable("ideal", 8, 3, GF2, {(0, 2): 1, (1, 7): 1})
        v = check_subadditivity(t)
        hs = [x for x in v if x[0] == "HS"]
        assert hs == [("HS", 0, 2)]

    def test_window_violation(self):
        # e = 2 and row 0 empty on the window 3..4 below the (1,5) entry
        t = BettiTable("ideal", 8, 3, GF2, {(0, 2): 1, (1, 5): 1})
        assert ("TV", 0, 3) in check_subadditivity(t)

    @settings(max_examples=25, deadline=None)
    @given(small_complexes(max_n=5))
    def test_hochster_tables_always_clean(self, c):
        if c.is_void:
            return
        assert check_subadditivity(hochster_betti(c, GF2, "ideal")) == []


class TestPresentation:
    def test_render_square(self, c4):
        out = render_betti(hochster_betti(c4, GF2, "ideal"))
        lines = out.splitlines()
        assert lines[1].strip().startswith("2:")
        assert "total" in lines[-1]

    def test_json_payload(self, c4):
        obj = betti_json(hochster_betti(c4, GF2, "ideal"))
        assert obj["schema"] == "sr-lab/1"
        assert [0, 2, 2] in obj["entries"] and [1, 4, 1] in obj["entries"]


class TestCrossOracleSmall:
    def test_exhaustive_n4_both_fields(self):
        from srlab import reisner_cm
        for c in all_pure_complexes(4, 2):
            for k in (GF2, QQ):
                inv = homological_invariants(hochster_betti(c, k, "ring"))
                assert inv.cm == reisner_cm(c, k)

    def test_eagon_reiner_classical_case(self):
        # I_Delta has a linear resolution iff the dual is Cohen-Macaulay
        from srlab import reisner_cm
        for n in (3, 4, 5):
            for d in range(1, n + 1):
                for c in all_pure_complexes(n, d):
                    t = hochster_betti(c, GF2, "ideal")
                    e = t.gen_degree_max
                    if e is None:
                        continue  # full simplex: zero ideal
                    dual = alexander_dual(c)
                    lin = check_ndp(t, e, FULL_LINEARITY)
                    assert lin == reisner_cm(dual, GF2)


def _ring_table_every_restriction(c: Complex, field) -> BettiTable:
    """Hochster's sum over every W of [n], unused vertices and cones
    included, each restriction's homology computed with no cache."""
    ideal: dict[tuple[int, int], int] = {}
    for w in range(1, 1 << c.n):
        j = w.bit_count()
        dims = dims_over_field(antichain(f & w for f in c.facet_masks), field)
        for off, value in enumerate(dims):  # off = degree + 1
            if value and j - off - 1 >= 0:
                ideal[(j - off - 1, j)] = ideal.get((j - off - 1, j), 0) + value
    dim_ring = 0 if c.dim is None else c.dim + 1
    return ring_table(BettiTable("ideal", c.n, dim_ring, field, ideal))


FIELDS = [GF2, FieldSpec.gf(3), QQ]


def _with_unused_vertices(facets: tuple[int, ...], m: int, ghosts: int, rng) -> Complex:
    """The complex on [m] spread over [m + ghosts]: ``ghosts`` random
    vertices in no facet."""
    keep = sorted(rng.sample(range(m + ghosts), m))
    table = {1 << i: 1 << v for i, v in enumerate(keep)}
    return Complex(m + ghosts, remap(facets, table), _trusted=True)


class TestConeRestrictions:
    #: nonvoid complexes on [n]: the Dedekind number M(n), less the void complex
    COUNTS = {1: 2, 2: 5, 3: 19, 4: 167, 5: 7580}

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_every_complex(self, n, field):
        # hochster_betti lets dims_cached answer cones
        count = 0
        for facets in all_complex_facets(n):
            c = Complex(n, facets, _trusted=True)
            assert hochster_betti(c, field, "ring") == _ring_table_every_restriction(
                c, field), facets
            count += 1
        assert count == self.COUNTS[n]


def _lattice(c: Complex) -> set[int]:
    """Unions of minimal nonfaces, found by a scan of every subset."""
    gens = [mask_of(t) for t in brute_minimal_nonfaces(c)]
    return {w for w in range(1, 1 << c.n)
            if w == functools.reduce(operator.or_, (g for g in gens if g & w == g), 0)}


def _cross_polytope(k: int) -> Complex:
    """Boundary of the k-dimensional cross-polytope on 2k vertices: vertex
    i + k is the antipode of i, and a facet picks one of each pair."""
    return Complex.from_facets([[i + k * (m >> (i - 1) & 1) for i in range(1, k + 1)]
                                for m in range(1 << k)], n=2 * k)


class TestLatticeWalk:
    """Hochster's sum over the unions of minimal nonfaces against the sum
    over every W eliminated on its own, uncached."""

    def test_square_needs_both_generators(self, c4):
        # W = {1,2,3,4} is the union of the two diagonals and carries beta_{1,4}
        clear_homology_cache()
        assert hochster_betti(c4, GF2, "ideal").entries == {(0, 2): 2, (1, 4): 1}
        assert _lattice(c4) == {0b0101, 0b1010, 0b1111}

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_seeded(self, n, field):
        for c in seeded_complexes(n, 30, seed=1000 + 10 * n + field.key):
            clear_homology_cache()
            assert hochster_betti(c, field, "ring") == _ring_table_every_restriction(
                c, field), c

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_projective_plane(self, field):
        # 2-torsion: GF(2) sees H~_1 and H~_2 of the whole complex, GF(3) and QQ do not
        rp2 = Complex.from_facets(RP2_6, n=6)
        clear_homology_cache()
        assert hochster_betti(rp2, field, "ring") == _ring_table_every_restriction(rp2, field)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_moore_space(self, field):
        # 3-torsion, on 13 vertices: the oracle eliminates 2^13 - 1 restrictions
        moore = moore_space_mod3()
        clear_homology_cache()
        table = hochster_betti(moore, field, "ring")
        assert table == _ring_table_every_restriction(moore, field)
        assert table.beta(10, 13) == (field.key == 3)

    def test_cross_polytope(self):
        # the 12-vertex octahedral 5-sphere: I is generated by the six
        # antipodal pairs, a complete intersection, so its lattice has 63 members
        c = _cross_polytope(6)
        assert len(_lattice(c)) == 63
        for field in FIELDS:
            clear_homology_cache()
            table = hochster_betti(c, field, "ideal")
            assert table.entries == {(i - 1, 2 * i): math.comb(6, i) for i in range(1, 7)}
            assert ring_table(table) == _ring_table_every_restriction(c, field)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_terms_lie_on_the_lattice_every_complex(self, n):
        for facets in all_complex_facets(n):
            self._check_support(Complex(n, facets, _trusted=True))

    @pytest.mark.parametrize("n", [6, 7])
    def test_terms_lie_on_the_lattice_seeded(self, n):
        for c in seeded_complexes(n, 20, seed=2000 + n):
            self._check_support(c)

    @staticmethod
    def _check_support(c: Complex) -> None:
        # every W with a nonzero term in the sum over all W is a union of
        # minimal nonfaces; the others are cones, acyclic over every field
        lattice = _lattice(c)
        for w in range(1, 1 << c.n):
            if w not in lattice:
                for field in FIELDS:
                    dims = dims_over_field(antichain(f & w for f in c.facet_masks), field)
                    assert not any(dims), (c, w, field)

    def test_simplex_walks_nothing(self):
        # no minimal nonface, no restriction: 22 vertices cost nothing
        assert hochster_betti(Complex.simplex(22), GF2, "ring").entries == {(0, 0): 1}


class TestUnusedVertices:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("ghosts", [1, 2, 3])
    def test_against_every_restriction(self, ghosts, field):
        # complexes on 5 vertices spread over n = 6..8: W with unused vertices
        # are labelled lookups, checked against the uncached sum
        rng = random.Random(100 * ghosts + field.key)
        everything = list(all_complex_facets(5))
        for facets in rng.sample(everything, 12) + [(0,), (0b11111,), (0b1, 0b10)]:
            c = _with_unused_vertices(facets, 5, ghosts, rng)
            assert hochster_betti(c, field, "ring") == _ring_table_every_restriction(
                c, field), (c.facet_masks, c.n)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_irrelevant_complex_is_koszul(self, n, field):
        # every vertex unused: the maximal ideal, beta_{i-1,i} = C(n, i)
        t = hochster_betti(Complex.irrelevant(n), field, "ideal")
        assert t.entries == {(i - 1, i): math.comb(n, i) for i in range(1, n + 1)}

    def test_cold_warm_and_after_others(self, mt6, r6, dualc5):
        rng = random.Random(7)
        complexes = [mt6, r6, dualc5, alexander_dual(mt6)] + [
            _with_unused_vertices(facets, 5, 1 + k % 3, rng)
            for k, facets in enumerate(rng.sample(list(all_complex_facets(5)), 6))]
        cold = {}
        for k, c in enumerate(complexes):
            for field in FIELDS:
                clear_homology_cache()
                cold[k, field.key] = hochster_betti(c, field, "ring")
        for k, c in enumerate(complexes):  # warm: the same complex again
            for field in FIELDS:
                assert hochster_betti(c, field, "ring") == cold[k, field.key]
        clear_homology_cache()
        for k, c in reversed(list(enumerate(complexes))):  # after the others
            for field in reversed(FIELDS):
                assert hochster_betti(c, field, "ring") == cold[k, field.key], (k, field)


class TestDimsCachedFamilies:
    @pytest.mark.parametrize("family, dims", [
        ((0,), (1,)),
        ((0, 0, 0), (1,)),
        ((0b011, 0b001, 0, 0b011), (0, 0, 0)),             # an edge, nested and doubled
        ((0b011, 0b101, 0b010), (0, 0, 0)),                # a cone on 1 with 2 nested
        ((0b110, 0b011, 0b101, 0b001, 0, 0b101), (0, 0, 1)),  # a triangle's boundary
        ((1 << 9, 1 << 3, 0), (0, 1)),                     # two scattered points
        ((0b0111, 0b1110), (0, 0, 0, 0)),                  # two triangles on the edge {2, 3}
    ])
    def test_examples(self, family, dims):
        for field in FIELDS:
            clear_homology_cache()
            assert dims_cached(family, field) == dims   # cold
            assert dims_cached(family, field) == dims   # warm
            assert dims_cached(tuple(reversed(family)), field) == dims

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, (1 << 7) - 1), min_size=1, max_size=9),
           st.sampled_from(FIELDS))
    def test_any_family_matches_its_antichain(self, family, field):
        # families as a restriction leaves them: 0, duplicates, nested members
        expected = dims_over_field(antichain(family), field)
        assert dims_cached(family, field) == expected
        assert dims_cached(family[::-1] + family, field) == expected


class TestDualIdealTable:
    """The dual's table from the links of Delta equals Hochster's sum over
    the restrictions of the built dual, as a whole dataclass."""

    @staticmethod
    def _oracle(c: Complex, field) -> BettiTable:
        return hochster_betti(alexander_dual(c), field, "ideal")

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n", range(2, 6))  # n = 1 has only the full simplex
    def test_every_covered_pure_complex(self, n, field):
        checked = 0
        for d in range(1, n + 1):
            for c in all_pure_complexes(n, d):
                if c != Complex.simplex(n):
                    assert dual_ideal_table(c, field) == self._oracle(c, field), c
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n", range(6, 9))
    def test_seeded(self, n, field):
        for c in seeded_complexes(n, 30, seed=10 * n + field.key):
            if c != Complex.simplex(n):
                assert dual_ideal_table(c, field) == self._oracle(c, field), c

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_fixtures(self, field, mt6, r6, d6, dualc5):
        for c in (mt6, r6, d6, dualc5):
            assert dual_ideal_table(c, field) == self._oracle(c, field), c

    @pytest.mark.parametrize("n", range(4))
    def test_void_and_irrelevant(self, n):
        # the void complex's dual is the full simplex, with the zero ideal
        assert dual_ideal_table(Complex.void(n)) == self._oracle(Complex.void(n), GF2)
        if n:  # the irrelevant complex on no vertices is the full simplex
            t = dual_ideal_table(Complex.irrelevant(n))
            assert t == self._oracle(Complex.irrelevant(n), GF2)
            assert t.entries == {(0, n): 1} and t.dim_ring == n - 1

    def test_full_simplex_refused(self):
        with pytest.raises(ValueError, match="void Alexander dual"):
            dual_ideal_table(Complex.simplex(3))
        with pytest.raises(ValueError):
            self._oracle(Complex.simplex(3), GF2)
