"""Reduced homology: known spaces, chain-complex sanity, field effects."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from srlab import (
    GF2,
    QQ,
    Complex,
    FieldSpec,
    barycentric_subdivision,
    cone,
    hochster_betti,
    reduced_homology,
)
from srlab import _engine, homology
from srlab._bits import antichain
from srlab.homology import (
    _LABELLED_LIMIT,
    _signed_boundary_rows,
    boundary_matrix,
    clear_homology_cache,
    dims_cached,
    dims_over_field,
    faces_by_size_from_masks,
    pivot_rows_gf2,
)

from conftest import all_complex_facets, cycle_complex, rank_exact
from test_complexes import small_complexes


# six-vertex triangulation of RP^2
RP2_6 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
         (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("2") == GF2
        assert FieldSpec.parse("q") == QQ
        assert FieldSpec.parse("13").p == 13

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldSpec.gf(6)
        with pytest.raises(ValueError):
            FieldSpec.parse("9")

    def test_large_primes_are_accepted_at_once(self):
        # primes up to the 2^64 bound; 2^64 - 59 is the largest prime below it
        for p in (10**18 + 3, 2**61 - 1, 2**64 - 59):
            start = time.perf_counter()
            assert FieldSpec.parse(str(p)).p == p
            assert time.perf_counter() - start < 1.0

    def test_rejects_pseudoprimes(self):
        # 10^18 + 1 = 101 * 9901 * 999999000001; 561 is a Carmichael number;
        # 2047 = 23 * 89 is a strong pseudoprime to base 2, and
        # 3215031751 = 151 * 751 * 28351 to the bases 2, 3, 5 and 7
        for n in (10**18 + 1, 561, 2047, 3215031751):
            with pytest.raises(ValueError, match="not prime"):
                FieldSpec.parse(str(n))

    def test_refuses_characteristic_from_two_to_the_64(self):
        for n in (2**64, 2**64 + 13):  # 2^64 + 13 is the least prime above 2^64
            with pytest.raises(ValueError, match="2\\^64"):
                FieldSpec.gf(n)

    def test_str(self):
        assert str(GF2) == "GF(2)"
        assert str(QQ) == "QQ"


class TestKnownSpaces:
    def test_circle(self, c4):
        hv = reduced_homology(c4)
        assert hv.as_dict() == {-1: 0, 0: 0, 1: 1}

    def test_two_components(self, two_edges):
        for k in (GF2, QQ, FieldSpec.gf(3)):
            assert reduced_homology(two_edges, k).as_dict() == {-1: 0, 0: 1, 1: 0}

    def test_irrelevant(self):
        assert reduced_homology(Complex.irrelevant(2)).as_dict() == {-1: 1}

    def test_sphere(self):
        boundary = Complex.from_facets(
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], n=4)
        assert reduced_homology(boundary, QQ).as_dict() == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_void(self):
        assert reduced_homology(Complex.void(3)).as_dict() == {}

    def test_simplex_is_acyclic(self):
        assert reduced_homology(Complex.simplex(4)).total() == 0

    def test_projective_plane_characteristic(self):
        # RP^2 and its barycentric subdivision: torsion shows over GF(2) only
        rp2 = Complex.from_facets(RP2_6, n=6)
        for c in (rp2, barycentric_subdivision(rp2)):
            assert reduced_homology(c, GF2).as_dict() == {-1: 0, 0: 0, 1: 1, 2: 1}
            assert reduced_homology(c, QQ).as_dict() == {-1: 0, 0: 0, 1: 0, 2: 0}
            assert reduced_homology(c, FieldSpec.gf(3)).as_dict() == {-1: 0, 0: 0, 1: 0, 2: 0}


class TestChainComplex:
    def _mat_mult(self, a, b, reduce):
        if not a or not b:
            return []
        return [[reduce(sum(a[i][k] * b[k][j] for k in range(len(b))))
                 for j in range(len(b[0]))] for i in range(len(a))]

    def test_boundary_of_boundary_vanishes(self, mt6):
        for size in range(2, 5):
            a = boundary_matrix(mt6, size - 1)
            b = boundary_matrix(mt6, size)
            prod = self._mat_mult(a, b, lambda x: x)
            assert all(all(v == 0 for v in row) for row in prod)

    def test_boundary_of_boundary_mod_p(self, dualc5):
        a = boundary_matrix(dualc5, 2)
        b = boundary_matrix(dualc5, 3)
        prod = self._mat_mult(a, b, lambda x: x % 5)
        assert all(all(v == 0 for v in row) for row in prod)

    def test_rank_gf2_columns(self):
        assert pivot_rows_gf2([0b011, 0b110, 0b101]).bit_count() == 2
        assert pivot_rows_gf2([]).bit_count() == 0
        assert pivot_rows_gf2([0, 0]).bit_count() == 0

    def test_pivot_rows_are_the_leading_rows_of_the_span(self):
        # the highest set bits of the nonzero vectors in the span, brute forced
        rng = random.Random("pivot-rows")
        for _ in range(400):
            cols = [rng.randrange(1 << rng.randint(0, 12)) for _ in range(rng.randint(0, 8))]
            span = {0}
            for v in cols:
                span |= {u ^ v for u in span}
            leading = sum({1 << (u.bit_length() - 1) for u in span if u})
            lead = pivot_rows_gf2(cols)
            assert lead == leading, cols
            rows = [[v >> i & 1 for v in cols] for i in range(12)]
            assert lead.bit_count() == _reference_rank(rows, 2), cols


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(small_complexes())
    def test_euler_characteristic(self, c):
        for k in (GF2, QQ):
            hv = reduced_homology(c, k)
            hom_euler = sum((-1) ** i * v for i, v in hv.as_dict().items())
            face_euler = sum((-1) ** (i - 1) * f for i, f in enumerate(c.f_vector()))
            assert hom_euler == face_euler

    @settings(max_examples=40, deadline=None)
    @given(small_complexes())
    def test_universal_coefficients_inequality(self, c):
        hq = reduced_homology(c, QQ)
        for p in (2, 3):
            hp = reduced_homology(c, FieldSpec.gf(p))
            for i in range(-1, 6):
                assert hq[i] <= hp[i]

    @settings(max_examples=30, deadline=None)
    @given(small_complexes(max_n=5))
    def test_cones_are_acyclic(self, c):
        if c.kind != "proper":
            return
        for k in (GF2, QQ):
            assert reduced_homology(cone(c, c.n + 1), k).total() == 0

    def test_fixture_cones_are_acyclic(self, c4, mt6, dualc5, two_edges):
        for c in (c4, mt6, dualc5, two_edges):
            assert reduced_homology(cone(c, c.n + 1)).total() == 0

    def test_gf2_fast_path_matches_generic(self, mt6):
        for r in (3, 4, 5, 6):
            c = cycle_complex(r)
            assert dims_over_field(c.facet_masks, GF2) == tuple(
                reduced_homology(c, FieldSpec.gf(3))[i] for i in range(-1, c.dim + 1)
            )

    @settings(max_examples=80, deadline=None)
    @given(small_complexes(max_n=7))
    def test_gf2_clearing_matches_elimination(self, c):
        # clearing skips columns; the reference eliminates every one
        if not c.is_void:
            assert dims_over_field(c.facet_masks, GF2) == _dims_by_elimination(c.facet_masks, 2)

    def test_gf2_clearing_on_fixtures(self, c4, mt6, dualc5, r6, d6, two_edges):
        rp2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6), (2, 3, 5),
               (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
        sphere = [tuple(v for v in range(1, 8) if v != u) for u in range(1, 8)]
        for c in (c4, mt6, dualc5, r6, d6, two_edges, cycle_complex(7),
                  Complex.from_facets(rp2), Complex.from_facets(sphere)):
            assert dims_over_field(c.facet_masks, GF2) == _dims_by_elimination(c.facet_masks, 2)
        assert dims_over_field(Complex.from_facets(rp2).facet_masks, GF2) == (0, 0, 1, 1)

    def test_fraction_pivoting_square(self):
        # spot check: rationals agree with mod-7 on a homology-free complex
        c = Complex.from_facets([(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        assert reduced_homology(c, QQ).total() == reduced_homology(c, FieldSpec.gf(7)).total() == 0


def _reference_rank(rows, p):
    """Gauss-Jordan over Fractions (p == 0) or over GF(p) by modular inverses."""
    if p:
        a = [[x % p for x in row] for row in rows]
    else:
        a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p) if p else 1 / a[rank][col]
        a[rank] = [x * inv % p if p else x * inv for x in a[rank]]
        for r in range(len(a)):
            f = a[r][col]
            if r != rank and f:
                a[r] = [(x - f * y) % p if p else x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def _random_matrix(rng):
    """Entries in -3..3 at a random density, with zero, repeated rows and zero columns."""
    m, n = rng.randint(1, 20), rng.randint(1, 20)
    density = rng.choice((0.15, 0.4, 1.0))
    rows = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            rows[rng.randrange(m)] = [0] * n
        elif kind == 1:
            rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
        else:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
    return rows


def _dims_by_elimination(facets, p):
    """Reduced homology dims from the dense ``rank_exact`` on every boundary map."""
    groups = faces_by_size_from_masks(facets)
    ranks = [0] * (len(groups) + 1)
    for s in range(1, len(groups)):
        ranks[s] = rank_exact(_signed_boundary_rows(groups[s - 1], groups[s]), p)
    return tuple(len(g) - ranks[s] - ranks[s + 1] for s, g in enumerate(groups))


class TestRankExact:
    @pytest.mark.parametrize("p", [0, 3, 5, 7])
    def test_matches_reference_on_random_matrices(self, p):
        rng = random.Random(f"rank-exact:{p}")
        for _ in range(300):
            rows = _random_matrix(rng)
            assert rank_exact([list(r) for r in rows], p) == _reference_rank(rows, p), rows

    def test_characteristic_three(self):
        # det [[1, 1], [1, -2]] = -3: invertible over Q, singular over GF(3)
        assert rank_exact([[1, 1], [1, -2]], 0) == 2
        assert rank_exact([[1, 1], [1, -2]], 3) == 1
        assert rank_exact([[1, 1], [1, -2]], 5) == 2

    def test_empty_shapes(self):
        for p in (0, 3):
            assert rank_exact([], p) == 0
            assert rank_exact([[], []], p) == 0
            assert rank_exact([[0, 0], [0, 0]], p) == 0

    def test_gf2_matches_bit_packed_kernel(self):
        # every complex on 5 vertices; fewer vertices are these plus unused ones
        count = 0
        for facets in all_complex_facets(5):
            assert _dims_by_elimination(facets, 2) == dims_over_field(facets, GF2), facets
            count += 1
        assert count == 7580  # Dedekind number M(5) = 7581, less the void complex

    def test_boundary_of_ten_simplex_over_rationals(self):
        facets = tuple(((1 << 11) - 1) ^ (1 << v) for v in range(11))
        dims = dims_over_field(facets, QQ)
        assert dims[10] == 1 and sum(dims) == 1  # H~_9 = 1, index 0 is degree -1


def moore_space_mod3() -> Complex:
    """A disc whose boundary 9-gon wraps three times round the triangle 1 2 3:
    H_1 = Z/3 and H_2 = 0 over Z.  Rim vertex i goes to i mod 3 + 1, an inner
    9-gon (4..12) joins the rim to the centre 13, and every triangle keeps
    an inner vertex of its own, so the identification stays simplicial."""
    rim = [i % 3 + 1 for i in range(9)]
    inner = [4 + i for i in range(9)]
    facets = []
    for i in range(9):
        j = (i + 1) % 9
        facets += [(rim[i], rim[j], inner[i]), (rim[j], inner[i], inner[j]),
                   (inner[i], inner[j], 13)]
    return Complex.from_facets(facets, n=13)


class TestExactKernel:
    @pytest.mark.parametrize("field", [FieldSpec.gf(3), FieldSpec.gf(5), QQ], ids=str)
    def test_matches_elimination_on_five_vertices(self, field):
        # clearing skips columns; the dense oracle eliminates every one
        count = 0
        for facets in all_complex_facets(5):
            assert dims_over_field(facets, field) == _dims_by_elimination(facets, field.key), facets
            count += 1
        assert count == 7580

    def test_two_torsion_matches_elimination(self):
        # answers are pinned in TestKnownSpaces::test_projective_plane_characteristic
        rp2 = Complex.from_facets(RP2_6, n=6)
        for c in (rp2, barycentric_subdivision(rp2)):
            for field in (FieldSpec.gf(3), QQ):
                assert (dims_over_field(c.facet_masks, field)
                        == _dims_by_elimination(c.facet_masks, field.key))

    def test_three_torsion_separates_gf3_from_rationals(self):
        masks = moore_space_mod3().facet_masks
        for p in (2, 3, 5, 0):
            assert _dims_by_elimination(masks, p) == ((0, 0, 1, 1) if p == 3 else (0, 0, 0, 0))
        assert dims_over_field(masks, FieldSpec.gf(3)) == (0, 0, 1, 1)
        assert dims_over_field(masks, QQ) == (0, 0, 0, 0)
        assert dims_over_field(masks, FieldSpec.gf(5)) == (0, 0, 0, 0)


def _counting(kernel, seen: list[int]):
    """``kernel`` that records how many columns each call is handed."""
    def counted(cols, *args):
        cols = list(cols)
        seen.append(len(cols))
        return kernel(cols, *args)
    return counted


class TestClearingSkipsColumns:
    # the boundary of the 6-simplex has 119 faces of size >= 2; clearing hands
    # the kernel f_s - rank d_{s+1} of size s: 7 + 15 + 20 + 15 + 6 = 63
    SPHERE = tuple(0b1111111 ^ (1 << v) for v in range(7))

    def test_face_count(self):
        assert sum(map(len, faces_by_size_from_masks(self.SPHERE)[2:])) == 119

    @pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
    def test_dims_over_field(self, field, monkeypatch):
        seen: list[int] = []
        monkeypatch.setattr(homology, "pivot_rows_gf2", _counting(pivot_rows_gf2, seen))
        monkeypatch.setattr(homology, "_pivot_rows_exact", _counting(homology._pivot_rows_exact, seen))
        assert dims_over_field(self.SPHERE, field) == (0,) * 6 + (1,)
        assert sum(seen) == 63

    def test_level_hom(self, monkeypatch):
        seen: list[int] = []
        monkeypatch.setattr(_engine, "pivot_rows_gf2", _counting(pivot_rows_gf2, seen))
        lh = _engine.level_hom(7)
        assert lh.dims_from_levels(lh.closure(6, lh.full[6])) == (0,) * 6 + (1,)
        assert sum(seen) == 63


class TestConeClosedForm:
    def test_every_cone_on_five_vertices(self, monkeypatch):
        # facets sharing a vertex: dims_cached answers them without elimination,
        # also when a nested member misses the apex; dims_over_field eliminates
        def eliminate(facets, field):
            raise AssertionError(f"a cone reached elimination: {facets}")

        clear_homology_cache()
        count = nested = 0
        for facets in all_complex_facets(5):
            apex = facets[0]
            for f in facets:
                apex &= f
            if not apex:
                continue
            # one sub-face of the last facet that misses every apex vertex
            variants = [facets] + ([facets + (facets[-1] & ~apex,)]
                                   if facets[-1] != apex else [])
            for field in (GF2, FieldSpec.gf(3), QQ):
                dims = _dims_by_elimination(facets, field.key)
                assert not any(dims), (facets, field)
                assert dims_over_field(facets, field) == dims
                with monkeypatch.context() as m:
                    m.setattr(homology, "dims_over_field", eliminate)
                    for family in variants:
                        assert dims_cached(family, field) == dims, (family, field)
                assert _dims_by_elimination(variants[-1], field.key) == dims
            count += 1
            nested += len(variants) - 1
        # inclusion-exclusion over apex sets S, |S| = j: the cones with every
        # facet containing S are the nonvoid complexes on the other 5 - j
        # vertices, M(5 - j) - 1 of them (Dedekind numbers 7581, 168, 20, 6, 3, 2)
        assert count == 5 * 167 - 10 * 19 + 10 * 5 - 5 * 2 + 1 == 686
        # every cone but the 31 single faces, nonempty, has a nested variant
        assert nested == count - 31

    def test_non_cones_still_eliminate(self):
        # the boundary of a triangle shares no vertex: H~_1 = 1
        assert dims_over_field((0b011, 0b101, 0b110), QQ) == (0, 0, 1)
        assert dims_over_field((0,), FieldSpec.gf(3)) == (1,)


class TestCacheTiers:
    def test_labelled_tier_is_bounded(self):
        # 16 isolated points: 2^16 - 1 restrictions, each its own labelled family
        clear_homology_cache()
        points = Complex.from_facets([(v,) for v in range(1, 17)], n=16)
        t = hochster_betti(points, GF2, "ideal")
        assert t.beta(0, 2) == 120 and sum(t.entries.values()) == 458753
        assert 0 < len(homology._LABELLED) <= _LABELLED_LIMIT
        # the canonical tier holds the k points, k = 2..16
        assert sorted(homology._CACHE) == [(2, tuple(1 << i for i in range(k)))
                                           for k in range(2, 17)]
        # a full tier is emptied, not frozen: new families are still stored
        for k in range(_LABELLED_LIMIT - len(homology._LABELLED) + 1):
            dims_cached((1 << 20, 1 << 21, k << 22), GF2)
        assert len(homology._LABELLED) == 1
        assert dims_cached((0b110, 0b011), FieldSpec.gf(3)) == (0, 0, 0)
        assert (3, (0b011, 0b110)) in homology._LABELLED
        clear_homology_cache()

    def test_clear_empties_both_tiers(self):
        dims_cached((1 << 9, 1 << 3), GF2)             # labelled (8, 512), canonical (1, 2)
        dims_cached((0b110, 0b011), FieldSpec.gf(3))   # a cone: labelled only
        dims_cached((0b011, 0b101, 0b110), QQ)         # canonical: stored once
        assert (2, (1 << 3, 1 << 9)) in homology._LABELLED
        assert (3, (0b011, 0b110)) in homology._LABELLED
        assert (0, (0b011, 0b101, 0b110)) not in homology._LABELLED
        assert {(2, (1, 2)), (0, (0b011, 0b101, 0b110))} <= set(homology._CACHE)
        clear_homology_cache()
        assert homology._CACHE == {} and homology._LABELLED == {}
        assert dims_cached((1 << 9, 1 << 3), GF2) == (0, 1)
        assert homology._LABELLED == {(2, (1 << 3, 1 << 9)): (0, 1)}
        assert homology._CACHE == {(2, (1, 2)): (0, 1)}


class TestStrongCollapse:
    """Cold ``dims_cached``, which strips each shape to its strong-collapse
    core before eliminating, against the dense oracle on the whole family."""

    FIELDS = (GF2, FieldSpec.gf(3), QQ)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_every_family_on_five_vertices(self, field):
        # and each with one nested member added: the last member less its
        # lowest vertex, which is the empty face for a vertex
        count = 0
        for facets in all_complex_facets(5):
            dims = _dims_by_elimination(facets, field.key)
            variants = [facets] + ([facets + (facets[-1] & facets[-1] - 1,)]
                                   if facets[-1] else [])
            for family in variants:
                clear_homology_cache()
                assert dims_cached(family, field) == dims, (family, field)
            count += 1
        assert count == 7580

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("masks", [Complex.from_facets(RP2_6, n=6).facet_masks,
                                       moore_space_mod3().facet_masks],
                             ids=["RP2_6", "moore-mod-3"])
    def test_every_restriction(self, masks, field):
        width = max(masks).bit_length()
        for w in range(1 << width):
            family = [f & w for f in masks]
            clear_homology_cache()
            assert dims_cached(family, field) == _dims_by_elimination(
                antichain(family), field.key), (w, field)

    def test_hochster_eliminates_only_cores(self, monkeypatch):
        # cold tables of 60 complexes shaped like query-mix's inputs, over
        # three fields: reducing every restriction that misses the cache took
        # 4,812 calls before the collapse; the cores take 570
        calls = []
        dims_over_field = homology.dims_over_field

        def counted(*args):
            calls.append(args)
            return dims_over_field(*args)

        monkeypatch.setattr(homology, "dims_over_field", counted)
        rng = random.Random(22)
        complexes = []
        for _ in range(60):
            n = rng.randint(6, 8)
            complexes.append(Complex.from_facets(
                [rng.sample(range(1, n + 1), rng.randint(2, 4))
                 for _ in range(rng.randint(3, 7))], n=n))
        for field in self.FIELDS:
            for c in complexes:
                clear_homology_cache()
                hochster_betti(c, field, "ring")
        assert len(calls) <= 570
