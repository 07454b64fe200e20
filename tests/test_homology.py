"""Reduced homology: known spaces, chain-complex sanity, field effects."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from srlab import GF2, QQ, Complex, FieldSpec, cone, reduced_homology
from srlab.homology import (
    _rank_exact,
    _signed_boundary_rows,
    boundary_matrix,
    dims_gf2,
    dims_over_field,
    faces_by_size_from_masks,
    rank_gf2_columns,
)

from conftest import cycle_complex
from test_complexes import small_complexes


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
        # six-vertex triangulation of RP^2: torsion shows over GF(2) only
        rp2 = Complex.from_facets(
            [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
             (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)], n=6)
        assert reduced_homology(rp2, GF2).as_dict() == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert reduced_homology(rp2, QQ).as_dict() == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_homology(rp2, FieldSpec.gf(3)).as_dict() == {-1: 0, 0: 0, 1: 0, 2: 0}


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
        assert rank_gf2_columns([0b011, 0b110, 0b101]) == 2
        assert rank_gf2_columns([]) == 0
        assert rank_gf2_columns([0, 0]) == 0


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
            assert dims_gf2(c.facet_masks) == tuple(
                reduced_homology(c, FieldSpec.gf(3))[i] for i in range(-1, c.dim + 1)
            )

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


def _all_complex_facets(n):
    """Facet masks of every nonvoid complex on [n], from its down-set bitmap.

    A down-set of 2^[n] is D0 + {S + n : S in D1} with D1 <= D0 down-sets
    of 2^[n-1]; bit m of the bitmap says whether face m is present.
    """
    downsets = [0, 1]
    for k in range(1, n + 1):
        shift = 1 << (k - 1)
        downsets = [d0 | d1 << shift for d0 in downsets for d1 in downsets if d1 & ~d0 == 0]
    for d in downsets:
        if d:
            faces = [m for m in range(1 << n) if d >> m & 1]
            yield tuple(f for f in faces
                        if not any(g != f and g & f == f for g in faces))


def _dims_by_elimination(facets, p):
    """Reduced homology dims from _rank_exact on every boundary matrix."""
    groups = faces_by_size_from_masks(facets)
    ranks = [0] * (len(groups) + 1)
    for s in range(1, len(groups)):
        ranks[s] = _rank_exact(_signed_boundary_rows(groups[s - 1], groups[s]), p)
    return tuple(len(g) - ranks[s] - ranks[s + 1] for s, g in enumerate(groups))


class TestRankExact:
    @pytest.mark.parametrize("p", [0, 3, 5, 7])
    def test_matches_reference_on_random_matrices(self, p):
        rng = random.Random(f"rank-exact:{p}")
        for _ in range(300):
            rows = _random_matrix(rng)
            assert _rank_exact([list(r) for r in rows], p) == _reference_rank(rows, p), rows

    def test_characteristic_three(self):
        # det [[1, 1], [1, -2]] = -3: invertible over Q, singular over GF(3)
        assert _rank_exact([[1, 1], [1, -2]], 0) == 2
        assert _rank_exact([[1, 1], [1, -2]], 3) == 1
        assert _rank_exact([[1, 1], [1, -2]], 5) == 2

    def test_empty_shapes(self):
        for p in (0, 3):
            assert _rank_exact([], p) == 0
            assert _rank_exact([[], []], p) == 0
            assert _rank_exact([[0, 0], [0, 0]], p) == 0

    def test_gf2_matches_bit_packed_kernel(self):
        # every complex on 5 vertices; fewer vertices are these plus unused ones
        count = 0
        for facets in _all_complex_facets(5):
            assert _dims_by_elimination(facets, 2) == dims_gf2(facets), facets
            count += 1
        assert count == 7580  # Dedekind number M(5) = 7581, less the void complex

    def test_boundary_of_ten_simplex_over_rationals(self):
        facets = tuple(((1 << 11) - 1) ^ (1 << v) for v in range(11))
        dims = dims_over_field(facets, QQ)
        assert dims[10] == 1 and sum(dims) == 1  # H~_9 = 1, index 0 is degree -1


class TestConeClosedForm:
    def test_every_cone_on_five_vertices(self):
        # facets sharing a vertex: dims_over_field answers without elimination
        count = 0
        for facets in _all_complex_facets(5):
            apex = facets[0]
            for f in facets:
                apex &= f
            if not apex:
                continue
            for field in (GF2, FieldSpec.gf(3), QQ):
                dims = dims_over_field(facets, field)
                assert dims == _dims_by_elimination(facets, field.key), (facets, field)
                assert not any(dims), (facets, field)
            count += 1
        # inclusion-exclusion over apex sets S, |S| = j: the cones with every
        # facet containing S are the nonvoid complexes on the other 5 - j
        # vertices, M(5 - j) - 1 of them (Dedekind numbers 7581, 168, 20, 6, 3, 2)
        assert count == 5 * 167 - 10 * 19 + 10 * 5 - 5 * 2 + 1 == 686

    def test_non_cones_still_eliminate(self):
        # the boundary of a triangle shares no vertex: H~_1 = 1
        assert dims_over_field((0b011, 0b101, 0b110), QQ) == (0, 0, 1)
        assert dims_over_field((0,), FieldSpec.gf(3)) == (1,)
