"""CM / CM_t / Buchsbaum / Serre / singularity dimension / Ext profiles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from srlab import (
    GF2,
    QQ,
    Complex,
    FieldSpec,
    alexander_dual,
    cm_t,
    cone,
    ext_dim_profile,
    hochster_betti,
    homological_invariants,
    is_buchsbaum,
    max_serre,
    min_cm_t,
    min_singularity_bound,
    property_report,
    reisner_cm,
    satisfies_serre,
    singularity_dimension_lt,
    skeleton_graph,
    is_cycle_graph,
)

from conftest import (
    all_complex_facets,
    all_pure_complexes,
    cycle_complex,
    ext_dimext_by_face_scan,
    gamma_complex,
    seeded_complexes,
)
from test_complexes import small_complexes


class TestReisner:
    def test_circle_is_cm(self, c4):
        assert reisner_cm(c4) is True

    def test_disconnected_graph_is_not(self, two_edges):
        assert reisner_cm(two_edges) is False

    def test_murai_terai_fails_cm_over_both_fields(self, mt6):
        assert reisner_cm(mt6, GF2) is False
        assert reisner_cm(mt6, QQ) is False

    def test_degenerate_conventions(self):
        assert reisner_cm(Complex.void(2)) is True
        assert reisner_cm(Complex.irrelevant(2)) is True

    def test_points_are_cm(self):
        assert reisner_cm(Complex.from_facets([(1,), (2,), (3,)])) is True


class TestCmT:
    def test_two_edges(self, two_edges):
        assert cm_t(two_edges, 1) is True
        assert cm_t(two_edges, 0) is False
        assert min_cm_t(two_edges) == 1

    def test_d6_is_cm2_not_cm1(self, d6):
        assert min_cm_t(d6) == 2
        assert cm_t(d6, 2) and not cm_t(d6, 1)

    def test_pendant_cycle_complex_is_cm(self, r6):
        # the ambiguous-referent check: the 1-dimensional complex itself
        # is connected, hence CM; only its dual is CM_2-but-not-CM_1
        assert min_cm_t(r6) == 0

    def test_coned_murai_terai(self, mt6):
        c = cone(mt6, 7)
        assert min_cm_t(c) == 2
        assert is_buchsbaum(c) is False

    def test_nonpure_has_no_cm_t(self):
        c = Complex.from_facets([(1, 2, 3), (4, 5)])
        assert min_cm_t(c) is None
        assert cm_t(c, 3) is False

    def test_monotonicity_exhaustive_n4(self):
        for c in all_pure_complexes(4, 2):
            t0 = min_cm_t(c)
            for t in range(0, 5):
                assert cm_t(c, t) == (t >= t0)

    def test_negative_t_rejected(self, c4):
        with pytest.raises(ValueError):
            cm_t(c4, -1)


class TestBuchsbaum:
    def test_murai_terai(self, mt6):
        assert is_buchsbaum(mt6, GF2) is True
        assert is_buchsbaum(mt6, QQ) is True

    def test_two_edges(self, two_edges):
        assert is_buchsbaum(two_edges) is True

    def test_dualc5(self, dualc5):
        assert is_buchsbaum(dualc5) is True
        assert reisner_cm(dualc5) is False
        assert is_cycle_graph(skeleton_graph(alexander_dual(dualc5)))


class TestSerre:
    def test_vacuous_low_r(self, mt6, two_edges):
        for c in (mt6, two_edges):
            assert satisfies_serre(c, 1) and satisfies_serre(c, 0)

    def test_two_edges_fails_s2(self, two_edges):
        assert satisfies_serre(two_edges, 2) is False

    def test_murai_terai_s3(self, mt6):
        assert satisfies_serre(mt6, 3, GF2) is True
        assert satisfies_serre(mt6, 3, QQ) is True
        assert max_serre(mt6) == 3

    def test_cm_caps_at_dimension(self, c4):
        assert max_serre(c4) == 2  # d = 2 and the square is CM

    def test_monotone_exhaustive_n4(self):
        for c in all_pure_complexes(4, 2):
            r0 = max_serre(c)
            d = c.dim + 1
            for r in range(2, d + 1):
                assert satisfies_serre(c, r) == (r <= r0)

    def test_serre_implies_cm_codim_shift_n5(self):
        for d in (2, 3):
            for c in all_pure_complexes(5, d):
                dd = c.dim + 1
                for r in range(0, dd + 1):
                    if satisfies_serre(c, r):
                        assert cm_t(c, max(0, dd - r))


class TestSingularityDimension:
    def test_two_edges(self, two_edges):
        assert singularity_dimension_lt(two_edges, 0) is True
        assert singularity_dimension_lt(two_edges, -1) is False
        assert min_singularity_bound(two_edges) == 0

    def test_murai_terai(self, mt6):
        assert singularity_dimension_lt(mt6, 0) is True
        assert min_singularity_bound(mt6) == 0  # Buchsbaum but not CM

    def test_matches_cm_t_shift(self):
        for c in all_pure_complexes(4, 2):
            for t in range(0, 4):
                assert cm_t(c, t) == (c.is_pure and singularity_dimension_lt(c, t - 1))


class TestExtProfile:
    def test_triangle_boundary(self):
        prof = ext_dim_profile(cycle_complex(3))
        assert prof.dimext == {1: None, 2: 2}

    def test_two_edges(self, two_edges):
        prof = ext_dim_profile(two_edges)
        assert prof.dimext == {1: 0, 2: 2}

    def test_murai_terai_low_ext_vanishing(self, mt6):
        prof = ext_dim_profile(mt6)
        for i in range(1, 4):
            assert prof.dimext[i] is None or prof.dimext[i] <= 0
        assert prof.dimext[4] == 4

    def test_refuses_degenerate(self):
        with pytest.raises(ValueError):
            ext_dim_profile(Complex.irrelevant(2))

    @pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
    def test_dual_table_matches_face_scan(self, field):
        """The profile read off the dual's Betti table against the face
        scan, on every complex with n <= 4 (full simplices included) and
        on seeded complexes with n = 5..7."""
        complexes = [Complex(n, facets) for n in range(1, 5) for facets in all_complex_facets(n)]
        complexes += [c for n in range(5, 8) for c in seeded_complexes(n, 40, seed=70 + n)]
        proper = [c for c in complexes if c.kind == "proper"]
        assert Complex.simplex(4) in proper and len(proper) > 250
        for c in proper:
            assert ext_dim_profile(c, field).dimext == ext_dimext_by_face_scan(c, field), c

    @settings(max_examples=30, deadline=None)
    @given(small_complexes(max_n=5))
    def test_characterizations_match_direct_predicates(self, c):
        if c.kind != "proper":
            return
        prof = ext_dim_profile(c)
        d = c.dim + 1
        assert prof.pure_via_ext() == c.is_pure
        for r in range(2, d + 2):
            assert prof.serre_via_ext(r) == satisfies_serre(c, r)
        for t in range(0, d + 1):
            assert prof.cmt_via_ext(t, c.is_pure) == cm_t(c, t)
        if c.is_pure:
            for m in range(-1, d + 1):
                assert prof.singdim_lt_via_ext(m) == singularity_dimension_lt(c, m)

    def test_singdim_characterization_needs_purity(self):
        # boundary of validity: an edge plus an isolated vertex has all
        # face links CM, yet the Ext module in cohomological degree n-1
        # is 1-dimensional (the isolated vertex's irrelevant link feeds
        # H~_-1 into it); the equivalence holds for pure complexes only
        c = Complex.from_facets([(1, 2), (3,)])
        prof = ext_dim_profile(c)
        assert singularity_dimension_lt(c, 0) is True
        assert prof.singdim_lt_via_ext(0) is False
        assert prof.dimext == {1: 1, 2: 2}


class TestGammaFamily:
    @pytest.mark.parametrize("r", [4, 5, 6])
    def test_gamma_not_cm(self, r):
        g = gamma_complex(r)
        assert reisner_cm(g) is False
        from srlab import complex_info
        assert complex_info(g).h_vector[r - 2] == -1


class TestPropertyReport:
    def test_dualc5_report(self, dualc5):
        rep = property_report(dualc5)
        assert rep.pure and not rep.cm and rep.buchsbaum
        assert rep.min_cm_t == 1
        assert rep.depth == 2 and rep.dim_ring == 3
        assert rep.max_serre == 2

    def test_report_consistency_exhaustive_n4(self):
        for c in all_pure_complexes(4, 2):
            rep = property_report(c)
            assert rep.cm == (rep.min_cm_t == 0)
            assert rep.buchsbaum == (rep.min_cm_t <= 1)
            assert rep.cm == (rep.depth == rep.dim_ring)
            if rep.max_serre == rep.dim_ring:
                assert rep.cm

    def test_irrelevant_report(self):
        rep = property_report(Complex.irrelevant(2))
        assert rep.cm and rep.depth == 0 and rep.dim_ring == 0

    def test_void_refused(self):
        with pytest.raises(ValueError):
            property_report(Complex.void(2))


class TestCrossOracle:
    def test_reisner_vs_depth_exhaustive_n5_gf2(self):
        for d in (2, 3, 4):
            for c in all_pure_complexes(5, d):
                inv = homological_invariants(hochster_betti(c, GF2, "ring"))
                assert inv.cm == reisner_cm(c, GF2)


@pytest.mark.slow
class TestSeededN6:
    def _sampled(self, count=200):
        from srlab import SearchSpace, enumerate_pure_complexes
        per = count // 4
        for d, seed in ((2, 21), (3, 22), (4, 23), (5, 24)):
            sp = SearchSpace(n=6, d=d, mode="sample", count=per, seed=seed)
            yield from enumerate_pure_complexes(sp)

    def test_ext_profile_consistency_on_200_seeded(self):
        n = 0
        for c in self._sampled():
            n += 1
            prof = ext_dim_profile(c)
            d = c.dim + 1
            assert prof.pure_via_ext() == c.is_pure
            for r in range(2, d + 2):
                assert prof.serre_via_ext(r) == satisfies_serre(c, r)
            for m in range(-1, d + 1):
                assert prof.singdim_lt_via_ext(m) == singularity_dimension_lt(c, m)
            for t in range(0, d + 1):
                assert prof.cmt_via_ext(t, True) == cm_t(c, t)
        assert n == 200

    def test_monotonicity_on_seeded_n6(self):
        for c in self._sampled(80):
            t0 = min_cm_t(c)
            r0 = max_serre(c)
            d = c.dim + 1
            for t in range(0, d + 1):
                assert cm_t(c, t) == (t >= t0)
            for r in range(2, d + 1):
                assert satisfies_serre(c, r) == (r <= r0)
