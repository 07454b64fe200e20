"""Parsing, face combinatorics, duality, links, cones, subdivisions."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from srlab import (
    Complex,
    ParseError,
    alexander_dual,
    barycentric_subdivision,
    complex_info,
    cone,
    link,
    minimal_nonfaces,
    parse_complex,
    render_complex,
    restriction,
    skeleton_graph,
)
from srlab._bits import antichain
from srlab.complexes import sd_vertex_order

from conftest import (
    all_complex_facets,
    brute_dual,
    brute_minimal_nonfaces,
    cycle_complex,
    gamma_complex,
    seeded_complexes,
)


def small_complexes(max_n=6):
    """Hypothesis strategy for random complexes on up to max_n vertices."""
    def build(n, facet_sets):
        faces = [tuple(f) for f in facet_sets if f] or [()]
        return Complex.from_facets(faces, n=n)

    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.sets(st.integers(1, n), min_size=1, max_size=n), min_size=1, max_size=8),
        )
    )


class TestParse:
    def test_triangle_boundary(self):
        c = parse_complex("1 2\n2 3\n1 3")
        assert c.n == 3
        assert c.dim == 1
        assert len(c.facet_masks) == 3

    def test_header_and_absorption(self):
        c = parse_complex("V: 4\n1 2\n1 2 3")
        assert c.n == 4
        assert c.facets() == [(1, 2, 3)]

    def test_irrelevant_token(self):
        c = parse_complex("{}")
        assert c.kind == "irrelevant"
        c = parse_complex("V: 3\n{}")
        assert c.n == 3 and c.dim == -1

    def test_empty_document_refused(self):
        with pytest.raises(ParseError):
            parse_complex("")
        with pytest.raises(ParseError):
            parse_complex("# only a comment\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_complex("1 2\n2 x")

    def test_label_outside_ambient(self):
        with pytest.raises(ParseError):
            parse_complex("V: 3\n1 4")

    def test_nonpositive_label(self):
        with pytest.raises(ParseError):
            parse_complex("0 1")

    def test_comments_and_blank_lines(self):
        c = parse_complex("# header\nV: 4\n\n1 2  # an edge\n3 4\n")
        assert c.facets() == [(1, 2), (3, 4)]

    def test_roundtrip(self, mt6):
        assert parse_complex(render_complex(mt6)) == mt6


class TestInfo:
    def test_c4(self, c4):
        info = complex_info(c4)
        assert (info.dim, info.pure) == (1, True)
        assert info.f_vector == (1, 4, 4)
        assert info.h_vector == (1, 2, 1)

    def test_gamma_square(self):
        info = complex_info(gamma_complex(4))
        assert info.f_vector == (1, 4, 2)
        assert info.h_vector == (1, 2, -1)

    def test_mt6(self, mt6):
        info = complex_info(mt6)
        assert (info.n, info.dim, info.pure) == (6, 3, True)
        assert len(mt6.facet_masks) == 9

    def test_irrelevant_and_void(self):
        info = complex_info(Complex.irrelevant(2))
        assert (info.dim, info.d, info.f_vector, info.h_vector) == (-1, 0, (1,), (1,))
        info = complex_info(Complex.void(2))
        assert info.dim is None and info.f_vector == ()

    def test_vertex_cover_flag(self):
        assert complex_info(parse_complex("V: 3\n1 2")).vertex_cover is False
        assert complex_info(parse_complex("1 2\n3")).vertex_cover is True


class TestLink:
    def test_vertex_link_in_cycle(self, c4):
        lk = link(c4, (1,))
        assert lk.complex == Complex.from_facets([(1,), (3,)], n=3)
        assert lk.old_labels == (2, 3, 4)

    def test_facet_link_is_irrelevant(self, c4):
        assert link(c4, (1, 2)).complex.kind == "irrelevant"

    def test_empty_face_link_is_identity(self, mt6):
        lk = link(mt6, ())
        assert lk.complex == mt6
        assert lk.old_labels == (1, 2, 3, 4, 5, 6)

    def test_not_a_face(self, c4):
        with pytest.raises(ValueError):
            link(c4, (1, 3))

    @settings(max_examples=40, deadline=None)
    @given(small_complexes())
    def test_link_dimension_bound(self, c):
        if c.kind != "proper":
            return
        dim = c.dim
        for fm in sorted(c.face_masks()):
            labels = [b + 1 for b in range(c.n) if fm >> b & 1]
            lk = link(c, labels).complex
            ldim = -1 if lk.dim is None else lk.dim
            assert ldim <= dim - len(labels)
        if c.is_pure:
            for f in c.facets():
                for k in range(len(f)):
                    lk = link(c, f[: k]).complex
                    assert lk.dim == dim - k


class TestAntichain:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, (1 << 8) - 1), max_size=12))
    def test_sorted_maximal_elements(self, masks):
        # by definition: the distinct masks lying in no other given mask
        maximal = {m for m in masks if not any(m != k and m & k == m for k in masks)}
        assert antichain(masks) == tuple(sorted(maximal))
        assert antichain(masks + masks[::-1]) == antichain(masks)

    def test_zero_and_duplicates(self):
        assert antichain([0]) == (0,)
        assert antichain([0, 0, 0]) == (0,)
        assert antichain([0, 0b100, 0]) == (0b100,)
        assert antichain([0b11, 0b01, 0b11, 0b10, 0b100]) == (0b11, 0b100)
        assert antichain(iter([0b101, 0b111, 0b1000])) == (0b111, 0b1000)
        assert antichain([]) == ()


class TestRestriction:
    def test_cycle_restriction(self, c4):
        res = restriction(c4, (1, 3))
        assert res.complex == Complex.from_facets([(1,), (2,)], n=2)

    def test_empty_restriction(self, c4):
        assert restriction(c4, ()).complex.kind == "irrelevant"

    def test_mt6_facet_restriction_is_simplex(self, mt6):
        res = restriction(mt6, (1, 2, 3, 5))
        assert res.complex == Complex.simplex(4)


class TestDuality:
    def test_dual_of_square(self, c4):
        assert alexander_dual(c4) == Complex.from_facets([(2, 4), (1, 3)], n=4)

    def test_dual_against_subset_scan(self, c4, mt6, r6, dualc5):
        for c in (c4, mt6, r6, dualc5, Complex.simplex(3), Complex.irrelevant(3)):
            assert alexander_dual(c) == brute_dual(c)

    def test_dual_of_pentagon_clique_complex(self, dualc5):
        pentagon = cycle_complex(5)
        assert alexander_dual(pentagon) == dualc5

    def test_void_and_simplex_conventions(self):
        assert alexander_dual(Complex.void(3)) == Complex.simplex(3)
        assert alexander_dual(Complex.simplex(3)).is_void

    @settings(max_examples=50, deadline=None)
    @given(small_complexes())
    def test_involution_and_facet_nonface_duality(self, c):
        dual = alexander_dual(c)
        assert alexander_dual(dual) == c
        assert dual == brute_dual(c)
        nf = {frozenset(t) for t in minimal_nonfaces(c)}
        facets = {frozenset(range(1, c.n + 1)) - frozenset(f) for f in dual.facets()} \
            if not dual.is_void else set()
        assert nf == facets or (c == Complex.simplex(c.n) and not facets)


class TestDualAgainstSubsetScan:
    @pytest.mark.parametrize("n", range(5))
    def test_every_complex(self, n):
        for facets in [()] + list(all_complex_facets(n)):  # the void complex too
            c = Complex(n, facets, _trusted=True)
            assert alexander_dual(c) == brute_dual(c), facets
            assert minimal_nonfaces(c) == brute_minimal_nonfaces(c), facets

    @pytest.mark.parametrize("n", range(5, 9))
    def test_seeded(self, n):
        for c in seeded_complexes(n, 60, seed=n):
            assert alexander_dual(c) == brute_dual(c), c
            assert minimal_nonfaces(c) == brute_minimal_nonfaces(c), c


class TestMinimalNonfaces:
    def test_square_diagonals(self, c4):
        assert minimal_nonfaces(c4) == [(1, 3), (2, 4)]

    def test_full_simplex(self):
        assert minimal_nonfaces(Complex.simplex(3)) == []

    def test_pendant_cycle_nonedges(self, r6):
        nf = minimal_nonfaces(r6)
        assert len(nf) == 9
        assert all(len(t) == 2 for t in nf)

    @settings(max_examples=40, deadline=None)
    @given(small_complexes())
    def test_against_subset_scan(self, c):
        assert minimal_nonfaces(c) == brute_minimal_nonfaces(c)

    @pytest.mark.parametrize("n", range(7))
    def test_conventions_against_subset_scan(self, n):
        # void: the empty set; irrelevant: every vertex; simplex: none;
        # the simplex's boundary: the whole vertex set
        full = (1 << n) - 1
        expected = {
            Complex.void(n): [()],
            Complex.irrelevant(n): [(v,) for v in range(1, n + 1)],
            Complex.simplex(n): [],
            Complex(n, [full ^ (1 << v) for v in range(n)]): [tuple(range(1, n + 1))],
        }
        for c, nonfaces in expected.items():
            assert minimal_nonfaces(c) == brute_minimal_nonfaces(c), c
            if n >= 2:  # below 2 vertices the four complexes coincide
                assert minimal_nonfaces(c) == nonfaces, c

    @pytest.mark.parametrize("n", range(6, 11))
    def test_seeded_against_subset_scan(self, n):
        for c in seeded_complexes(n, 40, seed=3000 + n):
            assert minimal_nonfaces(c) == brute_minimal_nonfaces(c), c

    def test_skeleta_and_their_duals(self):
        # the 2-skeleton of the simplex on 12 vertices misses exactly the
        # 4-sets, and its Alexander dual exactly the 9-sets
        skeleton = Complex.from_facets(list(combinations(range(1, 13), 3)), n=12)
        assert minimal_nonfaces(skeleton) == list(combinations(range(1, 13), 4))
        assert minimal_nonfaces(alexander_dual(skeleton)) == list(combinations(range(1, 13), 9))


class TestSkeletonAndCone:
    def test_skeleton_of_clique_complex(self, c5_graph):
        from srlab import clique_complex
        assert skeleton_graph(clique_complex(c5_graph)) == c5_graph

    def test_skeleton_of_simplex(self):
        g = skeleton_graph(Complex.simplex(4))
        assert len(g.edges()) == 6

    def test_cone_of_two_points(self):
        c = cone(Complex.from_facets([(1,), (2,)]), 3)
        assert c == Complex.from_facets([(1, 3), (2, 3)])

    def test_cone_of_irrelevant(self):
        assert cone(Complex.irrelevant(0), 1) == Complex.from_facets([(1,)])

    def test_cone_of_mt6(self, mt6):
        c = cone(mt6, 7)
        assert (c.n, c.dim, c.is_pure, len(c.facet_masks)) == (7, 4, True, 9)

    def test_cone_label_collision(self, c4):
        with pytest.raises(ValueError):
            cone(c4, 3)
        with pytest.raises(ValueError):
            cone(c4, 9)


class TestBarycentric:
    def test_edge_becomes_path(self):
        sd = barycentric_subdivision(Complex.from_facets([(1, 2)]))
        assert sd.n == 3
        order = sd_vertex_order(Complex.from_facets([(1, 2)]))
        edge_vertex = order.index(0b11) + 1
        assert sd == Complex.from_facets([(1, edge_vertex), (2, edge_vertex)], n=3)

    def test_triangle_boundary_becomes_hexagon(self):
        sd = barycentric_subdivision(cycle_complex(3))
        info = complex_info(sd)
        assert info.f_vector == (1, 6, 6)
        from srlab import is_cycle_graph
        assert is_cycle_graph(skeleton_graph(sd))

    def test_square_vertex_count(self, c4):
        assert barycentric_subdivision(c4).n == 8

    def test_refuses_degenerate(self):
        with pytest.raises(ValueError):
            barycentric_subdivision(Complex.irrelevant(2))

    @settings(max_examples=30, deadline=None)
    @given(small_complexes(max_n=5))
    def test_euler_characteristic_preserved(self, c):
        if c.kind != "proper":
            return
        sd = barycentric_subdivision(c)
        euler = lambda cx: sum((-1) ** i * f for i, f in enumerate(cx.f_vector()))
        assert euler(c) == euler(sd)


class TestHVector:
    @settings(max_examples=40, deadline=None)
    @given(small_complexes())
    def test_pure_h_sum_is_facet_count(self, c):
        info = complex_info(c)
        if info.pure and c.kind == "proper":
            assert sum(info.h_vector) == len(c.facet_masks)
            assert info.h_vector[0] == 1
