"""Graph parsing, complements, clique complexes, chordless cycles."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from srlab import (
    Complex,
    Graph,
    ParseError,
    chord_condition,
    clique_complex,
    complement,
    independence_complex,
    induced_cycles,
    is_chordal,
    is_cycle_graph,
    parse_graph,
    r_chordal,
    render_graph,
    skeleton_graph,
)
from srlab.graphs import chordless_span

from conftest import brute_chordless


def random_graphs(max_n=7):
    def build(n, pairs):
        return Graph(n, [p for p in pairs if p[0] != p[1] and p[0] <= n and p[1] <= n])

    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12),
        )
    )


class TestParse:
    def test_basic(self):
        g = parse_graph("V: 5\n1 2\n2 3\n")
        assert g.n == 5 and g.edges() == [(1, 2), (2, 3)]

    def test_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("1 1")

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_graph("1 2 3")
        with pytest.raises(ParseError):
            parse_graph("")

    def test_edgeless_with_header(self):
        g = parse_graph("V: 3\n")
        assert g.n == 3 and g.edges() == []

    def test_roundtrip(self, c5_graph):
        assert parse_graph(render_graph(c5_graph)) == c5_graph


class TestComplement:
    def test_pentagon_self_complementary(self, c5_graph):
        comp = complement(c5_graph)
        assert sorted(len(comp.edges()) for _ in [0]) == [5]
        assert is_cycle_graph(comp)

    def test_complete_graph(self):
        k4 = Graph(4, list(itertools.combinations(range(1, 5), 2)))
        assert complement(k4).edges() == []

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestCliqueComplex:
    def test_pentagon_has_no_triangles(self, c5_graph):
        cx = clique_complex(c5_graph)
        assert cx.dim == 1
        assert len(cx.facet_masks) == 5

    def test_complete_graph_gives_simplex(self):
        k4 = Graph(4, list(itertools.combinations(range(1, 5), 2)))
        assert clique_complex(k4) == Complex.simplex(4)

    def test_square_with_chord(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        assert clique_complex(g) == Complex.from_facets([(1, 2, 3), (1, 3, 4)])

    def test_isolated_vertices_kept(self):
        g = Graph(3, [(1, 2)])
        assert clique_complex(g) == Complex.from_facets([(1, 2), (3,)], n=3)

    def test_independence_complex(self, c5_graph):
        assert independence_complex(c5_graph) == clique_complex(complement(c5_graph))

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=6))
    def test_skeleton_recovers_graph(self, g):
        assert skeleton_graph(clique_complex(g)) == g


class TestInducedCycles:
    def test_pentagon(self, c5_graph):
        rep = induced_cycles(c5_graph, 5)
        assert rep.cycles == ((1, 2, 3, 4, 5),)
        assert rep.searched_max_length == 5

    def test_chordal_square(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        assert induced_cycles(g, 4).cycles == ()

    def test_hexagon_length_window(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        assert induced_cycles(g, 5).cycles == ()
        assert induced_cycles(g, 6).cycles == ((1, 2, 3, 4, 5, 6),)

    def test_canonical_rotation(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        ((cycle,),) = (induced_cycles(g, 4).cycles,)
        assert cycle[0] == 1 and cycle[1] < cycle[-1]

    def test_min_length_rejected(self, c5_graph):
        with pytest.raises(ValueError):
            induced_cycles(c5_graph, 3)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=6))
    def test_against_permutation_oracle(self, g):
        assert set(induced_cycles(g, max(4, g.n)).cycles) == brute_chordless(g)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=7))
    def test_every_reported_cycle_is_chordless(self, g):
        for cyc in induced_cycles(g, max(4, g.n)).cycles:
            k = len(cyc)
            for i in range(k):
                assert g.has_edge(cyc[i], cyc[(i + 1) % k])
            for i in range(k):
                for j in range(i + 2, k):
                    if i == 0 and j == k - 1:
                        continue
                    assert not g.has_edge(cyc[i], cyc[j])


class TestChordPredicates:
    def test_pentagon(self, c5_graph):
        assert chord_condition(c5_graph, 4) is True
        assert chord_condition(c5_graph, 5) is False
        assert is_chordal(c5_graph) is False
        assert r_chordal(c5_graph, 5) is True
        assert r_chordal(c5_graph, 4) is False

    def test_path_is_chordal(self):
        assert is_chordal(Graph(4, [(1, 2), (2, 3), (3, 4)]))

    def test_r3_is_vacuous(self, c5_graph):
        assert chord_condition(c5_graph, 3) is True

    def test_span(self, c5_graph):
        assert chordless_span(c5_graph.adj) == (5, 5)
        assert chordless_span(Graph(4, [(1, 2), (2, 3)]).adj) == (0, 0)


class TestLinearityChordalityBridge:
    """Linear steps of the clique-complex ideal count chordless cycles."""

    def _graphs(self, n, count=None, seed=0):
        from srlab import SearchSpace, enumerate_graphs
        mode = "exhaustive" if count is None else "sample"
        sp = SearchSpace(n=n, d="graphs", mode=mode, count=count or 0, seed=seed)
        return enumerate_graphs(sp)

    def _bridge_holds(self, g):
        from srlab import GF2, check_ndp, hochster_betti
        t = hochster_betti(clique_complex(g), GF2, "ideal")
        for p in range(1, g.n + 1):
            if check_ndp(t, 2, p) != chord_condition(g, max(3, p + 2)):
                return False
        return True

    def test_exhaustive_small(self):
        for n in (2, 3, 4, 5):
            for g in self._graphs(n):
                assert self._bridge_holds(g)

    @pytest.mark.slow
    def test_sampled_n6_n7(self):
        for n, seed in ((6, 31), (7, 32)):
            for g in self._graphs(n, count=120, seed=seed):
                assert self._bridge_holds(g)


class TestIsCycle:
    def test_pentagon(self, c5_graph):
        assert is_cycle_graph(c5_graph) is True

    def test_disconnected_regular(self):
        g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert is_cycle_graph(g) is False

    def test_chord_breaks_it(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        assert is_cycle_graph(g) is False
