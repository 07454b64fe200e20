"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own fast paths: the
dual oracle scans all 2^n subsets, the cycle oracle tries vertex
permutations, and the enumeration counts come from inclusion-exclusion.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest

from srlab import Complex, Graph
from srlab._bits import antichain
from srlab.fixtures import fixture_complex, fixture_graph


@pytest.fixture
def c4():
    return fixture_complex("C4")


@pytest.fixture
def two_edges():
    return fixture_complex("2E")


@pytest.fixture
def mt6():
    return fixture_complex("MT6")


@pytest.fixture
def dualc5():
    return fixture_complex("DUALC5")


@pytest.fixture
def r6():
    return fixture_complex("R6")


@pytest.fixture
def d6():
    return fixture_complex("D6")


@pytest.fixture
def c5_graph():
    return fixture_graph("C5.graph")


def brute_dual(c: Complex) -> Complex:
    """Alexander dual by scanning every subset of the ambient set."""
    full = (1 << c.n) - 1
    faces = c.face_masks()
    dual_faces = [m for m in range(full + 1) if (full ^ m) not in faces]
    if not dual_faces:
        return Complex.void(c.n)
    return Complex(c.n, antichain(dual_faces), _trusted=True)


def brute_minimal_nonfaces(c: Complex) -> list[tuple[int, ...]]:
    """Minimal nonfaces by scanning every subset."""
    faces = c.face_masks()
    out = []
    for m in range(1 << c.n):
        if m in faces:
            continue
        sub_ok = True
        mm = m
        while mm:
            b = mm & -mm
            mm ^= b
            if (m ^ b) not in faces:
                sub_ok = False
                break
        if sub_ok:
            labels = []
            mm = m
            while mm:
                b = mm & -mm
                mm ^= b
                labels.append(b.bit_length())
            out.append(tuple(labels))
    return sorted(out, key=lambda t: (len(t), t))


def all_pure_complexes(n: int, d: int, cover: bool = True):
    """Plain itertools enumeration of pure facet sets (test-side oracle)."""
    slots = [frozenset(c) for c in combinations(range(1, n + 1), d)]
    full = set(range(1, n + 1))
    for mask in range(1, 1 << len(slots)):
        chosen = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        if cover and set().union(*chosen) != full:
            continue
        yield Complex.from_facets(chosen, n=n)


def cycle_complex(r: int) -> Complex:
    """Boundary of the r-gon as a 1-dimensional complex."""
    return Complex.from_facets([(i, i % r + 1) for i in range(1, r + 1)], n=r)


def gamma_complex(r: int) -> Complex:
    """Facets are complements of the non-edges of the r-cycle."""
    edges = {frozenset((i, i % r + 1)) for i in range(1, r + 1)}
    verts = set(range(1, r + 1))
    nonedges = [frozenset(p) for p in combinations(sorted(verts), 2) if frozenset(p) not in edges]
    return Complex.from_facets([tuple(sorted(verts - set(p))) for p in nonedges], n=r)


def brute_chordless(g: Graph) -> set[tuple[int, ...]]:
    """Permutation-based oracle for chordless cycles in canonical rotation."""
    out = set()
    for k in range(4, g.n + 1):
        for verts in permutations(range(1, g.n + 1), k):
            if verts[0] != min(verts) or verts[1] > verts[-1]:
                continue
            ok = all(g.has_edge(verts[i], verts[(i + 1) % k]) for i in range(k))
            if not ok:
                continue
            for i in range(k):
                for j in range(i + 2, k):
                    if i == 0 and j == k - 1:
                        continue
                    if g.has_edge(verts[i], verts[j]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.add(verts)
    return out
