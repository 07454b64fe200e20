"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own fast paths: the
dual oracle scans all 2^n subsets, the cycle oracle tries vertex
permutations, and the enumeration counts come from inclusion-exclusion.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations
from math import gcd

import pytest

from srlab import Complex, Graph
from srlab._bits import antichain
from srlab.fixtures import fixture_complex, fixture_graph
from srlab.homology import FieldSpec, dims_over_field


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


def seeded_complexes(n: int, count: int, seed: int) -> list[Complex]:
    """``count`` complexes on [n] from a seeded stream, each generated by
    1 to 8 random faces of any size (the full simplex included)."""
    rng = random.Random(seed)
    return [Complex.from_facets([rng.sample(range(1, n + 1), rng.randint(0, n))
                                 for _ in range(rng.randint(1, 8))], n=n)
            for _ in range(count)]


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


def census_by_face_scan(c: Complex, field: FieldSpec) -> Counter:
    """dim H~_i(lk F) summed over the faces F of c, keyed by
    (|F|, dim lk F, i), nonzero sums only: every subset of [n] is tested
    for being a face, and each face's link is eliminated uncached."""
    census: Counter = Counter()
    for f in range(1 << c.n):
        if not c.has_face_mask(f):
            continue
        link = tuple(g ^ f for g in c.facet_masks if g & f == f)
        top = max(g.bit_count() for g in link) - 1
        for deg, value in enumerate(dims_over_field(link, field), start=-1):
            if value:
                census[f.bit_count(), top, deg] += value
    return census


def ext_dimext_by_face_scan(c: Complex, field: FieldSpec) -> dict[int, int | None]:
    """dimext[i] = max |F| over faces F with H~_{i-|F|-1}(lk F) != 0, for
    i = 1..d (None when no face qualifies), read off the face-scan census."""
    d = c.dim + 1
    dimext: dict[int, int | None] = {i: None for i in range(1, d + 1)}
    for size, _, deg in census_by_face_scan(c, field):
        i = deg + size + 1
        if 1 <= i <= d and (dimext[i] is None or size > dimext[i]):
            dimext[i] = size
    return dimext


def rank_exact(rows: list[list[int]], p: int) -> int:
    """Rank of a dense integer matrix over GF(p), or over Q when ``p == 0``.

    Fraction-free row echelon form, eliminating every column: each pivot
    is an entry of least absolute value in its column, and a row below it
    becomes ``pv*row - f*prow``, reduced mod p or divided by its content
    over Q.  Scaling a row by a nonzero integer keeps the rank, so no
    fractions are needed.  ``rows`` is consumed.
    """
    if p:
        rows = [[x % p for x in row] for row in rows]
    m = len(rows)
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv, best = -1, 0
        for r in range(rank, m):
            x = abs(rows[r][col])
            if x and (piv < 0 or x < best):
                piv, best = r, x
                if x == 1:
                    break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pv = prow[col]
        for r in range(rank + 1, m):
            f = rows[r][col]
            if f:
                row = [pv * x - f * y for x, y in zip(rows[r], prow)]
                if p:
                    row = [x % p for x in row]
                else:
                    g = gcd(*row)
                    if g > 1:
                        row = [x // g for x in row]
                rows[r] = row
        rank += 1
        if rank == m:
            break
    return rank


def all_complex_facets(n: int):
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
