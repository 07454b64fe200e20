"""Reduced simplicial homology over a field via exact boundary-matrix ranks.

The chain complex is augmented (the empty face sits in degree -1), so
the irrelevant complex has H~_-1 = 1; this convention is what makes
Hochster's formula come out right for small restrictions.  Every field,
and the table engine's GF(2) face levels, reduce the boundary maps in
one walk, ``clearing_dims``.  GF(2) columns are bitsets
(``pivot_rows_gf2``); odd primes and the rationals share one sparse,
fraction-free kernel on signed integer dicts (``_pivot_rows_exact``).

``dims_cached`` is the memoized front end, with two keys.  The labelled
key is the family of masks as given, sorted and deduplicated, so a
repeated restriction or link costs one lookup.  On a miss of that key
it cuts the family to its antichain and compresses that onto its
occupied vertices into the canonical key.  A shape met for the first
time is shrunk by strong collapses first (``_strong_core``): a vertex
all of whose facets hold one other vertex is deleted, which keeps the
homotopy type (Barmak-Minian).  A core of one vertex is acyclic over
every field, so its dims are written down without eliminating, and a
cone is the one-step case.  Any other core is eliminated once per
canonical shape, by ``dims_over_field`` on its compressed facets: the one
elimination under the cache, for links, restrictions and whole complexes
alike.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd

from ._bits import antichain, compress_masks, faces_by_size_from_masks
from .complexes import Complex


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64.

    No odd composite below 3.18 * 10^23 is a strong pseudoprime to all of
    the bases 2, 3, ..., 37 (Sorenson-Webster 2017), so the test is exact
    there; each base costs O(log n) modular squarings.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    r = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: a prime p (exact arithmetic mod p) or Q."""

    variant: str            # "prime" | "rationals"
    p: int | None = None

    def __post_init__(self):
        if self.variant == "prime":
            if self.p is not None and self.p >= 1 << 64:
                raise ValueError(f"{self.p} is too large: the characteristic must be below 2^64")
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        elif self.variant == "rationals":
            if self.p is not None:
                raise ValueError("rationals take no characteristic")
        else:
            raise ValueError(f"unknown field variant {self.variant!r}")

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rationals")

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Accepts a prime ('2', '3', ...) or 'q'/'Q'/'0' for the rationals."""
        t = text.strip().lower()
        if t in ("q", "qq", "0", "rationals"):
            return cls.rationals()
        try:
            p = int(t)
        except ValueError:
            raise ValueError(f"bad field spec {text!r}: expected a prime or 'q'") from None
        return cls.gf(p)

    @property
    def key(self):
        return self.p if self.variant == "prime" else 0

    def __str__(self) -> str:
        return f"GF({self.p})" if self.variant == "prime" else "QQ"


GF2 = FieldSpec.gf(2)
QQ = FieldSpec.rationals()


@dataclass(frozen=True)
class HomologyVector:
    """dims[i] = dim_K H~_i for i = -1 .. dim(c); empty for the void complex."""

    dims: tuple[int, ...]   # index 0 <-> degree -1
    offset: int = -1

    def __getitem__(self, i: int) -> int:
        j = i - self.offset
        if 0 <= j < len(self.dims):
            return self.dims[j]
        return 0

    def as_dict(self) -> dict[int, int]:
        return {self.offset + j: v for j, v in enumerate(self.dims)}

    def nonzero_degrees(self) -> list[int]:
        return [self.offset + j for j, v in enumerate(self.dims) if v]

    def total(self) -> int:
        return sum(self.dims)


# ---------------------------------------------------------------------------
# rank kernels


def pivot_rows_gf2(cols: Iterable[int]) -> int:
    """Bitmap of the leading rows of ``cols`` (int bitsets) reduced over GF(2).

    Each column is reduced by the kept columns until its leading row (its
    highest set bit) is new, or it vanishes.  The kept columns then have
    distinct leading rows, which are exactly the highest bits of the
    nonzero vectors in the span of ``cols``: the bitmap depends on that
    span alone, and its popcount is the rank.
    """
    pivots: dict[int, int] = {}
    lead = 0
    for v in cols:
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                lead |= 1 << h
                break
            v ^= p
    return lead


def _pivot_rows_exact(cols: Iterable[dict[int, int]], p: int) -> int:
    """Bitmap of the leading rows of ``cols`` reduced over GF(p), or over Q
    when ``p == 0``.

    Columns are sparse integer dicts (row -> entry).  As in
    ``pivot_rows_gf2``, a column is reduced by the kept columns until its
    leading row (its largest key) is new, or it vanishes; the step is
    ``a*col - c*pivot`` for the two leading entries a and c, taken mod p
    or divided by its content over Q.  Scaling a column by a nonzero
    integer keeps its span, so no fractions are needed.
    """
    pivots: dict[int, dict[int, int]] = {}
    lead = 0
    for v in cols:
        while v:
            h = max(v)
            q = pivots.get(h)
            if q is None:
                pivots[h] = v
                lead |= 1 << h
                break
            a, c = q[h], v[h]
            w = {r: a * x for r, x in v.items()}
            for r, y in q.items():
                w[r] = w.get(r, 0) - c * y
            if p:
                v = {r: x % p for r, x in w.items() if x % p}
            else:
                v = {r: x for r, x in w.items() if x}
                g = gcd(*v.values())
                if g > 1:
                    v = {r: x // g for r, x in v.items()}
    return lead


# ---------------------------------------------------------------------------
# the clearing walk


def clearing_dims(counts: list[int], columns, pivot_rows) -> tuple[int, ...]:
    """Reduced homology dims, indexed from degree -1, from the boundary maps
    reduced from the top size down with clearing.

    ``counts[s]`` is the number of faces of size s (``counts[0] == 1``, the
    empty face; trailing zeros are ignored).  ``columns(s, cleared)``
    returns the boundary columns of the size-s faces whose positions are
    not flagged in the bitmap ``cleared``, and ``pivot_rows`` maps columns
    to the bitmap of their leading rows (``pivot_rows_gf2``, or
    ``_pivot_rows_exact`` at a fixed p).  Clearing (Chen-Kerber's twist):
    a leading row of the reduced map out of size s + 1 is the last face
    of a boundary z, and d(z) = 0 makes that face's own column a
    combination of earlier columns, so skipping it leaves every rank as
    it was, over any field and however the columns are stored.  The map
    from vertices is not reduced: every vertex bounds the empty face, so
    rank d_1 = 1.
    """
    top = len(counts) - 1
    while top > 0 and not counts[top]:
        top -= 1
    ranks = [0] * (top + 2)  # ranks[s] = rank of the map from size s to size s - 1
    if top:
        ranks[1] = 1
    cleared = 0              # leading rows of the map out of size s + 1
    for s in range(top, 1, -1):
        cleared = pivot_rows(columns(s, cleared))
        ranks[s] = cleared.bit_count()
    return tuple(counts[s] - ranks[s] - ranks[s + 1] for s in range(top + 1))


def _bit_columns(lower: list[int], upper: list[int], skip: int) -> list[int]:
    """GF(2) boundary columns, bitsets over ``lower``, of the ``upper`` faces
    whose positions are not flagged in ``skip`` (signs vanish mod 2)."""
    idx = {f: i for i, f in enumerate(lower)}
    cols = []
    for i, f in enumerate(upper):
        if skip >> i & 1:
            continue
        col = 0
        m = f
        while m:
            b = m & -m
            m ^= b
            col |= 1 << idx[f ^ b]
        cols.append(col)
    return cols


def _signed_columns(lower: list[int], upper: list[int], skip: int = 0) -> list[dict[int, int]]:
    """Signed boundary columns, integer dicts over positions in ``lower``,
    of the ``upper`` faces whose positions are not flagged in ``skip``."""
    idx = {f: i for i, f in enumerate(lower)}
    cols = []
    for i, f in enumerate(upper):
        if skip >> i & 1:
            continue
        col = {}
        sign = 1
        m = f
        while m:
            b = m & -m
            m ^= b
            col[idx[f ^ b]] = sign
            sign = -sign
        cols.append(col)
    return cols


def _signed_boundary_rows(lower: list[int], upper: list[int]) -> list[list[int]]:
    """Dense signed boundary matrix: rows <-> ``lower`` faces, cols <-> ``upper``."""
    rows = [[0] * len(upper) for _ in lower]
    for j, col in enumerate(_signed_columns(lower, upper)):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def dims_over_field(facets: tuple[int, ...], field: FieldSpec) -> tuple[int, ...]:
    """Reduced homology dims over a FieldSpec, indexed from degree -1.

    ``facets`` is a nonempty antichain of masks ((0,) for the irrelevant
    complex).  GF(2) hands bitset columns to ``pivot_rows_gf2``; odd p and
    Q (key 0) hand signed integer-dict columns to ``_pivot_rows_exact``.
    """
    groups = faces_by_size_from_masks(facets)
    p = field.key
    if p == 2:
        build, pivot_rows = _bit_columns, pivot_rows_gf2
    else:
        build, pivot_rows = _signed_columns, lambda cols: _pivot_rows_exact(cols, p)
    return clearing_dims([len(g) for g in groups],
                         lambda s, cleared: build(groups[s - 1], groups[s], cleared), pivot_rows)


# ---------------------------------------------------------------------------
# cached front end

_CACHE: dict[tuple, tuple[int, ...]] = {}      # canonical shape -> dims
_CACHE_LIMIT = 600_000
_LABELLED: dict[tuple, tuple[int, ...]] = {}   # family as given -> dims
_LABELLED_LIMIT = 8_192                        # at most about 2 MB of keys


def clear_homology_cache() -> None:
    _CACHE.clear()
    _LABELLED.clear()


def _strong_core(family: tuple[int, ...]) -> tuple[int, ...]:
    """The antichain left when strong collapses strip ``family`` (an
    antichain) of dominated vertices until none is left.

    A vertex u is dominated by v != u when every facet through u holds
    v; deleting u is then a strong collapse, which keeps the homotopy
    type, so homology over every field (Barmak-Minian, Discrete Comput.
    Geom. 47, 2012).  With M(x) the set of members through x, each pass
    drops every u for which some v != u in all of M(u) has M(v) strictly
    larger than M(u), or equal with v the larger label.  Two vertices
    with M(u) = M(v) dominate each other, and the label keeps one of
    them.  This is sound for all the dropped vertices at once: v in
    every member through u gives M(v) >= M(u), so (M, label) grows
    strictly along u, v, the dominator of v, ..., and domination is
    transitive; the chain ends at a kept vertex s that dominates u.
    Deleting the dropped vertices one at a time in any order, a face
    through u of what is left lies in a facet of the family through u,
    which holds s, so every facet left through u holds s: each deletion
    is a strong collapse.  Members that are not maximal only shrink the
    intersection of the members through u, so over a nested family the
    rule finds fewer dominated vertices but stays sound.

    The members left by a pass are cut to their antichain for the next.
    When none of them is absorbed there, the walk ends: each member
    through a kept u has lost the dropped vertices only, so the new
    intersection is the old one less those, and the old one held, beside
    u, only twins of u with smaller labels, all dropped.  A single
    member is a simplex, whose core is its largest vertex.  The result
    is the restriction of the family to its own support.
    """
    core = family
    while len(core) > 1:
        meet: dict[int, int] = {}   # vertex bit -> intersection of the members through it
        for f in core:
            m = f
            while m:
                b = m & -m
                m ^= b
                meet[b] = meet.get(b, f) & f
        drop = 0
        for u, m in meet.items():
            others = m ^ u          # the vertices that dominate u
            if others > u:
                drop |= u
                continue
            while others:           # smaller labels: u stays if each is its twin
                v = others & -others
                others ^= v
                if not meet[v] & u:
                    drop |= u
                    break
        if not drop:
            return core
        left = antichain([f & ~drop for f in core])
        if len(left) == len(core):
            return left
        core = left
    f = core[0]
    return (1 << f.bit_length() - 1,) if f else core


def dims_cached(facets, field: FieldSpec) -> tuple[int, ...]:
    """Homology dims of the complex generated by a family of masks, memoized.

    The family may hold 0, duplicates and nested members.  It is looked
    up under its labelled key ``(field.key, sorted distinct members)``,
    so the repeated restrictions and links of one complex cost a lookup.
    On a miss the family is cut to its antichain, which leaves homology
    as it is, and compressed onto its occupied vertices into the
    canonical key of ``_CACHE``.  A canonical miss is shrunk to its
    ``_strong_core``.  A core of one vertex (a cone's, for one) is
    acyclic: its dims are all 0, up to the family's length, and are
    stored under the labelled key alone.  Any other core is eliminated
    once per canonical key of its own, by ``dims_over_field`` on the
    compressed core.  The core's dims are padded with zeros to the
    family's length, which ``criteria.link_profile`` reads as the
    dimension, and stored under the family's canonical key too.  A canonical family's two keys
    coincide, so it is stored once, in ``_CACHE``; the other families go
    to ``_LABELLED``, which is emptied when it reaches
    ``_LABELLED_LIMIT`` entries, so that a long session keeps storing
    its newest families.
    """
    key = (field.key, tuple(sorted(set(facets))))
    hit = _LABELLED.get(key) or _CACHE.get(key)
    if hit is not None:
        return hit
    family = key[1]
    top = antichain(family)
    canon, _ = compress_masks(top)
    ckey = (field.key, canon)
    dims = _CACHE.get(ckey)
    if dims is None:
        core = _strong_core(top)
        length = max(map(int.bit_count, top)) + 1
        if len(core) == 1 and core[0]:   # one vertex; (0,) is the irrelevant complex
            dims = (0,) * length
        else:
            core_key = ckey if core == top else (field.key, compress_masks(core)[0])
            dims = _CACHE.get(core_key)
            if dims is None:
                dims = dims_over_field(core_key[1], field)
                if len(_CACHE) < _CACHE_LIMIT:
                    _CACHE[core_key] = dims
            if core_key is not ckey:
                dims += (0,) * (length - len(dims))
                if len(_CACHE) < _CACHE_LIMIT:
                    _CACHE[ckey] = dims
            if canon == family:
                return dims
    if len(_LABELLED) >= _LABELLED_LIMIT:
        _LABELLED.clear()
    _LABELLED[key] = dims
    return dims


def reduced_homology(c: Complex, field: FieldSpec = GF2) -> HomologyVector:
    """H~_i(c; K) for i = -1 .. dim(c).

    dims[i] = nullity(d_i) - rank(d_{i+1}) on the augmented chain
    complex; the void complex yields the empty vector.
    """
    if c.is_void:
        return HomologyVector(())
    return HomologyVector(dims_cached(c.facet_masks, field))


def boundary_matrix(c: Complex, size: int) -> list[list[int]]:
    """Signed boundary matrix from size-``size`` faces to size-(size-1) faces.

    Faces ordered as in ``Complex.faces_by_size``; exposed mainly so
    tests can assert boundary-of-boundary vanishing.
    """
    groups = c.faces_by_size()
    if size < 1 or size >= len(groups):
        return []
    return _signed_boundary_rows(groups[size - 1], groups[size])
