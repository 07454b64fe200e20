"""Reduced simplicial homology over a field via exact boundary-matrix ranks.

The chain complex is augmented (the empty face sits in degree -1), so
the irrelevant complex has H~_-1 = 1; this convention is what makes
Hochster's formula come out right for small restrictions.  GF(2) ranks
use bit-packed column elimination; odd primes and the rationals share
one fraction-free integer row elimination, reduced mod p or divided by
row content over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ._bits import compress_masks, submasks_one_less
from .complexes import Complex


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: a prime p (exact arithmetic mod p) or Q."""

    variant: str            # "prime" | "rationals"
    p: int | None = None

    def __post_init__(self):
        if self.variant == "prime":
            if self.p is None or self.p < 2 or any(self.p % q == 0 for q in range(2, int(self.p**0.5) + 1)):
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
            return cls.gf(int(t))
        except ValueError:
            raise ValueError(f"bad field spec {text!r}: expected a prime or 'q'") from None

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


def rank_gf2_columns(cols: list[int]) -> int:
    """Rank over GF(2) of columns packed as int bitsets."""
    pivots: dict[int, int] = {}
    r = 0
    for v in cols:
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                r += 1
                break
            v ^= p
    return r


def _rank_exact(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p), or over Q when ``p == 0``.

    Fraction-free row echelon form: each pivot is an entry of least
    absolute value in its column, and a row below it becomes
    ``pv*row - f*prow``, reduced mod p or divided by its content over Q.
    Scaling a row by a nonzero integer keeps the rank, so no fractions
    are needed.  ``rows`` is consumed.
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


# ---------------------------------------------------------------------------
# boundary construction on raw facet masks


def faces_by_size_from_masks(facets: tuple[int, ...]) -> list[list[int]]:
    """All faces of the complex generated by ``facets``, grouped by size."""
    faces = set(facets)
    stack = list(facets)
    while stack:
        f = stack.pop()
        m = f
        while m:
            b = m & -m
            m ^= b
            sub = f ^ b
            if sub not in faces:
                faces.add(sub)
                stack.append(sub)
    faces.add(0)
    top = max(f.bit_count() for f in facets) if facets else 0
    groups: list[list[int]] = [[] for _ in range(top + 1)]
    for f in faces:
        groups[f.bit_count()].append(f)
    for g in groups:
        g.sort()
    return groups


def dims_gf2(facets: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced homology dims over GF(2), indexed from degree -1.

    ``facets`` is a nonempty antichain of masks ((0,) for the irrelevant
    complex).  Signs vanish mod 2, so boundary columns are plain bitsets.
    """
    groups = faces_by_size_from_masks(facets)
    top = len(groups) - 1
    counts = [len(g) for g in groups]
    ranks = [0] * (top + 2)  # ranks[s] = rank of boundary from size s to size s-1
    prev_index: dict[int, int] = {0: 0}
    for s in range(1, top + 1):
        cols = []
        for f in groups[s]:
            col = 0
            m = f
            while m:
                b = m & -m
                m ^= b
                col |= 1 << prev_index[f ^ b]
            cols.append(col)
        ranks[s] = rank_gf2_columns(cols)
        prev_index = {f: i for i, f in enumerate(groups[s])}
    return tuple(counts[s] - ranks[s] - ranks[s + 1] for s in range(top + 1))


def _signed_boundary_rows(lower: list[int], upper: list[int]) -> list[list[int]]:
    """Dense signed boundary matrix: rows <-> ``lower`` faces, cols <-> ``upper``."""
    idx = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, f in enumerate(upper):
        sign = 1
        m = f
        while m:
            b = m & -m
            m ^= b
            rows[idx[f ^ b]][j] = sign
            sign = -sign
    return rows


def dims_over_field(facets: tuple[int, ...], field: FieldSpec) -> tuple[int, ...]:
    """Reduced homology dims over an arbitrary FieldSpec (degree -1 first)."""
    if field.key == 2:
        return dims_gf2(facets)
    groups = faces_by_size_from_masks(facets)
    top = len(groups) - 1
    counts = [len(g) for g in groups]
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        ranks[s] = _rank_exact(_signed_boundary_rows(groups[s - 1], groups[s]), field.key)
    return tuple(counts[s] - ranks[s] - ranks[s + 1] for s in range(top + 1))


# ---------------------------------------------------------------------------
# cached front end

_CACHE: dict[tuple, tuple[int, ...]] = {}
_CACHE_LIMIT = 600_000


def clear_homology_cache() -> None:
    _CACHE.clear()


def dims_cached(facets: tuple[int, ...], field: FieldSpec) -> tuple[int, ...]:
    """Homology dims for raw facet masks, memoized on the occupied-vertex shape.

    Unused ambient vertices do not affect homology, so keys are
    compressed onto occupied bits; the same cache therefore serves links
    and restrictions living on scattered vertex subsets.
    """
    canon, _ = compress_masks(facets)
    key = (field.key, canon)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    dims = dims_over_field(canon, field)
    if len(_CACHE) < _CACHE_LIMIT:
        _CACHE[key] = dims
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
