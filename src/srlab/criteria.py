"""Ring-theoretic predicates read off link homology.

Everything here reduces to one question per face F: does
H~_i(link F; K) vanish for all i below dim(link F)?  Call F clean when
it does.  Then

  * Reisner: Cohen-Macaulay  <=>  every face (including the empty one)
    is clean;
  * CM_t  <=>  pure and every face of size >= t is clean;
  * singularity dimension < m  <=>  every face of size >= m+1 is clean;
  * Serre S_r  <=>  no face F has H~_i(link F) != 0 with
    i < min(r-1, dim link F).

The recursion below walks vertex links only (faces of size >= 1
correspond to faces of vertex links), memoizing per shape a census:
dim H~_i(link F) summed over the faces F of one size and one link
dimension.  The triple read off it (the largest size of an unclean face,
the smallest homological degree violating a Serre bound, and the depth by
Hochster's local-cohomology formula) serves the predicates; the Ext
profile here and ``betti.dual_ideal_table`` read the census itself,
through ``link_census``.  Conventions: the void and irrelevant complexes
are pure and Cohen-Macaulay; dim(empty face) = -1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bits import bits_of, compress_masks
from .complexes import DEFAULT_SIZE_BOUND, Complex
from .homology import GF2, FieldSpec, dims_cached

#: sentinel for "no Serre violation at any face" (plays nicely with min()).
NO_VIOLATION = 1 << 30

#: (max unclean size, Serre violation, depth, census); see ``link_profile``
Profile = tuple[int, int, int, tuple[tuple[int, int], ...]]

_PROFILE_CACHE: dict[tuple, Profile] = {}
_PROFILE_CACHE_LIMIT = 400_000


def clear_profile_cache() -> None:
    _PROFILE_CACHE.clear()


def link_profile(facets: tuple[int, ...], field: FieldSpec) -> Profile:
    """(max_unclean, serre_viol, depth, census) for the complex generated
    by ``facets``.

    census: (key, count) pairs, one per nonzero count, where count is
    dim H~_i(link F) summed over the faces F with |F| = s and
    dim(link F) = l, and key is s << 16 | (l + 1) << 8 | (i + 1).  A face
    of size s >= 1 is a face of size s - 1 in the links of its s
    vertices, with the same link, so the census is the complex's own
    homology at size 0 plus its vertex links' censuses moved up one size
    and divided by s.  The rest is read off it:
    max_unclean: largest |F| over unclean faces F, or -1 if all clean.
    serre_viol: min over faces F of the smallest i < dim(link F) with
    H~_i(link F) != 0, or NO_VIOLATION.
    depth: the least |F| + 1 + i over faces F with H~_i(link F) != 0.

    ``facets`` must be a nonempty antichain ((0,) for irrelevant).
    """
    canon, width = compress_masks(facets)  # on the vertices 0..width-1
    key = (field.key, canon)
    hit = _PROFILE_CACHE.get(key)
    if hit is not None:
        return hit

    dims = dims_cached(canon, field)
    own = (len(dims) - 1) << 8  # the empty face: its link is the complex
    census = {own | off: h for off, h in enumerate(dims) if h}
    merged: dict[int, int] = {}
    for b in bits_of((1 << width) - 1):
        for k, h in link_profile(tuple(f ^ b for f in canon if f & b), field)[3]:
            merged[k] = merged.get(k, 0) + h
    for k, h in merged.items():
        census[k + (1 << 16)] = h // ((k >> 16) + 1)  # one size up

    unclean = [k for k in census if k & 255 < k >> 8 & 255]  # i < dim(link F)
    max_unclean = max(unclean) >> 16 if unclean else -1
    serre_viol = min([k & 255 for k in unclean]) - 1 if unclean else NO_VIOLATION
    depth = min([(k >> 16) + (k & 255) for k in census])

    result = (max_unclean, serre_viol, depth, tuple(census.items()))
    if len(_PROFILE_CACHE) < _PROFILE_CACHE_LIMIT:
        _PROFILE_CACHE[key] = result
    return result


def _profile(c: Complex, field: FieldSpec) -> Profile:
    if c.is_void:
        return (-1, NO_VIOLATION, NO_VIOLATION, ())
    return link_profile(c.facet_masks, field)


def link_census(c: Complex, field: FieldSpec = GF2) -> dict[tuple[int, int], int]:
    """dim H~_i(link F) summed over the faces F of c with |F| = s, under
    (s, i): the ``link_profile`` census with the link dimensions summed out."""
    out: dict[tuple[int, int], int] = {}
    for k, h in _profile(c, field)[3]:
        key = (k >> 16, (k & 255) - 1)
        out[key] = out.get(key, 0) + h
    return out


# ---------------------------------------------------------------------------
# predicates


def reisner_cm(c: Complex, field: FieldSpec = GF2) -> bool:
    """Reisner's criterion; void and irrelevant complexes count as CM."""
    return _profile(c, field)[0] == -1


def cm_t(c: Complex, t: int, field: FieldSpec = GF2) -> bool:
    """Cohen-Macaulay in codimension t: pure, and links of faces of
    size >= t are CM.  Non-pure complexes fail for every t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if not c.is_pure:
        return False
    return _profile(c, field)[0] <= t - 1


def min_cm_t(c: Complex, field: FieldSpec = GF2) -> int | None:
    """Least t with CM_t (always <= d for pure complexes); None if not pure."""
    if not c.is_pure:
        return None
    return _profile(c, field)[0] + 1


def is_buchsbaum(c: Complex, field: FieldSpec = GF2) -> bool:
    """Buchsbaum-ness, taken by definition as CM_1."""
    return cm_t(c, 1, field)


def satisfies_serre(c: Complex, r: int, field: FieldSpec = GF2) -> bool:
    """Serre condition S_r; r <= 1 is vacuously true."""
    if r <= 1:
        return True
    return _profile(c, field)[1] >= r - 1


def max_serre(c: Complex, field: FieldSpec = GF2) -> int:
    """Largest r with S_r, capped at max(d, 1) since S_d already means CM."""
    d = 0 if c.dim is None else c.dim + 1
    cap = max(d, 1)
    return min(cap, _profile(c, field)[1] + 1)


def singularity_dimension_lt(c: Complex, m: int, field: FieldSpec = GF2) -> bool:
    """True iff links of all faces of dimension >= m are CM (dim(empty)=-1)."""
    return _profile(c, field)[0] <= m


def min_singularity_bound(c: Complex, field: FieldSpec = GF2) -> int:
    """Smallest m with singularity dimension < m (= -1 for CM complexes)."""
    return _profile(c, field)[0]


# ---------------------------------------------------------------------------
# Ext dimension profile


@dataclass(frozen=True)
class ExtDimProfile:
    """dim Ext^{n-i}(K[Delta], R) for i = 1..d, via link homology.

    dimext[i] = max{ |F| : F a face with H~_{i-|F|-1}(link F) != 0 },
    stored as None when no face qualifies (the zero module's dimension,
    conventionally -infinity).  The four characterizations below make
    S_r, CM_t, singularity dimension and purity checkable straight off
    this profile.
    """

    n: int
    d: int
    dimext: dict[int, int | None]

    def serre_via_ext(self, r: int) -> bool:
        if r <= 1:
            return True
        return all(
            self.dimext[i] is None or self.dimext[i] <= i - r
            for i in range(1, self.d)
        )

    def singdim_lt_via_ext(self, m: int) -> bool:
        return all(
            self.dimext[i] is None or self.dimext[i] <= m
            for i in range(1, self.d)
        )

    def cmt_via_ext(self, t: int, pure: bool) -> bool:
        return pure and all(
            self.dimext[i] is None or self.dimext[i] < t
            for i in range(1, self.d)
        )

    def pure_via_ext(self) -> bool:
        return all(
            self.dimext[i] is None or self.dimext[i] < i
            for i in range(1, self.d)
        )


def ext_dim_profile(c: Complex, field: FieldSpec = GF2) -> ExtDimProfile:
    """Ext dimensions of a proper complex, read off ``link_census``: each
    face F with H~_i(lk F) != 0 puts |F| into dimext[|F| + 1 + i]."""
    if c.kind != "proper":
        raise ValueError("the Ext profile needs a proper complex")
    d = c.dim + 1
    dimext: dict[int, int | None] = {i: None for i in range(1, d + 1)}
    for size, i in link_census(c, field):
        dimext[size + 1 + i] = max(size, dimext[size + 1 + i] or 0)
    return ExtDimProfile(n=c.n, d=d, dimext=dimext)


# ---------------------------------------------------------------------------
# consolidated report


@dataclass(frozen=True)
class PropertyReport:
    """One-stop summary used by the CLI's ``check --report``."""

    n: int
    pure: bool
    cm: bool
    min_cm_t: int | None
    buchsbaum: bool
    max_serre: int
    sing_dim_lt: int          # smallest m with singularity dimension < m
    depth: int
    dim_ring: int
    field: str

    def as_json(self) -> dict:
        return {
            "schema": "sr-lab/1",
            "n": self.n,
            "pure": self.pure,
            "cm": self.cm,
            "min_cm_t": self.min_cm_t,
            "buchsbaum": self.buchsbaum,
            "max_serre": self.max_serre,
            "sing_dim_lt": self.sing_dim_lt,
            "depth": self.depth,
            "dim_ring": self.dim_ring,
            "field": self.field,
        }


def property_report(c: Complex, field: FieldSpec = GF2) -> PropertyReport:
    """The whole predicate family plus depth of one complex (n <= DEFAULT_SIZE_BOUND)."""
    if c.is_void:
        raise ValueError("no property report for the void complex")
    if c.n > DEFAULT_SIZE_BOUND:
        raise ValueError(f"ambient size {c.n} exceeds bound {DEFAULT_SIZE_BOUND}")
    return PropertyReport(
        n=c.n,
        pure=c.is_pure,
        cm=reisner_cm(c, field),
        min_cm_t=min_cm_t(c, field),
        buchsbaum=is_buchsbaum(c, field),
        max_serre=max_serre(c, field),
        sing_dim_lt=min_singularity_bound(c, field),
        depth=_profile(c, field)[2],
        dim_ring=c.dim + 1,
        field=str(field),
    )


__all__ = [
    "NO_VIOLATION",
    "ExtDimProfile",
    "PropertyReport",
    "cm_t",
    "clear_profile_cache",
    "ext_dim_profile",
    "is_buchsbaum",
    "link_census",
    "link_profile",
    "max_serre",
    "min_cm_t",
    "min_singularity_bound",
    "property_report",
    "reisner_cm",
    "satisfies_serre",
    "singularity_dimension_lt",
]
