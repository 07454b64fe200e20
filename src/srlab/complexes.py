"""Simplicial complexes on an explicit ambient vertex set, stored by facets.

A complex lives on {1..n} and is given by its inclusion-maximal faces.
Faces are int bitmasks internally (vertex v <-> bit v-1); all public
surfaces speak 1-based labels.  Three kinds are distinguished: ``void``
(no faces at all), ``irrelevant`` (only the empty face) and ``proper``.
Every operation returns new values; nothing is mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, NamedTuple

from ._bits import (
    antichain,
    bits_of,
    compress_map,
    face_closure,
    faces_by_size_from_masks,
    labels_of,
    mask_of,
    remap,
    submasks_one_less,
)

#: the largest ambient size that the dual, Betti tables and reports accept
DEFAULT_SIZE_BOUND = 22


class ParseError(ValueError):
    """Raised for malformed facet-list / edge-list documents."""


class Complex:
    """Immutable simplicial complex: ambient size ``n`` + facet bitmasks."""

    __slots__ = ("n", "facet_masks", "_hash")

    def __init__(self, n: int, facets: Iterable[int], *, _trusted: bool = False):
        if n < 0:
            raise ValueError("ambient size must be >= 0")
        masks = tuple(sorted(facets)) if _trusted else antichain(facets)
        full = (1 << n) - 1
        for m in masks:
            if m & ~full:
                raise ValueError("facet uses a vertex outside the ambient set")
        self.n = n
        self.facet_masks = masks
        self._hash = hash((n, masks))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_facets(cls, faces: Iterable[Iterable[int]], n: int | None = None) -> "Complex":
        """Complex generated by ``faces`` (1-based labels); redundant faces absorbed."""
        masks = [mask_of(f) for f in faces]
        if n is None:
            occ = 0
            for m in masks:
                occ |= m
            n = occ.bit_length()
        return cls(n, masks)

    @classmethod
    def void(cls, n: int) -> "Complex":
        return cls(n, (), _trusted=True)

    @classmethod
    def irrelevant(cls, n: int) -> "Complex":
        return cls(n, (0,), _trusted=True)

    @classmethod
    def simplex(cls, n: int) -> "Complex":
        """Full simplex on {1..n}."""
        return cls(n, ((1 << n) - 1,), _trusted=True)

    # -- basic structure -------------------------------------------------

    @property
    def kind(self) -> str:
        if not self.facet_masks:
            return "void"
        if self.facet_masks == (0,):
            return "irrelevant"
        return "proper"

    @property
    def is_void(self) -> bool:
        return not self.facet_masks

    @property
    def dim(self) -> int | None:
        """Dimension; -1 for the irrelevant complex, None for void."""
        if self.is_void:
            return None
        return max(m.bit_count() for m in self.facet_masks) - 1

    @property
    def is_pure(self) -> bool:
        """All facets of equal size (vacuously true for void/irrelevant)."""
        sizes = {m.bit_count() for m in self.facet_masks}
        return len(sizes) <= 1

    def facets(self) -> list[tuple[int, ...]]:
        """Facets as sorted label tuples, in canonical (sorted-mask) order."""
        return [labels_of(m) for m in self.facet_masks]

    def has_face_mask(self, m: int) -> bool:
        return any(m & f == m for f in self.facet_masks)

    def face_masks(self) -> set[int]:
        """All faces (including the empty face for non-void complexes)."""
        return face_closure(self.facet_masks)

    def faces_by_size(self) -> list[list[int]]:
        """Face masks grouped by cardinality, each group sorted ascending."""
        return [] if self.is_void else faces_by_size_from_masks(self.facet_masks)

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_dim); empty tuple for the void complex."""
        return tuple(len(g) for g in self.faces_by_size())

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Complex)
            and self.n == other.n
            and self.facet_masks == other.facet_masks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_void:
            return f"Complex.void({self.n})"
        if self.kind == "irrelevant":
            return f"Complex.irrelevant({self.n})"
        inner = ",".join("{%s}" % ",".join(map(str, f)) for f in self.facets())
        return f"Complex(n={self.n}, <{inner}>)"


class LinkResult(NamedTuple):
    """Relabeled link/restriction plus the old label of each new vertex."""

    complex: Complex
    old_labels: tuple[int, ...]


@dataclass(frozen=True)
class ComplexInfo:
    """Enumerative profile: dimension, purity, f- and h-vectors."""

    n: int
    kind: str
    dim: int | None           # None encodes "void"
    d: int                    # dim + 1 (0 for void/irrelevant)
    pure: bool
    f_vector: tuple[int, ...]  # f_-1 .. f_dim
    h_vector: tuple[int, ...]  # h_0 .. h_d
    vertex_cover: bool         # every ambient vertex is a face


# ---------------------------------------------------------------------------
# parsing / rendering


def parse_complex(text: str) -> Complex:
    """Parse the facet-list format.

    Optional first line ``V: n`` fixes the ambient size; each non-blank
    line is one facet as whitespace-separated positive integers; ``#``
    starts a comment; the single token ``{}`` denotes the irrelevant
    complex.  Empty documents are refused (void vs irrelevant would be
    ambiguous).
    """
    declared_n: int | None = None
    facet_labels: list[tuple[int, ...]] = []
    saw_irrelevant = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if declared_n is None and not facet_labels and not saw_irrelevant and line.lower().startswith("v:"):
            try:
                declared_n = int(line[2:].strip())
            except ValueError:
                raise ParseError(f"line {lineno}: bad ambient declaration {line!r}") from None
            if declared_n < 0:
                raise ParseError(f"line {lineno}: ambient size must be >= 0")
            continue
        if line == "{}":
            saw_irrelevant = True
            continue
        try:
            labels = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(f"line {lineno}: malformed facet {line!r}") from None
        if any(v < 1 for v in labels):
            raise ParseError(f"line {lineno}: vertex labels must be positive")
        facet_labels.append(labels)

    if saw_irrelevant and facet_labels:
        raise ParseError("'{}' cannot be combined with facet lines")
    if not saw_irrelevant and not facet_labels:
        raise ParseError("empty document: no facets (use '{}' for the irrelevant complex)")

    max_label = max((max(f) for f in facet_labels if f), default=0)
    n = declared_n if declared_n is not None else max_label
    if max_label > n:
        raise ParseError(f"vertex label {max_label} outside declared ambient set of size {n}")
    if saw_irrelevant:
        return Complex.irrelevant(n)
    return Complex.from_facets(facet_labels, n=n)


def render_complex(c: Complex) -> str:
    """Facet-list document for ``c`` (parse_complex round-trips it)."""
    lines = [f"V: {c.n}"]
    if c.is_void:
        raise ValueError("the void complex has no facet-list representation")
    if c.kind == "irrelevant":
        lines.append("{}")
    else:
        for f in sorted(c.facets()):
            lines.append(" ".join(map(str, f)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# invariants


def complex_info(c: Complex) -> ComplexInfo:
    """Exact face counts and the binomial transform h-vector."""
    fv = c.f_vector()
    dim = c.dim
    d = 0 if dim is None else dim + 1
    h = tuple(
        sum((-1) ** (j - i) * comb(d - i, j - i) * fv[i] for i in range(j + 1))
        for j in range(d + 1)
    ) if fv else ()
    occ = 0
    for m in c.facet_masks:
        occ |= m
    return ComplexInfo(
        n=c.n,
        kind=c.kind,
        dim=dim,
        d=d,
        pure=c.is_pure,
        f_vector=fv,
        h_vector=h,
        vertex_cover=occ == (1 << c.n) - 1 and c.n >= 0 and not c.is_void,
    )


# ---------------------------------------------------------------------------
# combinatorial transformations


def _relabel(masks: Iterable[int], keep: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Compress masks onto the bits of ``keep``; return (masks, old labels)."""
    return tuple(sorted(remap(masks, compress_map(keep)))), labels_of(keep)


def link(c: Complex, face: Iterable[int]) -> LinkResult:
    """Link of a face, relabeled onto {1..n-|face|}; old labels reported.

    The facets of the link are exactly {F \\ face : F facet, F >= face},
    which is automatically an antichain.
    """
    fm = mask_of(face)
    if not c.has_face_mask(fm):
        raise ValueError(f"{tuple(sorted(labels_of(fm)))} is not a face")
    keep = ((1 << c.n) - 1) ^ fm
    masks = [g ^ fm for g in c.facet_masks if g & fm == fm]
    relabeled, old = _relabel(masks, keep)
    return LinkResult(Complex(c.n - fm.bit_count(), relabeled, _trusted=True), old)


def restriction(c: Complex, vertices: Iterable[int]) -> LinkResult:
    """Induced subcomplex on a vertex subset, relabeled contiguously."""
    w = mask_of(vertices)
    full = (1 << c.n) - 1
    if w & ~full:
        raise ValueError("restriction set uses a vertex outside the ambient set")
    if c.is_void:
        return LinkResult(Complex.void(w.bit_count()), labels_of(w))
    masks = antichain(g & w for g in c.facet_masks)
    relabeled, old = _relabel(masks, w)
    return LinkResult(Complex(w.bit_count(), relabeled, _trusted=True), old)


def _minimal_nonface_masks(c: Complex) -> list[int]:
    """Inclusion-minimal nonfaces as masks, in no particular order.

    A set is a nonface iff it meets the complement of every facet, so the
    minimal nonfaces are the minimal transversals of the facet
    complements.  Berge's method adds the complements one at a time to
    the minimal transversals t of the ones before (at first only the
    empty set).  A t that meets the new complement e is kept.  Any other
    t grows to t | b for every b in e, and a grown set is dropped only if
    it contains a kept one.  Grown sets never contain one another: t | b
    >= t' | b' with t' != t needs b in t' (else t' < t), but t' misses e.
    A kept set inside t | b meets e in b alone and lies in t otherwise,
    so the kept sets are filed by their vertex in e, if they have just
    one, and t | b is tested against the file of b only.  No face set is
    built; the void complex gets the empty set and the simplex none.
    """
    full = (1 << c.n) - 1
    found = [0]
    for f in c.facet_masks:
        e = full ^ f
        rest = [t for t in found if not t & e]
        if not rest:
            continue
        found = [t for t in found if t & e]
        through: dict[int, list[int]] = {}
        for k in found:
            b = k & e
            if not b & (b - 1):
                through.setdefault(b, []).append(k ^ b)
        found += [t | b for b in bits_of(e) for t in rest
                  if not any(s & t == s for s in through.get(b, ()))]
    return found


def minimal_nonfaces(c: Complex) -> list[tuple[int, ...]]:
    """Inclusion-minimal non-faces, sorted by size then lexicographically."""
    return sorted((labels_of(m) for m in _minimal_nonface_masks(c)),
                  key=lambda t: (len(t), t))


def alexander_dual(c: Complex) -> Complex:
    """Alexander dual on the same ambient set.

    Facets of the dual are complements of minimal nonfaces; in
    particular dual(void) is the full simplex and dual(full simplex) is
    void.  n is capped by ``DEFAULT_SIZE_BOUND``: the dual of one edge
    on n vertices has n - 2 facets of n - 1 vertices each.
    """
    if c.n > DEFAULT_SIZE_BOUND:
        raise ValueError(f"ambient size {c.n} exceeds bound {DEFAULT_SIZE_BOUND}")
    full = (1 << c.n) - 1
    duals = [full ^ m for m in _minimal_nonface_masks(c)]
    return Complex(c.n, duals, _trusted=True) if duals else Complex.void(c.n)


def skeleton_graph(c: Complex):
    """1-skeleton as a Graph (edges = 1-faces)."""
    from .graphs import Graph

    edges = []
    for f in c.face_masks() if not c.is_void else ():
        if f.bit_count() == 2:
            u, v = labels_of(f)
            edges.append((u, v))
    return Graph(c.n, edges)


def cone(c: Complex, label: int) -> Complex:
    """Cone with a new apex; the apex must be the next ambient label n+1."""
    if label <= c.n:
        raise ValueError(f"cone label {label} collides with the ambient set")
    if label != c.n + 1:
        raise ValueError(f"cone label must be {c.n + 1} (ambient grows by one)")
    apex = 1 << c.n
    return Complex(c.n + 1, tuple(f | apex for f in c.facet_masks), _trusted=True)


def sd_vertex_order(c: Complex) -> list[int]:
    """sd vertex i+1 <-> i-th nonempty face, ordered by (size, mask)."""
    return sorted((f for f in c.face_masks() if f), key=lambda m: (m.bit_count(), m))


def barycentric_subdivision(c: Complex) -> Complex:
    """Order complex of the nonempty faces (chains under inclusion).

    Facets are maximal chains; vertex numbering follows
    ``sd_vertex_order``.  Only proper complexes can be subdivided.
    """
    if c.kind != "proper":
        raise ValueError("barycentric subdivision needs a proper complex")
    order = sd_vertex_order(c)
    index = {f: i for i, f in enumerate(order)}
    facet_set = set(c.facet_masks)
    chains: list[int] = []

    def grow(top: int, chain_mask: int) -> None:
        subs = [s for s in submasks_one_less(top) if s]
        if not subs:
            chains.append(chain_mask)
            return
        for s in subs:
            grow(s, chain_mask | (1 << index[s]))

    for f in facet_set:
        grow(f, 1 << index[f])
    return Complex(len(order), chains, _trusted=True)
