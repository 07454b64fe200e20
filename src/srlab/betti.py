"""Graded Betti tables of I_Delta and K[Delta] via Hochster's formula.

beta_{i,j}(I_Delta) = sum over |W| = j of dim_K H~_{j-i-2}(Delta_W): every
invariant here (projdim, depth, regularity, the shape predicates) is a
function of that sparse table, computed without ever materializing the
polynomial ring.  Each restriction's homology comes from
``homology.dims_cached``, which looks the restricted family up as given
before it tests for a cone or canonicalizes.  The table of the
Alexander dual's ideal, ``dual_ideal_table``, is summed over the links
of the faces of Delta instead, so the dual is never built.  Indexing is
validated by the forced C4 complete-intersection example in the test
suite before anything else is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

from .complexes import Complex
from .homology import GF2, FieldSpec, dims_cached

#: Sentinel for check_ndp "all steps up to projdim must be linear".
FULL_LINEARITY = math.inf

DEFAULT_SIZE_BOUND = 22


@dataclass(frozen=True)
class BettiTable:
    """Sparse graded Betti numbers of the ideal or the quotient ring.

    ``entries[(i, j)]`` is beta_{i,j}; absent keys are zero.  ``dim_ring``
    carries dim K[Delta] = dim(c) + 1 so depth/CM can be derived from the
    table alone.
    """

    subject: str                      # "ideal" | "ring"
    n: int
    dim_ring: int
    field: FieldSpec
    entries: dict[tuple[int, int], int] = dfield(default_factory=dict)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    @property
    def gen_degree_max(self) -> int | None:
        """Max degree of a minimal generator (ideal tables; None if no generators)."""
        degs = [j for (i, j) in self.entries if i == 0] if self.subject == "ideal" else []
        return max(degs) if degs else None

    @property
    def projdim(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    def row_max_degree(self, i: int) -> int | None:
        degs = [j for (ii, j) in self.entries if ii == i]
        return max(degs) if degs else None


@dataclass(frozen=True)
class HomologicalInvariants:
    """Resolution invariants of K[Delta], all derived from a ring table."""

    projdim_ring: int
    depth: int
    dim_ring: int
    regularity_ideal: int | None   # None when I_Delta = 0 (full simplex)
    cm: bool


def hochster_betti(
    c: Complex,
    field: FieldSpec = GF2,
    subject: str = "ideal",
) -> BettiTable:
    """Betti table of I_Delta (or K[Delta]) by summing restriction homology.

    ``dims_cached`` answers each restriction: by a lookup under the
    restricted family as given, by the cone test on its antichain
    (maximal members sharing a vertex are acyclic over every field), or
    by homology memoized on the compressed shape.  A W that adds unused
    vertices to another W gives the same restricted family, so its term
    is a lookup.  The void complex is refused (its ideal would be the
    unit ideal); the irrelevant complex works and yields the Koszul
    table of the maximal ideal.  n is capped by ``DEFAULT_SIZE_BOUND``
    (the sum has 2^n terms).
    """
    if subject not in ("ideal", "ring"):
        raise ValueError(f"subject must be 'ideal' or 'ring', not {subject!r}")
    if c.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ideal")
    if c.n > DEFAULT_SIZE_BOUND:
        raise ValueError(f"ambient size {c.n} exceeds bound {DEFAULT_SIZE_BOUND}")

    ideal: dict[tuple[int, int], int] = {}
    facet_masks = c.facet_masks
    for w in range(1, 1 << c.n):
        j = w.bit_count()
        dims = dims_cached([f & w for f in facet_masks], field)
        for off, value in enumerate(dims):  # off = degree + 1; i >= 0 when value
            if value:
                key = (j - off - 1, j)
                ideal[key] = ideal.get(key, 0) + value

    dim_ring = 0 if c.dim is None else c.dim + 1
    table = BettiTable("ideal", c.n, dim_ring, field, ideal)
    return table if subject == "ideal" else ring_table(table)


def dual_ideal_table(c: Complex, field: FieldSpec = GF2) -> BettiTable:
    """Betti table of I_{Delta^vee}, the ideal of the Alexander dual, from
    the links of Delta; equal to ``hochster_betti(alexander_dual(c), field)``.

    By Eagon and Reiner's form of Hochster's formula (Miller-Sturmfels,
    Cor. 5.12), beta_{i,sigma}(I_{Delta^vee}) = dim H~_{i-1}(lk(F)) when
    F = [n] \\ sigma is a face of Delta, and 0 otherwise.  So the sum runs
    over the faces F of Delta, each a ``dims_cached`` call on its link
    family, adding to (i, n - |F|); the dual is never built.  dim of the
    dual's ring is n minus the least size of a nonface of Delta.  The full
    simplex is refused, as ``hochster_betti`` refuses its void dual; n is
    capped by ``DEFAULT_SIZE_BOUND`` as there.
    """
    if c == Complex.simplex(c.n):
        raise ValueError("the full simplex has a void Alexander dual, "
                         "which has no Stanley-Reisner ideal")
    if c.n > DEFAULT_SIZE_BOUND:
        raise ValueError(f"ambient size {c.n} exceeds bound {DEFAULT_SIZE_BOUND}")

    ideal: dict[tuple[int, int], int] = {}
    facet_masks = c.facet_masks
    sizes = [0] * (c.n + 1)  # faces of Delta by size
    for f in c.face_masks():
        sizes[f.bit_count()] += 1
        j = c.n - f.bit_count()
        dims = dims_cached([g ^ f for g in facet_masks if g & f == f], field)
        for off, value in enumerate(dims):  # off = i: H~_{i-1} of the link
            if value:
                key = (off, j)
                ideal[key] = ideal.get(key, 0) + value

    least_nonface = next(k for k, count in enumerate(sizes) if count < math.comb(c.n, k))
    return BettiTable("ideal", c.n, c.n - least_nonface, field, ideal)


def ring_table(ideal_table: BettiTable) -> BettiTable:
    """Shift an ideal table to the corresponding ring table."""
    if ideal_table.subject != "ideal":
        raise ValueError("expected an ideal table")
    ring = {(i + 1, j): v for (i, j), v in ideal_table.entries.items()}
    ring[(0, 0)] = 1
    return BettiTable("ring", ideal_table.n, ideal_table.dim_ring, ideal_table.field, ring)


def homological_invariants(t: BettiTable) -> HomologicalInvariants:
    """projdim/depth/regularity/CM from a ring table (Auslander-Buchsbaum)."""
    if t.subject != "ring":
        raise ValueError("homological invariants are read off the ring table")
    projdim = t.projdim
    depth = t.n - projdim
    regs = [j - i + 1 for (i, j) in t.entries if i >= 1]
    return HomologicalInvariants(
        projdim_ring=projdim,
        depth=depth,
        dim_ring=t.dim_ring,
        regularity_ideal=max(regs) if regs else None,
        cm=depth == t.dim_ring,
    )


def check_ndp(t: BettiTable, d: int, p) -> bool:
    """Green-Lazarsfeld N_{d,p} on an ideal table.

    True iff the ideal is generated purely in degree ``d`` and steps
    1..p-1 of the resolution are linear (beta_{i,j} = 0 for j != i+d).
    ``p <= 0`` is vacuous; ``p == FULL_LINEARITY`` demands linearity up
    to projdim.
    """
    if t.subject != "ideal":
        raise ValueError("N_{d,p} is a condition on the ideal table")
    if p <= 0:
        return True
    if any(j != d for (i, j) in t.entries if i == 0):
        return False
    limit = t.projdim if p == FULL_LINEARITY else p - 1
    for (i, j), _ in t.entries.items():
        if 1 <= i <= limit and j != i + d:
            return False
    return True


def check_er_shape(t: BettiTable, n: int, d: int, tparam: int) -> bool:
    """Betti-diagram shape forced by CM_t-ness of the dual.

    True iff beta_{0,j} = 0 for all j > n-d, and beta_{i,i+jj} = 0
    whenever jj > n-d and i+jj <= n-tparam (the staircase region).
    """
    if t.subject != "ideal":
        raise ValueError("the shape check reads the ideal table")
    for (i, j), v in t.entries.items():
        if not v:
            continue
        jj = j - i
        if i == 0 and j > n - d:
            return False
        if jj > n - d and j <= n - tparam:
            return False
    return True


def check_subadditivity(t: BettiTable) -> list[tuple[str, int, int]]:
    """Degree-jump violations between consecutive resolution steps.

    With e = max generator degree, reports ("HS", i, j0) when row i
    vanishes above j0 = its max degree yet row i+1 has an entry beyond
    j0 + e, and ("TV", i, j0) when the degree window j0..j0+e-1 of row i
    is empty yet beta_{i+1,j0+e} != 0.  Each violation carries its
    minimal witness j0.  Hochster-produced tables must come back empty
    (the guarantees are theorems); nonempty output signals an
    implementation bug.
    """
    if t.subject != "ideal":
        raise ValueError("subadditivity is checked on the ideal table")
    if not t.entries:
        return []
    e = t.gen_degree_max
    if e is None:
        # entries above an empty generator row violate HS for every j0
        return [("HS", 0, 0)]
    violations: list[tuple[str, int, int]] = []
    rows: dict[int, set[int]] = {}
    for (i, j) in t.entries:
        rows.setdefault(i, set()).add(j)
    top = max(rows)
    for i in range(top):
        cur = rows.get(i, set())
        nxt = rows.get(i + 1, set())
        if not nxt:
            continue
        if not cur:
            violations.append(("HS", i, min(nxt) - e))
            continue
        m_i = max(cur)
        if max(nxt) > m_i + e:
            violations.append(("HS", i, m_i))
        for j in sorted(nxt):
            j0 = j - e
            if all(k not in cur for k in range(j0, j0 + e)):
                violations.append(("TV", i, j0))
    return sorted(set(violations))


# ---------------------------------------------------------------------------
# presentation


def render_betti(t: BettiTable) -> str:
    """Macaulay-style diagram: rows are j-i, columns are i; '.' marks zero."""
    if not t.entries:
        return "(empty Betti table)\n"
    cols = range(0, t.projdim + 1)
    strands = sorted({j - i for (i, j) in t.entries})
    width = max(len(str(v)) for v in t.entries.values())
    width = max(width, len(str(t.projdim)), 2)
    head = "      " + " ".join(f"{i:>{width}}" for i in cols)
    lines = [head]
    totals = {i: 0 for i in cols}
    for s in range(min(strands), max(strands) + 1):
        cells = []
        for i in cols:
            v = t.beta(i, i + s)
            totals[i] += v
            cells.append(f"{v if v else '.':>{width}}")
        lines.append(f"{s:>4}: " + " ".join(cells))
    lines.append("total " + " ".join(f"{totals[i]:>{width}}" for i in cols))
    return "\n".join(lines) + "\n"


def betti_json(t: BettiTable) -> dict:
    """JSON payload: sorted sparse entries plus derived metadata."""
    return {
        "schema": "sr-lab/1",
        "subject": t.subject,
        "n": t.n,
        "dim_ring": t.dim_ring,
        "field": str(t.field),
        "entries": [[i, j, v] for (i, j), v in sorted(t.entries.items())],
    }
