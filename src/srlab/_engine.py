"""Table-accelerated GF(2) digests for the exhaustive harness runs.

The public modules remain the source of mathematical truth; this module
memoizes their answers over whole enumeration families so the labeled
exhaustive searches (millions of instances) finish in seconds on one
core.  It decides no theorem: the harness applies one clause function
per theorem to digests (min CM_t, Serre violation, homology dims, the
N_{2,.} threshold, Buchsbaum, full linearity) that come either from
these engines or from the public modules.  No table gives depth: a
Cohen-Macaulay complex has depth d, and the harness reads any other
depth from the generic Hochster sum.  Link digests are
``criteria.link_profile`` pairs, computed from GF(2) tables.
tests/test_harness.py compares the two providers field by field,
tests/test_engine_kernels.py compares the kernels and tables with the
generic route, and tests/test_orbits.py checks that every digest is
invariant under relabeling the vertices.

Layout:
  LevelHom        GF(2) homology from per-cardinality face bitmaps, reduced
                  from the top level down with clearing; face closure,
                  clique levels and boundary columns are table reads
                  (OR-folds and per-chunk column tuples).
  OrFold          the OR of per-slot contributions over a slot mask, read
                  with one table lookup per 11-slot chunk; every
                  per-instance face-bitmap map here is one, and so is
                  cover_filter, the instance filter of every route.
  PureSpaceEngine digests of the pure complexes with d-subset facets on
                  [n], by facet-set mask: homology, and the link digest
                  from one packed fold over the vertex links.
  LinkTables      the link_profile pair of every complex with k-subset
                  facets on [m], by facet-set mask: each entry is a
                  PureSpaceEngine digest over the tables one size down,
                  read through the vertex-link fold.
  FlagTables      the least nonlinear step of I_{clique(G)} for every graph
                  G on w <= 6 labeled vertices, by edge-set mask: each
                  entry is the least of G's own Hochster term and its w
                  card entries one table down, read through the deck fold.
  Codim2Engine    a PureSpaceEngine for pure codimension-2 complexes and
                  the graphs behind their duals, complemented by one
                  slot-reversing fold: the dual's 1-skeleton, and the
                  N_{2,.} threshold and full linearity from G's own term
                  and its n card entries in FlagTables(n - 1).
  orbit_reps      least slot mask of each S_n-orbit of slot masks, by DFS
  orbit_classes   through two generator OrFolds, and each orbit's (least
                  mask, size) from the same DFS; the harness checks and
                  counts every exhaustive space one orbit at a time.
  deck_key        the vertex-deleted deck of the graph behind an edge-set
                  or codimension-2 facet-set mask, as orbit_reps(n - 1, 2)
                  of its cards from the same deck fold: a complete class
                  key for n <= 7, which the harness uses on n = 7 samples.

The vertex-link fold and the deck fold are one construction
(_vertex_contrib): each packs, for every vertex v, the image of a slot
mask in the link or the deletion of v, relabeled one size down.

Every table entry depends only on the isomorphism class of its complex
or graph, so LinkTables and FlagTables compute one entry per orbit and
copy it to the rest of the orbit.  Their orbit tables have at most 15
slots (2^15 entries) and are built by the table constructors; the
21-slot n = 7 orbit tables are built only when the harness asks for them.

Two digests also verify combinatorial Alexander duality (H~_i of the
dual against H~_{n-i-3} of the complex) on every instance they analyze:
``Codim2Engine.ndp_threshold`` (thm-topin's N_{2,.} threshold) and
``Codim2Engine.clique_dual_cm`` when asked to (thm-main2).  A failure
raises EngineError, which the CLI maps to the internal-invariant exit
code.
"""
from __future__ import annotations

from functools import cache
from math import comb, factorial
from typing import Callable

from ._bits import compress_map, remap, size_subsets
from .criteria import NO_VIOLATION
from .homology import pivot_rows_gf2


class EngineError(AssertionError):
    """Internal consistency breach inside the fast path."""


# ---------------------------------------------------------------------------
# homology from per-level face bitmaps


class LevelHom:
    """GF(2) homology machinery for subsets of a fixed ambient [n].

    levels[k] lists all k-subsets of {1..n} as masks (sorted); a set of
    k-faces is a bitmap over positions in levels[k].  The boundary column
    of a k-subset is the bitmap of its (k-1)-subsets.  Every per-instance
    face computation is a table read: boundary columns are gathered from
    per-level tables of column tuples, one per 8-face chunk, and face
    closure and clique levels are OR-folds over faces.
    A fold's value packs one bitmap per level, level j at bit offset[j].
    """

    def __init__(self, n: int):
        self.n = n
        self.levels = levels = [size_subsets(n, k) for k in range(n + 1)]
        self.full = [(1 << len(level)) - 1 for level in levels]
        self.offset = [0]
        for level in levels:
            self.offset.append(self.offset[-1] + len(level))
        self.col_chunks: list[list[list[tuple[int, ...]]]] = [[]]
        for k in range(1, n + 1):
            cols = [_subsets_bitmap(levels[k - 1], face) for face in levels[k]]
            self.col_chunks.append([_subset_tuples(cols[c:c + COL_BITS])
                                    for c in range(0, len(cols), COL_BITS)])
        # clique_fold(non-edges), level k >= 3: the k-sets containing a non-edge
        self.clique_fold = OrFold([self._pack(_supersets_bitmap, p, range(3, n + 1))
                                   for p in (levels[2] if n >= 2 else [])])

    def _pack(self, bitmap_fn, face: int, ks) -> int:
        levels, offset = self.levels, self.offset
        return sum(bitmap_fn(levels[k], face) << offset[k] for k in ks)

    @cache
    def closure_fold(self, k: int) -> OrFold:
        """The fold from k-face bitmaps to all lower levels, level j < k
        holding their j-subsets (built once per k)."""
        return OrFold([self._pack(_subsets_bitmap, face, range(k)) for face in self.levels[k]])

    def closure(self, k: int, top_bitmap: int) -> list[int]:
        """Per-level face bitmaps of the pure complex on the flagged k-subsets."""
        packed = self.closure_fold(k).value(top_bitmap)
        offset, full = self.offset, self.full
        masks = [packed >> offset[j] & full[j] for j in range(k)]
        masks.append(top_bitmap)
        return masks

    def clique_levels(self, gmask: int) -> list[int]:
        """Per-level face bitmaps of the clique complex of the graph whose
        edges are flagged in ``gmask`` (a bitmap over levels[2]).

        A k-set is a clique iff it contains no non-edge; the levels stop
        at the first empty one, since no larger clique can exist past it.
        """
        n = self.n
        masks = [1, self.full[1], gmask][:n + 1]
        if n < 3 or not gmask:
            return masks
        containing = self.clique_fold.value(self.full[2] ^ gmask)
        offset, full = self.offset, self.full
        for k in range(3, n + 1):
            m = full[k] & ~(containing >> offset[k])
            if not m:
                break
            masks.append(m)
        return masks

    def boundary_columns(self, k: int, bitmap: int) -> tuple[int, ...]:
        """Boundary columns of the k-faces flagged in ``bitmap``."""
        cols: tuple[int, ...] = ()
        for table in self.col_chunks[k]:
            if not bitmap:
                break
            cols += table[bitmap & COL_MASK]
            bitmap >>= COL_BITS
        return cols

    def dims_from_levels(self, masks: list[int]) -> tuple[int, ...]:
        """Homology dims given per-level face bitmaps (masks[0] = 1 for the
        empty face; the complex must be closed under taking subsets).

        The boundary maps are reduced from the top level down, with
        clearing: each leading row of the reduced map out of level k + 1
        is the last k-face of a boundary, so its own column is a sum of
        earlier columns; it is masked out of level k before that level
        is reduced, which leaves every rank as it was.
        """
        top = len(masks) - 1
        while top > 0 and not masks[top]:
            top -= 1
        counts = [masks[lv].bit_count() for lv in range(top + 1)]
        ranks = [0] * (top + 2)
        if top:
            ranks[1] = 1  # every vertex bounds the empty face
        columns = self.boundary_columns
        cleared = 0  # leading rows of the map out of level lv + 1
        for lv in range(top, 1, -1):
            cleared = pivot_rows_gf2(columns(lv, masks[lv] & ~cleared))
            ranks[lv] = cleared.bit_count()
        return tuple(counts[lv] - ranks[lv] - ranks[lv + 1] for lv in range(top + 1))


def _subsets_bitmap(level: list[int], face: int) -> int:
    """Bitmap over ``level`` of the sets contained in ``face``."""
    bm = 0
    for i, mu in enumerate(level):
        if mu & face == mu:
            bm |= 1 << i
    return bm


def _supersets_bitmap(level: list[int], face: int) -> int:
    """Bitmap over ``level`` of the sets containing ``face``."""
    bm = 0
    for i, mu in enumerate(level):
        if mu & face == face:
            bm |= 1 << i
    return bm


def _subset_tuples(items: list[int]) -> list[tuple[int, ...]]:
    """table[s] = the items at the set bits of s, in order."""
    table: list[tuple[int, ...]] = [()]
    for item in items:
        table += [t + (item,) for t in table]
    return table


level_hom = cache(LevelHom)


# ---------------------------------------------------------------------------
# OR-fold tables (poor man's PEXT over slot spaces)

FOLD_BITS = 11                    # slots per OR-fold chunk: 2048-entry tables
FOLD_MASK = (1 << FOLD_BITS) - 1
COL_BITS = 8                      # faces per boundary-column chunk
COL_MASK = (1 << COL_BITS) - 1


class OrFold:
    """Precomputed OR-fold of per-slot contributions over a K-slot space.

    value(s) = OR of contrib[i] over the set bits i of s.  The slots are
    cut into chunks of FOLD_BITS, each read with one table lookup.  A
    fold always has at least two chunks (an empty one reads 0), so a fold
    with K <= 2 * FOLD_BITS slots may be read inline as
    lo[s & FOLD_MASK] | hi[s >> FOLD_BITS].
    """

    __slots__ = ("tables", "lo", "hi")

    def __init__(self, contrib: list[int]):
        starts = range(0, max(len(contrib), 2 * FOLD_BITS), FOLD_BITS)
        self.tables = [_or_fold_table(contrib[i:i + FOLD_BITS]) for i in starts]
        self.lo, self.hi = self.tables[0], self.tables[1]

    def value(self, s: int) -> int:
        out = 0
        for table in self.tables:
            out |= table[s & FOLD_MASK]
            s >>= FOLD_BITS
        return out


def _or_fold_table(contrib: list[int]) -> list[int]:
    k = len(contrib)
    table = [0] * (1 << k)
    for s in range(1, 1 << k):
        low = s & -s
        c = contrib[low.bit_length() - 1]
        # a slot that contributes nothing shares its entry's int object
        table[s] = table[s ^ low] | c if c else table[s ^ low]
    return table


@cache
def cover_filter(n: int, k: int) -> Callable[[int], bool]:
    """keep(s): the k-subsets of [n] flagged in slot mask ``s`` (over
    size_subsets(n, k)) cover every vertex of [n].

    The one instance filter of every route: every vertex a face for
    facet sets, no isolated vertex for edge sets (k = 2).  One OR-fold
    per (n, k), built once.
    """
    fold = OrFold(size_subsets(n, k))
    full = (1 << n) - 1
    if len(fold.tables) > 2:
        return lambda s: fold.value(s) == full
    lo, hi = fold.lo, fold.hi
    return lambda s: lo[s & FOLD_MASK] | hi[s >> FOLD_BITS] == full


def _vertex_contrib(slots: list[int], m: int, child_slots: list[int], link: bool) -> list[int]:
    """Per slot (a subset of [m]): for each vertex v+1 of [m], the bit of
    its image among ``child_slots`` (subsets of [m - 1]) at bit
    v * len(child_slots).  The image lies in the link of v+1 when
    ``link`` (the slots through v+1, less v+1) and in the deletion of v+1
    otherwise (the slots missing v+1), relabeled onto [m - 1]; the other
    slots add nothing there.  OR-folded over a slot mask, the value packs
    the m vertex links, or the m cards, one child mask per vertex."""
    index = {mask: i for i, mask in enumerate(child_slots)}
    width = len(child_slots)
    contrib = [0] * len(slots)
    for v in range(m):
        vbit = 1 << v
        inside = [i for i, f in enumerate(slots) if bool(f & vbit) == link]
        images = remap([slots[i] & ~vbit for i in inside], compress_map(((1 << m) - 1) ^ vbit))
        for i, f in zip(inside, images):
            contrib[i] |= 1 << (v * width + index[f])
    return contrib


def _combine_links(child: "LinkTables", packed: int, mb: int, sv: int) -> tuple[int, int]:
    """Fold the child digests of the links packed by a vertex-link fold
    into (max unclean size, Serre violation): a face unclean in the link
    of a vertex is one larger in the complex."""
    width = len(child.slots)
    full = (1 << width) - 1
    digest = child.digest
    while packed:
        lm = packed & full
        packed >>= width
        if lm:
            c, v = digest[lm]
            if c >= 0 and c + 1 > mb:
                mb = c + 1
            if v < sv:
                sv = v
    return mb, sv


# ---------------------------------------------------------------------------
# S_n orbits of slot masks


def _relabel_fold(slots: list[int], perm: list[int]) -> OrFold:
    """The slot permutation induced by the vertex permutation v -> perm[v]."""
    index = {mask: i for i, mask in enumerate(slots)}
    images = remap(slots, {1 << v: 1 << pv for v, pv in enumerate(perm)})
    return OrFold([1 << index[image] for image in images])


@cache
def _orbits(n: int, k: int) -> tuple[list[int], list[tuple[int, int]]]:
    """(orbit_reps(n, k), orbit_classes(n, k)) from one DFS (built once)."""
    slots = size_subsets(n, k)
    if len(slots) > 2 * FOLD_BITS:
        raise ValueError(f"orbit tables need at most {2 * FOLD_BITS} slots, "
                         f"({n}, {k}) has {len(slots)}")
    size = 1 << len(slots)
    swap = list(range(n))
    if n >= 2:
        swap[0], swap[1] = 1, 0
    # the transposition (1 2) and the n-cycle generate S_n; both folds read inline
    gens = [_relabel_fold(slots, swap), _relabel_fold(slots, [(v + 1) % n for v in range(n)])]
    images = [lambda x, lo=g.lo, hi=g.hi: lo[x & FOLD_MASK] | hi[x >> FOLD_BITS]
              for g in gens]
    group_order = factorial(n)
    rep = [-1] * size
    classes: list[tuple[int, int]] = []
    total = 0
    for s in range(size):
        if rep[s] >= 0:
            continue
        # s is the least mask of a new orbit: assign the orbit by DFS
        rep[s] = s
        stack = [s]
        count = 1
        while stack:
            x = stack.pop()
            for image in images:
                y = image(x)
                if rep[y] < 0:
                    rep[y] = s
                    stack.append(y)
                    count += 1
        if group_order % count:
            raise EngineError(f"orbit of {s} in ({n}, {k}) has {count} masks, "
                              f"which does not divide {n}!")
        classes.append((s, count))
        total += count
    if total != size:
        raise EngineError(f"orbit sizes of ({n}, {k}) sum to {total}, not 2^{len(slots)}")
    return rep, classes


def _orbit_table(m: int, k: int, entry: Callable[[int], object], empty: object) -> list:
    """table[s] for every slot mask s over size_subsets(m, k): ``empty`` at
    s = 0, entry(s) at the least mask s of every other S_m-orbit, and its
    representative's entry on the rest of the orbit, for entries that
    depend only on the isomorphism class."""
    rep = orbit_reps(m, k)
    table = [empty] * len(rep)
    for s in range(1, len(rep)):
        r = rep[s]
        table[s] = entry(s) if r == s else table[r]  # r < s: already filled
    return table


def orbit_reps(n: int, k: int) -> list[int]:
    """rep[s] = the least slot mask in the S_n-orbit of s, where slot masks
    are sets of k-subsets of [n] over size_subsets(n, k).

    LinkTables and FlagTables build the tables of at most 15 slots they
    read; the harness builds the rest (up to 21 slots) lazily.
    """
    return _orbits(n, k)[0]


def orbit_classes(n: int, k: int) -> list[tuple[int, int]]:
    """(least mask, orbit size) of every S_n-orbit of slot masks over
    size_subsets(n, k), by increasing least mask; the sizes sum to 2^C(n, k).

    Counted by the same DFS as orbit_reps; the harness walks this list
    on exhaustive spaces instead of the labeled masks.
    """
    return _orbits(n, k)[1]


@cache
def _deck_fold(n: int, k: int) -> OrFold:
    """The deck fold of slot masks over size_subsets(n, k), k = 2 or n - 2:
    its value packs each card G - v of the graph G behind the mask, as an
    edge mask on [n - 1] at bit v * C(n - 1, 2).  C(n, 2) <= 2 * FOLD_BITS
    for n <= 7, so it is read inline."""
    contrib = _vertex_contrib(size_subsets(n, 2), n, size_subsets(n - 1, 2), link=False)
    if k != 2:  # facet slot i is the complement of pair slot K-1-i
        contrib = contrib[::-1]
    return OrFold(contrib)


def _read_cards(fold: OrFold, n: int, table: list, combine: Callable[[list], object]
                ) -> Callable[[int], object]:
    """read(s) = combine of table[c] over the n cards c that ``fold``, a
    deck fold on [n], packs for slot mask s."""
    lo, hi = fold.lo, fold.hi
    width = comb(n - 1, 2)
    card = (1 << width) - 1
    offsets = range(0, n * width, width)

    def read(s: int):
        cards = lo[s & FOLD_MASK] | hi[s >> FOLD_BITS]
        return combine([table[cards >> o & card] for o in offsets])
    return read


@cache
def deck_key(n: int, k: int) -> Callable[[int], tuple[int, ...]]:
    """key(s): the deck of the graph G behind slot mask ``s`` over
    size_subsets(n, k), for k = 2 (G's edges) or k = n - 2 (the
    complements of the facets are G's edges).

    The deck is the sorted tuple of orbit_reps(n - 1, 2) of the n
    vertex-deleted subgraphs G - v.  By Kelly-Ulam reconstruction, which
    McKay verified by computer for every graph on 3 to 11 vertices, two
    masks share a key iff their graphs (so their complexes) are
    isomorphic; tests/test_orbits.py checks this on every mask for
    n <= 6 and on the 1,044 classes at n = 7.  A key needs the 15-slot
    n - 1 orbit table rather than a 2^21-entry one, so the harness keys
    n = 7 samples with it.  One deck-fold read gives all n cards.
    """
    if not 3 <= n <= 7 or k not in (2, n - 2):
        raise ValueError(f"decks key pairs or their complements on 3 <= n <= 7 vertices, "
                         f"not ({n}, {k})")  # K2 and its complement share a deck
    return _read_cards(_deck_fold(n, k), n, orbit_reps(n - 1, 2),
                       lambda reps: tuple(sorted(reps)))


# ---------------------------------------------------------------------------
# link profile tables


class LinkTables:
    """``criteria.link_profile`` of every complex with k-subset facets on [m].

    Index = facet-set mask over size_subsets(m, k); digest[s] is the pair
    (largest size of an unclean face or -1, least Serre-violating degree
    or NO_VIOLATION), computed from this module's GF(2) tables.  Built
    bottom-up: an entry is ``PureSpaceEngine(m, k).analyze_full``, which
    combines the complex's own homology with the digests of its vertex
    links, which live one table down.  Both digests depend only on the
    isomorphism class, so one entry per S_m-orbit is computed (at
    orbit_reps(m, k)) and every other entry copies its representative's;
    the engines need at most 15 slots here.
    """

    def __init__(self, m: int, k: int):
        if not (1 <= k <= m):
            raise ValueError("need 1 <= k <= m")
        self.m = m
        self.k = k
        self.slots = size_subsets(m, k)
        eng = PureSpaceEngine(m, k)
        self.digest = _orbit_table(m, k, lambda s: eng.analyze_full(s)[:2], (-1, NO_VIOLATION))


_LINK_TABLES: dict[tuple[int, int], LinkTables] = {}


def link_tables(m: int, k: int) -> LinkTables:
    key = (m, k)
    lt = _LINK_TABLES.get(key)
    if lt is None:
        lt = _LINK_TABLES[key] = LinkTables(m, k)
    return lt


# ---------------------------------------------------------------------------
# flag (clique complex) homology digests


def flag_dims(gmask: int, n: int) -> tuple[int, ...]:
    """Reduced GF(2) homology of the clique complex of the graph on [n]
    whose edges are flagged in ``gmask`` (over size_subsets(n, 2))."""
    lh = level_hom(n)
    return lh.dims_from_levels(lh.clique_levels(gmask))


def _own_step(dims: tuple[int, ...], n: int) -> int:
    """The least nonlinear step that W = [n] itself gives I_Delta, from the
    homology dims of Delta on [n]: n - deg - 2 for the top degree deg >= 1
    with H~_deg != 0, NO_VIOLATION when there is none."""
    for deg in range(len(dims) - 2, 0, -1):
        if dims[deg + 1]:
            return n - deg - 2
    return NO_VIOLATION


class FlagTables:
    """The least nonlinear step of I_{clique(G)} for every graph G on [w],
    by edge mask.

    step[e] is the least i with beta_{i,j}(I_{clique(G)}) != 0 for some
    j != i + 2, and NO_VIOLATION when the resolution is linear.  By
    Hochster's formula, beta_{i,W} = dim H~_{|W|-i-2} of the clique
    complex of G[W], so exactly the vertex sets W whose clique complex has
    homology in a degree deg >= 1 give such entries, at step
    |W| - deg - 2.  Every W short of [w] lies in some card G - v, so an
    entry is the least of G's own term (W = [w]) and the entries of its
    w cards in FlagTables(w - 1).  No clique complex on at most 3
    vertices has homology above degree 0, so those tables are all
    NO_VIOLATION.  The step depends only on the isomorphism class, so one
    entry per S_w-orbit is computed (at orbit_reps(w, 2), at most 15
    slots for w <= 6) and every other entry copies its representative's.
    """

    def __init__(self, w: int):
        self.w = w
        self.pair_slots = size_subsets(w, 2)
        if w <= 3:
            self.step = [NO_VIOLATION] * (1 << len(self.pair_slots))
            return
        cards = _card_step(w)
        self.step = _orbit_table(
            w, 2, lambda e: min(cards(e), _own_step(flag_dims(e, w), w)), NO_VIOLATION)


flag_tables = cache(FlagTables)


@cache
def _card_step(n: int) -> Callable[[int], int]:
    """steps(e): the least FlagTables(n - 1) entry over the n cards G - v
    of the graph G on [n] with edge mask ``e``, that is, the least
    nonlinear step of I_{clique(G)} over the vertex sets short of [n]."""
    return _read_cards(_deck_fold(n, 2), n, flag_tables(n - 1).step, min)


# ---------------------------------------------------------------------------
# the engines: digest kernels over facet-set and edge-set masks


def _check_duality(dims_c: tuple[int, ...], dims_dual: tuple[int, ...], n: int) -> None:
    """Alexander duality self-check: H~_i(dual) = H~_{n-i-3}(complex)."""
    for i in range(-1, n):
        a = dims_dual[i + 1] if 0 <= i + 1 < len(dims_dual) else 0
        j = n - i - 3
        b = dims_c[j + 1] if 0 <= j + 1 < len(dims_c) else 0
        if a != b:
            raise EngineError(
                f"Alexander duality violated: H{i}(dual)={a} vs H{j}(complex)={b}"
            )


class PureSpaceEngine:
    """Digest kernels for the pure complexes whose facets are d-subsets of
    [n], indexed by facet-set mask: homology, the link digest and the
    Buchsbaum gate.  GF(2) only; Codim2Engine extends it."""

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self.lh = level_hom(n)
        self.lh.closure_fold(d)
        self.facet_slots = self.lh.levels[d]
        if d >= 2:
            self.lt = link_tables(n - 1, d - 1)
            self.link_fold = OrFold(_vertex_contrib(self.facet_slots, n, self.lt.slots, link=True))
        else:  # 0-dimensional: every vertex link is the irrelevant complex
            self.lt = None
            self.link_fold = None

    def link_digest(self, s: int, mb: int = -1, sv: int = NO_VIOLATION) -> tuple[int, int]:
        """(max unclean size, Serre violation) over nonempty faces, folded
        into the given (mb, sv)."""
        if self.lt is None:
            return mb, sv
        return _combine_links(self.lt, self.link_fold.value(s), mb, sv)

    def is_buchsbaum(self, s: int) -> bool:
        """CM_1: every vertex link is Cohen-Macaulay."""
        return self.link_digest(s)[0] < 0

    def analyze_full(self, s: int) -> tuple[int, int, tuple[int, ...]]:
        """(max unclean size, Serre violation, homology dims) of the
        instance complex: the ``criteria.link_profile`` pair, plus dims."""
        dims = self.lh.dims_from_levels(self.lh.closure(self.d, s))
        mb = -1
        sv = NO_VIOLATION
        for i in range(self.d - 1):  # below the top degree: the empty face is unclean
            if dims[i + 1]:
                mb = 0
                sv = i
                break
        mb, sv = self.link_digest(s, mb, sv)
        return mb, sv, dims


pure_space_engine = cache(PureSpaceEngine)


class Codim2Engine(PureSpaceEngine):
    """Digest kernels for pure (n-3)-dimensional complexes on [n] and the
    graphs behind their duals.  GF(2) only; n <= 7 by table feasibility."""

    def __init__(self, n: int):
        if n < 3 or n > 7:
            raise ValueError("codim-2 engine supports 3 <= n <= 7")
        super().__init__(n, n - 2)
        self.pair_slots = self.lh.levels[2]
        self.card_step = _card_step(n)
        # C(n, 2) <= 2 * FOLD_BITS facet slots: every fold reads inline
        self.full = (1 << len(self.facet_slots)) - 1

        # complementing reverses the sorted slot order (facet slot i is the
        # complement of pair slot K-1-i), so one fold maps both ways
        K = len(self.facet_slots)
        self.f2e = OrFold([1 << (K - 1 - i) for i in range(K)])
        # neighbours of each vertex
        self.nbr_folds = [(fold.lo, fold.hi) for fold in (
            OrFold([p ^ (1 << v) if p >> v & 1 else 0 for p in self.pair_slots])
            for v in range(n))]

    # -- complex digests (instances are facet masks) -----------------------

    def adj_of_edges(self, gmask: int) -> tuple[int, ...]:
        lo_g = gmask & FOLD_MASK
        hi_g = gmask >> FOLD_BITS
        return tuple([lo[lo_g] | hi[hi_g] for lo, hi in self.nbr_folds])

    def dual_mask(self, x: int) -> int:
        """The Alexander-dual side of a mask: a facet mask gives the edges
        of its dual's 1-skeleton (the pairs whose complement facet is
        absent), and the edge mask of G gives the facet mask of
        (clique complex of G)^dual (the complements of the non-edges)."""
        fold = self.f2e
        t = self.full ^ x
        return fold.lo[t & FOLD_MASK] | fold.hi[t >> FOLD_BITS]

    def ndp_threshold(self, gmask: int, dims_c: tuple[int, ...]) -> int:
        """min t such that N_{2, d-t} holds for the dual's ideal.

        The dual of a pure codimension-2 complex is the clique complex of
        its 1-skeleton G (edge mask ``gmask``), so N_{2,.} fails first at
        the least nonlinear step of I_{clique(G)}: the least of G's own
        Hochster term and its n card entries (FlagTables).  The own term
        reads the dual's homology directly; dims_c, the homology of the
        complex, is checked against it by Alexander duality.
        """
        dims_dual = flag_dims(gmask, self.n)
        _check_duality(dims_c, dims_dual, self.n)
        istar = min(self.card_step(gmask), _own_step(dims_dual, self.n))
        if istar < 1:
            raise EngineError(f"nonlinear Betti entry at homological step {istar} < 1")
        if istar == NO_VIOLATION:
            return 0
        return max(0, self.d - istar)

    # -- graph digests (instances are edge masks of G) ---------------------

    def clique_dual_cm(self, e: int, check_duality: bool) -> int | None:
        """min CM_t of the Alexander dual of clique(G), None when that dual
        is void (G complete).  With ``check_duality`` the dual's homology
        is checked against the homology of clique(G) on the way."""
        s_dual = self.dual_mask(e)
        if not s_dual:
            return None
        max_unclean, _, dims_dual = self.analyze_full(s_dual)
        if check_duality:
            _check_duality(flag_dims(e, self.n), dims_dual, self.n)
        return max_unclean + 1

    def linearity_data(self, e: int) -> bool:
        """Whether I_{clique(G)} has a linear resolution: no card of G has a
        nonlinear step (FlagTables), and neither has G's own term."""
        return (self.card_step(e) == NO_VIOLATION
                and _own_step(flag_dims(e, self.n), self.n) == NO_VIOLATION)


codim2_engine = cache(Codim2Engine)
