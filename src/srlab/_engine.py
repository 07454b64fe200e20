"""Table-accelerated GF(2) digests for the exhaustive harness runs.

The public modules remain the source of mathematical truth; this module
memoizes their answers over whole enumeration families so the labeled
exhaustive searches (millions of instances) finish in seconds on one
core.  It decides no theorem: the harness applies one clause function
per theorem to digests (min CM_t, Serre violation, homology dims, the
N_{2,.} threshold, Buchsbaum, depth, full linearity) that come either
from these engines or from the public modules.  tests/test_harness.py
compares the two providers field by field, tests/test_engine_kernels.py
compares the kernels and tables with the generic route, and
tests/test_orbits.py checks that every digest is invariant under
relabeling the vertices.

Layout:
  LevelHom        GF(2) homology from per-cardinality face bitmaps; face
                  closure, clique levels and boundary columns are table
                  reads (OR-folds and per-chunk column tuples).
  OrFold          the OR of per-slot contributions over a slot mask, read
                  with one table lookup per 11-slot chunk; every
                  per-instance face-bitmap map here is one, and so is
                  cover_filter, the instance filter of every route.
  PureSpaceEngine digests of the pure complexes with d-subset facets on
                  [n], by facet-set mask: homology, and the link digest
                  from one packed fold over the vertex links.
  LinkTables      (max unclean size, Serre violation) of every complex
                  with k-subset facets on [m], by facet-set mask: each
                  entry is a PureSpaceEngine digest over the tables one
                  size down.
  FlagTables      homology digests of clique complexes of all graphs on
                  w <= 6 labeled vertices, indexed by edge-set mask.
  Codim2Engine    a PureSpaceEngine for pure codimension-2 complexes and
                  the graphs behind their duals: the dual's 1-skeleton,
                  the N_{2,.} threshold, depth >= d-1 and full linearity.
  orbit_reps      least slot mask of each S_n-orbit of slot masks, by DFS
                  through two generator OrFolds; the harness checks one
                  instance per orbit in exhaustive spaces.
  deck_key        the vertex-deleted deck of the graph behind an edge-set
                  or codimension-2 facet-set mask, as orbit_reps(n - 1, 2)
                  of its cards from one packed OrFold: a complete class
                  key for n <= 7, which the harness uses on n = 7 samples.

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
from .graphs import reachable
from .homology import rank_gf2_columns

_SERRE_NONE = 99  # "no Serre violation anywhere" (dimensions here are < 99)


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
        empty face; the complex must be closed under taking subsets)."""
        top = len(masks) - 1
        while top > 0 and not masks[top]:
            top -= 1
        counts = [masks[lv].bit_count() for lv in range(top + 1)]
        ranks = [0] * (top + 2)
        if top:
            ranks[1] = 1  # every vertex bounds the empty face
        columns = self.boundary_columns
        for lv in range(2, top + 1):
            ranks[lv] = rank_gf2_columns(columns(lv, masks[lv]))
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


def _link_fold(slots: list[int], m: int, child: "LinkTables") -> OrFold:
    """The vertex-link map of a facet-set mask over ``slots`` (k-subsets
    of [m]): its value packs, for each vertex v+1 of [m], the child-table
    mask of the link of v+1 at bit v * len(child.slots) (0 when no facet
    contains v+1)."""
    index = {mask: i for i, mask in enumerate(child.slots)}
    width = len(child.slots)
    contrib = [0] * len(slots)
    for v in range(m):
        vbit = 1 << v
        # the facets through v+1, less v+1, relabeled onto [m - 1]
        inside = [i for i, f in enumerate(slots) if f & vbit]
        links = remap([slots[i] ^ vbit for i in inside], compress_map(((1 << m) - 1) ^ vbit))
        for i, f in zip(inside, links):
            contrib[i] |= 1 << (v * width + index[f])
    return OrFold(contrib)


def _combine_links(child: "LinkTables", packed: int, mb: int, sv: int) -> tuple[int, int]:
    """Fold the child digests of the links packed by a ``_link_fold`` into
    (max unclean size, Serre violation): a face unclean in the link of a
    vertex is one larger in the complex."""
    width = len(child.slots)
    full = (1 << width) - 1
    maxbad = child.maxbad
    serre = child.serre
    while packed:
        lm = packed & full
        packed >>= width
        if lm:
            c = maxbad[lm]
            if c >= 0 and c + 1 > mb:
                mb = c + 1
            c = serre[lm]
            if c < sv:
                sv = c
    return mb, sv


# ---------------------------------------------------------------------------
# S_n orbits of slot masks


def _relabel_fold(slots: list[int], perm: list[int]) -> OrFold:
    """The slot permutation induced by the vertex permutation v -> perm[v]."""
    index = {mask: i for i, mask in enumerate(slots)}
    images = remap(slots, {1 << v: 1 << pv for v, pv in enumerate(perm)})
    return OrFold([1 << index[image] for image in images])


@cache
def orbit_reps(n: int, k: int) -> list[int]:
    """rep[s] = the least slot mask in the S_n-orbit of s, where slot masks
    are sets of k-subsets of [n] over size_subsets(n, k) (built once).

    LinkTables and FlagTables build the tables of at most 15 slots they
    read; the harness builds the rest (up to 21 slots) lazily.
    """
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
        total += count
    if total != size:
        raise EngineError(f"orbit sizes of ({n}, {k}) sum to {total}, not 2^{len(slots)}")
    return rep


@cache
def _deck_contrib(n: int) -> list[int]:
    """Per pair of [n] (over size_subsets(n, 2)): its edge bit in each card
    G - v, relabeled onto [n - 1], at bit v * C(n - 1, 2) (0 in card v
    when the pair contains v+1).  Built once per n for both slot kinds."""
    card_index = {mask: i for i, mask in enumerate(size_subsets(n - 1, 2))}
    width = len(card_index)
    pairs = size_subsets(n, 2)
    contrib = [0] * len(pairs)
    for v in range(n):
        vbit = 1 << v
        inside = [i for i, p in enumerate(pairs) if not p & vbit]
        cards = remap([pairs[i] for i in inside], compress_map(((1 << n) - 1) ^ vbit))
        for i, p in zip(inside, cards):
            contrib[i] |= 1 << (v * width + card_index[p])
    return contrib


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
    n = 7 samples with it.  One packed OR-fold read gives all n cards.
    """
    if not 3 <= n <= 7 or k not in (2, n - 2):
        raise ValueError(f"decks key pairs or their complements on 3 <= n <= 7 vertices, "
                         f"not ({n}, {k})")  # K2 and its complement share a deck
    contrib = _deck_contrib(n)
    if k != 2:  # facet slot -> its complement pair
        pair_index = {mask: i for i, mask in enumerate(size_subsets(n, 2))}
        nfull = (1 << n) - 1
        contrib = [contrib[pair_index[nfull ^ f]] for f in size_subsets(n, k)]
    fold = OrFold(contrib)  # C(n, 2) <= 2 * FOLD_BITS: read inline
    lo, hi = fold.lo, fold.hi
    rep = orbit_reps(n - 1, 2)
    width = comb(n - 1, 2)
    card = (1 << width) - 1
    offsets = range(0, n * width, width)

    def key(s: int) -> tuple[int, ...]:
        cards = lo[s & FOLD_MASK] | hi[s >> FOLD_BITS]
        return tuple(sorted([rep[cards >> o & card] for o in offsets]))
    return key


# ---------------------------------------------------------------------------
# link profile tables


class LinkTables:
    """(max_unclean, serre_viol) for every complex with k-subset facets on [m].

    Index = facet-set mask over size_subsets(m, k).  max_unclean is the
    largest size of a face whose link has homology below its dimension
    (-1 if none); serre_viol is the smallest degree violating a Serre
    bound anywhere (=_SERRE_NONE if none).  Built bottom-up: an entry is
    ``PureSpaceEngine(m, k).analyze_full``, which combines the complex's
    own homology with the digests of its vertex links, which live one
    table down.  Both digests depend only
    on the isomorphism class, so one entry per S_m-orbit is computed
    (at orbit_reps(m, k)) and every other entry copies its
    representative's; the engines need at most 15 slots here.
    """

    def __init__(self, m: int, k: int):
        if not (1 <= k <= m):
            raise ValueError("need 1 <= k <= m")
        self.m = m
        self.k = k
        self.slots = size_subsets(m, k)
        K = len(self.slots)
        size = 1 << K
        self.maxbad = maxbad = [-1] * size
        self.serre = serre = [_SERRE_NONE] * size
        if k == 1:
            return  # point sets: 0-dimensional, always clean everywhere

        eng = PureSpaceEngine(m, k)
        rep = orbit_reps(m, k)
        for s in range(1, size):
            r = rep[s]
            if r != s:  # r < s: its entry is already filled
                maxbad[s] = maxbad[r]
                serre[s] = serre[r]
                continue
            t_cm, serre[s], _, _ = eng.analyze_full(s)
            maxbad[s] = t_cm - 1


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


class FlagTables:
    """Digests of clique complexes of all graphs on [w], by edge mask.

    nlmax[e] = max degree >= 1 with nonzero reduced homology (-1 when the
    only homology sits in degrees -1/0): exactly the data Hochster terms
    need to locate nonlinear Betti entries.  It depends only on the
    isomorphism class of the graph, so one entry per S_w-orbit is
    computed (at orbit_reps(w, 2), at most 15 slots for w <= 6) and
    every other entry copies its representative's.
    """

    def __init__(self, w: int):
        self.w = w
        lh = level_hom(w)
        self.pair_slots = lh.levels[2]
        nlmax = [-1] * (1 << len(self.pair_slots))
        rep = orbit_reps(w, 2)
        for e in range(len(nlmax)):
            r = rep[e]
            if r != e:  # r < e: its entry is already filled
                nlmax[e] = nlmax[r]
                continue
            dims = flag_dims(e, w)
            best = -1
            for deg in range(1, len(dims) - 1):
                if dims[deg + 1]:
                    best = deg
            nlmax[e] = best
        self.nlmax = nlmax


flag_tables = cache(FlagTables)


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
            self.link_fold = _link_fold(self.facet_slots, n, self.lt)
        else:  # 0-dimensional: every vertex link is the irrelevant complex
            self.lt = None
            self.link_fold = None

    def link_digest(self, s: int, mb: int = -1, sv: int = _SERRE_NONE) -> tuple[int, int]:
        """(max unclean size, Serre violation) over nonempty faces, folded
        into the given (mb, sv)."""
        if self.lt is None:
            return mb, sv
        return _combine_links(self.lt, self.link_fold.value(s), mb, sv)

    def is_buchsbaum(self, s: int) -> bool:
        """CM_1: every vertex link is Cohen-Macaulay."""
        return self.link_digest(s)[0] < 0

    def analyze_full(self, s: int) -> tuple[int, int, tuple[int, ...], list[int]]:
        """(min_cm_t, serre_viol, homology dims, level bitmaps) of the instance complex."""
        levels = self.lh.closure(self.d, s)
        dims = self.lh.dims_from_levels(levels)
        mb = -1
        sv = _SERRE_NONE
        for i in range(self.d - 1):  # below the top degree: the empty face is unclean
            if dims[i + 1]:
                mb = 0
                sv = i
                break
        mb, sv = self.link_digest(s, mb, sv)
        return mb + 1, sv, dims, levels


pure_space_engine = cache(PureSpaceEngine)


class Codim2Engine(PureSpaceEngine):
    """Digest kernels for pure (n-3)-dimensional complexes on [n] and the
    graphs behind their duals.  GF(2) only; n <= 7 by table feasibility."""

    def __init__(self, n: int):
        if n < 3 or n > 7:
            raise ValueError("codim-2 engine supports 3 <= n <= 7")
        super().__init__(n, n - 2)
        self.pair_slots = self.lh.levels[2]
        # C(n, 2) <= 2 * FOLD_BITS facet slots: every fold reads inline
        self.full = (1 << len(self.facet_slots)) - 1

        # facet-slot <-> complement-pair-slot permutations
        pair_index = {mask: i for i, mask in enumerate(self.pair_slots)}
        facet_index = {mask: i for i, mask in enumerate(self.facet_slots)}
        nfull = (1 << n) - 1
        self.f2e = OrFold([1 << pair_index[nfull ^ f] for f in self.facet_slots])
        self.e2f = OrFold([1 << facet_index[nfull ^ p] for p in self.pair_slots])
        # neighbours of each vertex
        self.nbr_folds = [(fold.lo, fold.hi) for fold in (
            OrFold([p ^ (1 << v) if p >> v & 1 else 0 for p in self.pair_slots])
            for v in range(n))]

        # level bitmaps of the subsets lying inside W, for |W| >= 5 (the
        # only restriction sizes that can push projdim of the ring past 3)
        self.inside_w: dict[int, list[int]] = {}
        for wmask in range(1 << n):
            w = wmask.bit_count()
            if w < 5 or w == n:
                continue
            self.inside_w[wmask] = [_subsets_bitmap(self.lh.levels[k], wmask)
                                    for k in range(min(w, 3) + 1)]

        # per-W restriction maps of graph edge masks into FlagTables spaces,
        # as (fold.lo, fold.hi, w, nlmax), for the sizes w whose clique
        # complexes can have H~_{>=1} at all (none for w <= 3: such a map
        # could never give a nonlinear term)
        self.restmaps: list[tuple[list[int], list[int], int, list[int]]] = []
        for wmask in range(1, 1 << n):
            w = wmask.bit_count()
            if w < 2 or w == n:
                continue
            ft = flag_tables(w)
            if max(ft.nlmax) < 1:
                continue
            sub_index = {mask: i for i, mask in enumerate(ft.pair_slots)}
            inside = [p for p in self.pair_slots if p & wmask == p]
            image = dict(zip(inside, remap(inside, compress_map(wmask))))
            contrib = [1 << sub_index[image[p]] if p in image else 0 for p in self.pair_slots]
            fold = OrFold(contrib)
            self.restmaps.append((fold.lo, fold.hi, w, ft.nlmax))

    # -- complex digests (instances are facet masks) -----------------------

    def adj_of_edges(self, gmask: int) -> tuple[int, ...]:
        lo_g = gmask & FOLD_MASK
        hi_g = gmask >> FOLD_BITS
        return tuple([lo[lo_g] | hi[hi_g] for lo, hi in self.nbr_folds])

    def dual_graph_mask(self, s: int) -> int:
        """Edges of the dual's 1-skeleton: pairs whose complement facet is absent."""
        fold = self.f2e
        t = self.full ^ s
        return fold.lo[t & FOLD_MASK] | fold.hi[t >> FOLD_BITS]

    def ndp_threshold(self, gmask: int, dims_c: tuple[int, ...] | None) -> int:
        """min t such that N_{2, d-t} holds for the dual's ideal.

        Scans Hochster terms: a restriction to W with homology in degree
        deg >= 1 contributes a nonlinear entry at step |W| - deg - 2.
        dims_c, when given, supplies the full-W term through the
        Alexander duality self-check path (the dual complex's homology
        is recomputed directly and compared).
        """
        istar = _SERRE_NONE
        lo_g = gmask & FOLD_MASK
        hi_g = gmask >> FOLD_BITS
        for lo, hi, w, nlmax in self.restmaps:
            nl = nlmax[lo[lo_g] | hi[hi_g]]
            if nl >= 1:
                cand = w - nl - 2
                if cand < istar:
                    istar = cand
        dims_dual = flag_dims(gmask, self.n)
        if dims_c is not None:
            _check_duality(dims_c, dims_dual, self.n)
        for deg in range(1, len(dims_dual) - 1):
            if dims_dual[deg + 1]:
                cand = self.n - deg - 2
                if cand < istar:
                    istar = cand
        if istar < 1:
            raise EngineError(f"nonlinear Betti entry at homological step {istar} < 1")
        if istar >= _SERRE_NONE:
            return 0
        return max(0, self.d - istar)

    def _projdim_at_most_3(self, dims: tuple[int, ...], levels: list[int]) -> bool:
        """projdim K[Delta] <= 3, i.e. depth >= d-1 (cover assumed).

        A Hochster witness needs H~_deg of a restriction to W with
        |W| - deg - 2 >= 3, so only |W| >= 5 and deg <= |W|-5 can hurt:
        connectivity of every 5-subset restriction, H~_1 of every
        6-subset restriction, and the low homology of the complex itself.
        Restriction face bitmaps are the complex's level bitmaps masked
        to subsets inside W.
        """
        n = self.n
        for deg in range(0, n - 4):
            if dims[deg + 1]:
                return False
        columns = self.lh.boundary_columns
        for wmask, inside in self.inside_w.items():
            edges = levels[2] & inside[2]
            if reachable(self.adj_of_edges(edges), wmask & -wmask) != wmask:
                return False  # restriction disconnected: H~_0 != 0
            w = wmask.bit_count()
            if w >= 6:
                tris = levels[3] & inside[3]
                if edges.bit_count() - (w - 1) - rank_gf2_columns(columns(3, tris)):
                    return False  # H~_1 of the restriction is nonzero
        return True

    # -- graph digests (instances are edge masks of G) ---------------------

    def dual_of_clique_mask(self, e: int) -> int:
        """Facet mask of (clique complex of G)^dual: complements of non-edges."""
        fold = self.e2f
        t = self.full ^ e
        return fold.lo[t & FOLD_MASK] | fold.hi[t >> FOLD_BITS]

    def clique_dual_cm(self, e: int, check_duality: bool) -> int | None:
        """min CM_t of the Alexander dual of clique(G), None when that dual
        is void (G complete).  With ``check_duality`` the dual's homology
        is checked against the homology of clique(G) on the way."""
        s_dual = self.dual_of_clique_mask(e)
        if not s_dual:
            return None
        t_cm, _, dims_dual, _ = self.analyze_full(s_dual)
        if check_duality:
            _check_duality(flag_dims(e, self.n), dims_dual, self.n)
        return t_cm

    def linearity_data(self, e: int) -> bool:
        """Whether I_{clique(G)} has a linear resolution: no restriction of
        clique(G), the whole included, has homology in a degree >= 1."""
        lo_e = e & FOLD_MASK
        hi_e = e >> FOLD_BITS
        for lo, hi, _, nlmax in self.restmaps:
            if nlmax[lo[lo_e] | hi[hi_e]] >= 1:
                return False
        dims_g = flag_dims(e, self.n)
        return not any(dims_g[deg + 1] for deg in range(1, len(dims_g) - 1))


codim2_engine = cache(Codim2Engine)
