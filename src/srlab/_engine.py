"""Table-accelerated GF(2) fast path for the exhaustive harness runs.

The public modules remain the source of mathematical truth; this module
memoizes their answers over whole enumeration families so the labeled
exhaustive searches (millions of instances) finish in minutes on one
core.  tests/test_engine_kernels.py compares the engine's digests (face
closure, clique-complex homology, adjacency and cover filters, min CM_t
and homology dims) with the generic route on every instance for n <= 5
and on seeded samples at n = 6 and 7, and the N_{2,.} threshold and the
chordless span on every instance for n <= 5.  tests/test_orbits.py
checks that every digest is invariant under relabeling the vertices.

Layout:
  LevelHom     GF(2) homology from per-cardinality face bitmaps; face
               closure, clique levels and boundary columns are table
               reads (OR-folds and per-chunk column tuples).
  OrFold       the OR of per-slot contributions over a slot mask, read
               with one table lookup per 11-slot chunk; every
               per-instance face-bitmap map here is one.
  LinkTables   (max unclean size, Serre violation) digests for every
               complex whose facets are k-subsets of [m], indexed by
               facet-set mask; built bottom-up through vertex links.
  FlagTables   homology digests of clique complexes of all graphs on
               w <= 6 labeled vertices, indexed by edge-set mask.
  Codim2Engine per-instance checks for the big theorem runs (pure
               codimension-2 complexes and their dual graphs).
  orbit_reps   least slot mask of each S_n-orbit of slot masks, by DFS
               through two generator OrFolds; the harness checks one
               instance per orbit in exhaustive spaces.

Two checks also verify combinatorial Alexander duality (H~_i of the
dual against H~_{n-i-3} of the complex) on every instance they analyze:
``Codim2Engine.topin_clauses`` (through ``ndp_threshold``) and
``Codim2Engine.main2_clauses``.  A failure raises EngineError, which the
CLI maps to the internal-invariant exit code.  The other checks do not
run it.
"""

from __future__ import annotations

from math import factorial

from ._bits import size_subsets
from .homology import rank_gf2_columns

_SERRE_NONE = 99  # "no Serre violation anywhere" (dimensions here are < 99)


class EngineError(AssertionError):
    """Internal consistency breach inside the fast path."""


# ---------------------------------------------------------------------------
# homology from per-level face bitmaps


class LevelHom:
    """GF(2) homology machinery for subsets of a fixed ambient [n].

    levels[k] lists all k-subsets of {1..n} as masks (sorted); a set of
    k-faces is a bitmap over positions in levels[k].  down[k][j] is the
    boundary column of the j-th k-subset: the bitmap of its (k-1)-subsets.
    Every per-instance face computation is a table read: boundary columns
    are gathered from per-level tables of column tuples, one per 8-face
    chunk, and face closure and clique levels are OR-folds over faces.
    A fold's value packs one bitmap per level, level j at bit offset[j].
    """

    def __init__(self, n: int):
        self.n = n
        self.levels = levels = [size_subsets(n, k) for k in range(n + 1)]
        self.full = [(1 << len(level)) - 1 for level in levels]
        self.offset = [0]
        for level in levels:
            self.offset.append(self.offset[-1] + len(level))
        self.down: list[list[int]] = [[]]
        self.col_chunks: list[list[list[tuple[int, ...]]]] = [[]]
        for k in range(1, n + 1):
            cols = [_subsets_bitmap(levels[k - 1], face) for face in levels[k]]
            self.down.append(cols)
            self.col_chunks.append([_subset_tuples(cols[c:c + COL_BITS])
                                    for c in range(0, len(cols), COL_BITS)])
        # clique_fold(non-edges), level k >= 3: the k-sets containing a non-edge
        self.clique_fold = OrFold([self._pack(_supersets_bitmap, p, range(3, n + 1))
                                   for p in (levels[2] if n >= 2 else [])])
        # closure_folds[k](k-faces), level j < k: their j-subsets; built per k
        self._closure_folds: list[OrFold | None] = [None] * (n + 1)

    def _pack(self, bitmap_fn, face: int, ks) -> int:
        levels, offset = self.levels, self.offset
        return sum(bitmap_fn(levels[k], face) << offset[k] for k in ks)

    def closure_fold(self, k: int) -> OrFold:
        """The fold from k-face bitmaps to all lower levels (built once)."""
        fold = self._closure_folds[k]
        if fold is None:
            fold = self._closure_folds[k] = OrFold(
                [self._pack(_subsets_bitmap, face, range(k)) for face in self.levels[k]])
        return fold

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

    def dims_pure(self, k: int, top_bitmap: int) -> tuple[int, ...]:
        """Reduced homology dims (from degree -1) of the pure complex
        generated by the k-subsets flagged in ``top_bitmap``."""
        return self.dims_from_levels(self.closure(k, top_bitmap))

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


_LEVEL_HOMS: dict[int, LevelHom] = {}


def level_hom(n: int) -> LevelHom:
    lh = _LEVEL_HOMS.get(n)
    if lh is None:
        lh = _LEVEL_HOMS[n] = LevelHom(n)
    return lh


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


def _compress_drop_vertex(mask: int, vbit: int) -> int:
    """Shift out one vertex bit (mask must not contain it)."""
    low = vbit - 1
    return (mask & low) | ((mask >> 1) & ~low)


def _link_contrib(slots: list[int], child_index: dict[int, int], v: int) -> list[int]:
    """Per facet slot: the child facet-set bit of its trace in the link of
    vertex v+1 (0 for facets missing v+1), over the child's slots on [m-1]."""
    vbit = 1 << v
    return [1 << child_index[_compress_drop_vertex(f ^ vbit, vbit)] if f & vbit else 0
            for f in slots]


# ---------------------------------------------------------------------------
# S_n orbits of slot masks


def _relabel_fold(slots: list[int], perm: list[int]) -> OrFold:
    """The slot permutation induced by the vertex permutation v -> perm[v]."""
    index = {mask: i for i, mask in enumerate(slots)}
    contrib = []
    for f in slots:
        image = 0
        for v, pv in enumerate(perm):
            if f >> v & 1:
                image |= 1 << pv
        contrib.append(1 << index[image])
    return OrFold(contrib)


def _orbit_table(n: int, k: int) -> list[int]:
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


_ORBIT_TABLES: dict[tuple[int, int], list[int]] = {}


def orbit_reps(n: int, k: int) -> list[int]:
    """rep[s] = the least slot mask in the S_n-orbit of s, where slot masks
    are sets of k-subsets of [n] over size_subsets(n, k) (built once)."""
    key = (n, k)
    rep = _ORBIT_TABLES.get(key)
    if rep is None:
        rep = _ORBIT_TABLES[key] = _orbit_table(n, k)
    return rep


# ---------------------------------------------------------------------------
# link profile tables


class LinkTables:
    """(max_unclean, serre_viol) for every complex with k-subset facets on [m].

    Index = facet-set mask over size_subsets(m, k).  max_unclean is the
    largest size of a face whose link has homology below its dimension
    (-1 if none); serre_viol is the smallest degree violating a Serre
    bound anywhere (=_SERRE_NONE if none).  Built bottom-up: entry
    digests combine the complex's own homology with the digests of its
    vertex links, which live one table down.
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

        child = link_tables(m - 1, k - 1)
        child_index = {mask: i for i, mask in enumerate(child.slots)}
        # ext[v][s] = child facet-set mask of the link of vertex v+1 in s
        ext = [_or_fold_table(_link_contrib(self.slots, child_index, v)) for v in range(m)]

        lh = level_hom(m)
        cmaxbad = child.maxbad
        cserre = child.serre
        dims_pure = lh.dims_pure
        for s in range(1, size):
            dims = dims_pure(k, s)
            mb = -1
            sv = _SERRE_NONE
            for i in range(k - 1):  # degrees below the (pure) top dimension
                if dims[i + 1]:
                    sv = i
                    mb = 0
                    break
            for v in range(m):
                lm = ext[v][s]
                if not lm:
                    continue
                cm = cmaxbad[lm]
                if cm >= 0 and cm + 1 > mb:
                    mb = cm + 1
                cs = cserre[lm]
                if cs < sv:
                    sv = cs
            maxbad[s] = mb
            serre[s] = sv


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
    need to locate nonlinear Betti entries.
    """

    def __init__(self, w: int):
        self.w = w
        lh = level_hom(w)
        self.pair_slots = lh.levels[2]
        nlmax = [-1] * (1 << len(self.pair_slots))
        for e in range(len(nlmax)):
            dims = lh.dims_from_levels(lh.clique_levels(e))
            best = -1
            for deg in range(1, len(dims) - 1):
                if dims[deg + 1]:
                    best = deg
            nlmax[e] = best
        self.nlmax = nlmax


_FLAG_TABLES: dict[int, FlagTables] = {}


def flag_tables(w: int) -> FlagTables:
    ft = _FLAG_TABLES.get(w)
    if ft is None:
        ft = _FLAG_TABLES[w] = FlagTables(w)
    return ft


# ---------------------------------------------------------------------------
# chordless cycle scan (iterative, bitmask state)


def chordless_span_adj(adj: tuple[int, ...], early_min: bool = False) -> tuple[int, int]:
    """(min, max) chordless cycle length, (0, 0) if chordal.

    ``early_min`` returns as soon as a 4-cycle is seen (nothing shorter
    exists), reporting (4, 4); use only when the max is not needed.
    """
    n = len(adj)
    lo = hi = 0
    for s in range(n):
        sbit = 1 << s
        above = -(sbit << 1)
        adj_s = adj[s]
        stack = []
        m = adj_s & above
        while m:
            b = m & -m
            m ^= b
            stack.append(((s, b.bit_length() - 1), sbit | b, 0))
        while stack:
            path, pmask, banned = stack.pop()
            end = path[-1]
            cand = adj[end] & above & ~pmask & ~banned
            if len(path) >= 3:
                closing = cand & adj_s
                mm = closing
                while mm:
                    b = mm & -mm
                    mm ^= b
                    w = b.bit_length() - 1
                    if path[1] < w:
                        k = len(path) + 1
                        if not lo or k < lo:
                            lo = k
                        if k > hi:
                            hi = k
                        if early_min and k == 4:
                            return 4, 4
            if len(path) + 2 > n:
                continue
            new_banned = banned | (adj[end] & above)
            mm = cand & ~adj_s
            while mm:
                b = mm & -mm
                mm ^= b
                stack.append((path + (b.bit_length() - 1,), pmask | b, new_banned))
    return lo, hi


# ---------------------------------------------------------------------------
# the codimension-2 engine


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


class Codim2Engine:
    """Fast checks on pure (n-3)-dimensional complexes on [n] (and the
    graphs behind their duals).  GF(2) only; n <= 7 by table feasibility."""

    def __init__(self, n: int):
        if n < 3 or n > 7:
            raise ValueError("codim-2 engine supports 3 <= n <= 7")
        self.n = n
        self.d = d = n - 2
        self.lh = level_hom(n)
        self.lh.closure_fold(d)
        self.facet_slots = self.lh.levels[d]
        self.pair_slots = self.lh.levels[2]
        K = len(self.facet_slots)  # C(n, 2) <= 2 * FOLD_BITS: every fold reads inline
        self.K = K
        self.full = (1 << K) - 1

        # vertex-link extraction into the (n-1, d-1) digest tables
        if d >= 2:
            self.lt = link_tables(n - 1, d - 1)
            child_index = {mask: i for i, mask in enumerate(self.lt.slots)}
            self.linkmaps = [OrFold(_link_contrib(self.facet_slots, child_index, v))
                             for v in range(n)]
        else:
            self.lt = None
            self.linkmaps = []

        # facet-slot <-> complement-pair-slot permutations
        pair_index = {mask: i for i, mask in enumerate(self.pair_slots)}
        facet_index = {mask: i for i, mask in enumerate(self.facet_slots)}
        nfull = (1 << n) - 1
        self.f2e = OrFold([1 << pair_index[nfull ^ f] for f in self.facet_slots])
        self.e2f = OrFold([1 << facet_index[nfull ^ p] for p in self.pair_slots])
        self.pair_ends = [((p & -p).bit_length() - 1, (p ^ (p & -p)).bit_length() - 1)
                          for p in self.pair_slots]
        # vertices touched by a facet set / an edge set; neighbours of each vertex
        self.facet_cover = OrFold(self.facet_slots)
        self.edge_cover = OrFold(self.pair_slots)
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

        # per-W restriction maps of graph edge masks into FlagTables spaces
        self.restmaps: list[tuple[OrFold, int, list[int]]] = []
        for wmask in range(1, 1 << n):
            w = wmask.bit_count()
            if w < 2 or w == n:
                continue
            ft = flag_tables(w)
            sub_index = {mask: i for i, mask in enumerate(ft.pair_slots)}
            comp = {}
            i = 0
            mm = wmask
            while mm:
                b = mm & -mm
                mm ^= b
                comp[b.bit_length() - 1] = i
                i += 1
            contrib = []
            for (u, v) in self.pair_ends:
                if (1 << u) & wmask and (1 << v) & wmask:
                    pm = (1 << comp[u]) | (1 << comp[v])
                    contrib.append(1 << sub_index[pm])
                else:
                    contrib.append(0)
            self.restmaps.append((OrFold(contrib), w, ft.nlmax))

    # -- shared per-instance pieces ---------------------------------------

    def decode_facets(self, s: int) -> list[int]:
        slots = self.facet_slots
        out = []
        while s:
            b = s & -s
            s ^= b
            out.append(slots[b.bit_length() - 1])
        return out

    def covers(self, s: int) -> bool:
        fold = self.facet_cover
        return fold.lo[s & FOLD_MASK] | fold.hi[s >> FOLD_BITS] == self.lh.full[1]

    def link_digest(self, s: int) -> tuple[int, int]:
        """(max unclean size, Serre violation) over nonempty faces only."""
        if self.lt is None:
            return (-1, _SERRE_NONE)
        mb = -1
        sv = _SERRE_NONE
        cmaxbad = self.lt.maxbad
        cserre = self.lt.serre
        lo_s = s & FOLD_MASK
        hi_s = s >> FOLD_BITS
        for fold in self.linkmaps:
            lm = fold.lo[lo_s] | fold.hi[hi_s]
            if not lm:
                continue
            c = cmaxbad[lm]
            if c >= 0 and c + 1 > mb:
                mb = c + 1
            c = cserre[lm]
            if c < sv:
                sv = c
        return mb, sv

    def analyze(self, s: int) -> tuple[int, int, tuple[int, ...]]:
        """(min_cm_t, serre_viol, homology dims) of the instance complex."""
        t_cm, sv, dims, _ = self.analyze_full(s)
        return t_cm, sv, dims

    def analyze_full(self, s: int) -> tuple[int, int, tuple[int, ...], list[int]]:
        levels = self.lh.closure(self.d, s)
        dims = self.lh.dims_from_levels(levels)
        mb, sv = self.link_digest(s)
        for i in range(self.d - 1):
            if dims[i + 1]:
                if sv > i:
                    sv = i
                if mb < 0:
                    mb = 0
                break
        return mb + 1, sv, dims, levels

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
        for fold, w, nlmax in self.restmaps:
            nl = nlmax[fold.lo[lo_g] | fold.hi[hi_g]]
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

    # -- theorem checks ----------------------------------------------------

    def topin_clauses(self, s: int) -> list[str]:
        """Equality of the four CM_t thresholds (CM_t / N_{2,d-t} / S_{d-t} /
        chord condition at d-t+2); empty list when the theorem holds."""
        t_cm, sv, dims = self.analyze(s)
        t_serre = max(0, self.d - 1 - sv)
        gmask = self.dual_graph_mask(s)
        t_ndp = self.ndp_threshold(gmask, dims)
        mc, _ = chordless_span_adj(self.adj_of_edges(gmask), early_min=True)
        t_chord = max(0, self.d + 3 - mc) if mc else 0
        if t_cm == t_ndp == t_serre == t_chord:
            return []
        return [
            f"threshold mismatch: cm_t from {t_cm}, N(2,d-t) from {t_ndp}, "
            f"S(d-t) from {t_serre}, chord condition from {t_chord}"
        ]

    def chardepth_clauses(self, s: int) -> list[str]:
        """Buchsbaum codim-2: depth >= d-1, and non-CM iff dual skeleton is
        the full cycle."""
        if self.lt is not None:
            mb, _ = self.link_digest(s)
            if mb > 0:
                return []  # not Buchsbaum: premise fails
        t_cm, _, dims, levels = self.analyze_full(s)
        clauses = []
        gmask = self.dual_graph_mask(s)
        adj = self.adj_of_edges(gmask)
        cyc = self.n >= 3 and all(a.bit_count() == 2 for a in adj) and _connected(adj)
        if (t_cm > 0) != cyc:
            clauses.append(f"non-CM={t_cm > 0} but dual-skeleton-is-cycle={cyc}")
        if not self._projdim_at_most_3(dims, levels):
            clauses.append(f"depth {self._depth(s)} < d-1 = {self.d - 1}")
        return clauses

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
        if not self.inside_w:
            return True
        columns = self.lh.boundary_columns
        for wmask, inside in self.inside_w.items():
            w = wmask.bit_count()
            edges = levels[2] & inside[2]
            adjl = self.adj_of_edges(edges)
            start = wmask & -wmask
            seen = start
            frontier = start
            while frontier:
                nxt = 0
                mm = frontier
                while mm:
                    b = mm & -mm
                    mm ^= b
                    nxt |= adjl[b.bit_length() - 1]
                frontier = nxt & ~seen
                seen |= nxt
            if seen != wmask:
                return False  # restriction disconnected: H~_0 != 0
            if w >= 6:
                tris = levels[3] & inside[3]
                if edges.bit_count() - (w - 1) - rank_gf2_columns(columns(3, tris)):
                    return False  # H~_1 of the restriction is nonzero
        return True

    def _depth(self, s: int) -> int:
        from .betti import hochster_betti, homological_invariants
        from .complexes import Complex

        c = Complex(self.n, tuple(self.decode_facets(s)), _trusted=True)
        return homological_invariants(hochster_betti(c, subject="ring")).depth

    # -- graph-space checks (instances are edge masks of G) ----------------

    def dual_of_clique_mask(self, e: int) -> int:
        """Facet mask of (clique complex of G)^dual: complements of non-edges."""
        fold = self.e2f
        t = self.full ^ e
        return fold.lo[t & FOLD_MASK] | fold.hi[t >> FOLD_BITS]

    def graph_no_isolated(self, e: int) -> bool:
        fold = self.edge_cover
        return fold.lo[e & FOLD_MASK] | fold.hi[e >> FOLD_BITS] == self.lh.full[1]

    def main2_clauses(self, e: int) -> list[str]:
        """dual(clique(G)) is CM_{n-r} iff every cycle of length <= r has a
        chord, for all r in [3, n]."""
        s_dual = self.dual_of_clique_mask(e)
        if not s_dual:
            return []  # complete graph: dual void, CM_t for all t; chordal
        t_cm, _, dims_dual_cx = self.analyze(s_dual)
        adj = self.adj_of_edges(e)
        mc, _ = chordless_span_adj(adj, early_min=True)
        t_chord = max(0, self.n - mc + 1) if mc else 0
        _check_duality(flag_dims(e, self.n), dims_dual_cx, self.n)
        if t_cm == t_chord:
            return []
        return [f"min t with CM_t = {t_cm} but chord threshold = {t_chord}"]

    def linearity_data(self, e: int) -> tuple[bool, int, int]:
        """(I_{clique(G)} fully linear, min chordless len, max chordless len)."""
        istar = _SERRE_NONE
        lo_e = e & FOLD_MASK
        hi_e = e >> FOLD_BITS
        for fold, w, nlmax in self.restmaps:
            nl = nlmax[fold.lo[lo_e] | fold.hi[hi_e]]
            if nl >= 1:
                istar = 1  # any nonlinear term breaks full linearity
                break
        full_linear = istar >= _SERRE_NONE
        if full_linear:
            dims_g = flag_dims(e, self.n)
            for deg in range(1, len(dims_g) - 1):
                if dims_g[deg + 1]:
                    full_linear = False
                    break
        lo, hi = chordless_span_adj(self.adj_of_edges(e))
        return full_linear, lo, hi

    def corlinear_clauses(self, e: int) -> list[str]:
        s_dual = self.dual_of_clique_mask(e)
        full_linear, lo, hi = self.linearity_data(e)
        if not s_dual:
            return []  # complete graph: empty ideal, vacuously linear and CM
        t_cm, _, _ = self.analyze(s_dual)
        clauses = []
        for r in range(3, self.n + 1):
            if hi > r:
                continue  # G not r-chordal: premise fails
            cm = self.n - r >= t_cm
            if cm != full_linear:
                clauses.append(f"r={r}: CM_(n-r)={cm} but linear-resolution={full_linear}")
        return clauses

    def froberg_clauses(self, e: int) -> list[str]:
        full_linear, lo, _ = self.linearity_data(e)
        chordal = lo == 0
        if full_linear == chordal:
            return []
        return [f"linear-resolution={full_linear} but chordal={chordal}"]

    # -- pure-space check reused by cor-bk ---------------------------------


def _connected(adj: tuple[int, ...]) -> bool:
    n = len(adj)
    if n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


_ENGINES: dict[int, Codim2Engine] = {}


def codim2_engine(n: int) -> Codim2Engine:
    eng = _ENGINES.get(n)
    if eng is None:
        eng = _ENGINES[n] = Codim2Engine(n)
    return eng


class PureSpaceEngine:
    """Buchsbaum-gated scans over arbitrary pure (n, d) spaces (cor-bk)."""

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self.lh = level_hom(n)
        self.lh.closure_fold(d)
        self.facet_slots = self.lh.levels[d]
        self.facet_cover = OrFold(self.facet_slots)
        if d >= 2:
            self.lt = link_tables(n - 1, d - 1)
            child_index = {mask: i for i, mask in enumerate(self.lt.slots)}
            self.linkmaps = [OrFold(_link_contrib(self.facet_slots, child_index, v))
                             for v in range(n)]
        else:
            self.lt = None
            self.linkmaps = []

    def covers(self, s: int) -> bool:
        return self.facet_cover.value(s) == self.lh.full[1]

    def is_buchsbaum(self, s: int) -> bool:
        if self.lt is None:
            return True  # 0-dimensional: every vertex link is irrelevant
        cmaxbad = self.lt.maxbad
        for fold in self.linkmaps:
            lm = fold.value(s)
            if lm and cmaxbad[lm] >= 0:
                return False
        return True

    def corbk_clauses(self, s: int) -> list[str]:
        """Buchsbaum with H~_i != 0 for some i >= 1 forces n >= 2d - i."""
        if not self.is_buchsbaum(s):
            return []
        dims = self.lh.dims_pure(self.d, s)
        clauses = []
        for i in range(1, len(dims) - 1):
            if dims[i + 1] and self.n < 2 * self.d - i:
                clauses.append(f"H_{i} != 0 but n = {self.n} < 2d - i = {2 * self.d - i}")
        return clauses


_PURE_ENGINES: dict[tuple[int, int], PureSpaceEngine] = {}


def pure_space_engine(n: int, d: int) -> PureSpaceEngine:
    key = (n, d)
    eng = _PURE_ENGINES.get(key)
    if eng is None:
        eng = _PURE_ENGINES[key] = PureSpaceEngine(n, d)
    return eng
