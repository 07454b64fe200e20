"""Simple graphs: complements, clique complexes, chordless cycles.

One canonical DFS over induced paths (``_closing_paths``) finds the
chordless (induced) cycles, each exactly once, rotated so its smallest
vertex comes first and that vertex's smaller cycle-neighbor second;
``induced_cycles`` lists them and ``chordless_span`` reads their lengths.
"Every cycle of length <= r has a chord" is formalized as the absence of
induced cycles of length in [4, r]; triangles can never have chords, so
the r = 3 condition is vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ._bits import bits_of
from .complexes import Complex, ParseError


class Graph:
    """Immutable simple graph on {1..n} (no loops, no multi-edges)."""

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("order must be >= 0")
        adj = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside vertex set 1..{n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        self.n = n
        self.adj = tuple(adj)
        self._hash = hash((n, self.adj))

    @classmethod
    def from_adj(cls, adj: tuple[int, ...]) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g._hash = hash((g.n, adj))
        return g

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u + 1, v + 1))
                m >>= 1
                v += 1
        return out

    def degree(self, v: int) -> int:
        return self.adj[v - 1].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u - 1] >> (v - 1) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


@dataclass(frozen=True)
class CycleReport:
    """Chordless cycles up to a length bound, in canonical rotation."""

    cycles: tuple[tuple[int, ...], ...]
    searched_max_length: int


# ---------------------------------------------------------------------------
# parsing / rendering


def parse_graph(text: str) -> Graph:
    """Edge-list format: optional ``V: n`` header, one ``u v`` line per edge."""
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if declared_n is None and not edges and line.lower().startswith("v:"):
            try:
                declared_n = int(line[2:].strip())
            except ValueError:
                raise ParseError(f"line {lineno}: bad order declaration {line!r}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed edge {line!r}") from None
        if u == v:
            raise ParseError(f"line {lineno}: loop at vertex {u}")
        if u < 1 or v < 1:
            raise ParseError(f"line {lineno}: vertex labels must be positive")
        edges.append((u, v))
    if declared_n is None:
        if not edges:
            raise ParseError("empty document: declare 'V: n' or list edges")
        declared_n = max(max(e) for e in edges)
    return Graph(declared_n, edges)


def render_graph(g: Graph) -> str:
    lines = [f"V: {g.n}"] + [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# basic operations


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph.from_adj(tuple((full ^ a) & ~(1 << v) for v, a in enumerate(g.adj)))


def maximal_cliques(adj: tuple[int, ...]) -> list[int]:
    """Maximal cliques as vertex masks (Bron-Kerbosch with pivoting)."""
    n = len(adj)
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        # pivot with most neighbors in p
        pivot, best = 0, -1
        for b in bits_of(p | x):
            cnt = (p & adj[b.bit_length() - 1]).bit_count()
            if cnt > best:
                best, pivot = cnt, b
        for b in bits_of(p & ~adj[pivot.bit_length() - 1]):
            a = adj[b.bit_length() - 1]
            bk(r | b, p & a, x & a)
            p ^= b
            x |= b

    bk(0, (1 << n) - 1, 0)
    return out


def clique_complex(g: Graph) -> Complex:
    """Flag complex: faces are the cliques of g."""
    return Complex(g.n, maximal_cliques(g.adj), _trusted=False)


def independence_complex(g: Graph) -> Complex:
    return clique_complex(complement(g))


# ---------------------------------------------------------------------------
# chordless cycles


def _closing_paths(adj: tuple[int, ...], cap: int):
    """Yield (path, closing) for each induced path that closes chordless
    cycles of length <= ``cap``: path + (w,) for each bit w of ``closing``.

    DFS over induced paths anchored at the smallest cycle vertex: extend
    with vertices above the anchor that see the path end but none of the
    interior; a neighbor of the anchor closes the cycle.  Requiring
    second < last kills the reversed copy.
    """
    for s in range(len(adj)):
        sbit = 1 << s
        above = -(sbit << 1)
        adj_s = adj[s]
        # path = (s, v, ...); banned = interior adjacency (minus anchor nbrs)
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
            k = len(path)
            if k >= 3:
                closing = cand & adj_s & -(2 << path[1])
                if closing:
                    yield path, closing
            if k + 2 > cap:
                continue
            new_banned = banned | (adj[end] & above)
            m = cand & ~adj_s
            while m:
                b = m & -m
                m ^= b
                stack.append((path + (b.bit_length() - 1,), pmask | b, new_banned))


def induced_cycles(g: Graph, max_len: int) -> CycleReport:
    """All chordless cycles of length 4..max_len, each listed once."""
    if max_len < 4:
        raise ValueError("max_len must be >= 4")
    cycles = []
    for path, closing in _closing_paths(g.adj, min(max_len, g.n)):
        labels = tuple([v + 1 for v in path])
        while closing:
            b = closing & -closing
            closing ^= b
            cycles.append(labels + (b.bit_length(),))
    cycles.sort(key=lambda c: (len(c), c))
    return CycleReport(cycles=tuple(cycles), searched_max_length=max_len)


def chordless_span(adj: tuple[int, ...], max_len: int | None = None,
                   early_min: bool = False) -> tuple[int, int]:
    """(min, max) length of chordless cycles of length <= ``max_len``
    (any length by default); (0, 0) when there are none.

    The lengths come from ``_closing_paths``; no cycle tuple is built.
    ``early_min`` returns as soon as a 4-cycle is seen (nothing shorter
    exists), reporting (4, 4); use it only when the max is not needed.
    """
    n = len(adj)
    lo = hi = 0
    for path, _ in _closing_paths(adj, n if max_len is None else min(max_len, n)):
        k = len(path) + 1
        if k == 4 and early_min:
            return 4, 4
        if not lo or k < lo:
            lo = k
        if k > hi:
            hi = k
    return lo, hi


def chord_condition(g: Graph, r: int) -> bool:
    """Every cycle of length <= r has a chord (vacuous for r = 3)."""
    if r < 3:
        raise ValueError("r must be >= 3")
    return chordless_span(g.adj, max_len=r, early_min=True)[0] == 0


def is_chordal(g: Graph) -> bool:
    """No chordless cycles at all (of length >= 4)."""
    return chord_condition(g, max(3, g.n))


def r_chordal(g: Graph, r: int) -> bool:
    """No chordless cycles of length greater than r."""
    if r < 3:
        raise ValueError("r must be >= 3")
    return chordless_span(g.adj)[1] <= r


def reachable(adj: tuple[int, ...], start: int) -> int:
    """Mask of the vertices joined by a path to a vertex of ``start``
    (``start`` included), by breadth-first search over adjacency masks."""
    seen = frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= nxt
    return seen


def is_cycle_graph(g: Graph) -> bool:
    """Connected and 2-regular, i.e. a single n-cycle."""
    if g.n < 3 or any(a.bit_count() != 2 for a in g.adj):
        return False
    return reachable(g.adj, 1) == (1 << g.n) - 1
