"""Brute-force reference answers that the benchmark checks srlab's outputs against.

Nothing here imports srlab.  Faces are int bitmasks over {1..n} (label v
is bit v-1) and every answer comes from scanning all 2^n vertex subsets,
which is cheap at the sizes the workloads generate (n <= 11).
"""

from __future__ import annotations

from collections import Counter
from math import comb


# ---------------------------------------------------------------------------
# independent instance counts for verify calls


def covering_count(n: int, k: int, cover: bool) -> int:
    """Nonempty sets of k-subsets of [n]; with ``cover``, those whose union is [n].

    Inclusion-exclusion over the set of vertices left uncovered: a set of
    j vertices is avoided by 2^C(n-j, k) slot sets.  The empty slot set
    cancels out of the alternating sum for n >= 1.
    """
    if not cover:
        return 2 ** comb(n, k) - 1
    return sum((-1) ** j * comb(n, j) * 2 ** comb(n - j, k) for j in range(n + 1))


def space_count(space: dict) -> int:
    """Instances a search space (in its JSON form) must yield."""
    if "fixture" in space:
        return 1
    if space["mode"] == "sample":
        return space["count"]
    k = 2 if space["d"] == "graphs" else space["d"]
    return covering_count(space["n"], k, space["cover"])


# ---------------------------------------------------------------------------
# complexes


def popcount(m: int) -> int:
    return bin(m).count("1")


def mask_of(labels) -> int:
    m = 0
    for v in labels:
        m |= 1 << (v - 1)
    return m


def faces(n: int, facets: list[int]) -> set[int]:
    return {m for m in range(1 << n) if any(m & f == m for f in facets)}


def f_vector(n: int, facets: list[int]) -> list[int]:
    """f_-1, f_0, ..., f_dim (the empty face first)."""
    sizes = Counter(popcount(m) for m in faces(n, facets))
    return [sizes[k] for k in range(max(sizes) + 1)]


def minimal_nonfaces(n: int, facets: list[int]) -> list[int]:
    fs = faces(n, facets)
    out = []
    for m in range(1 << n):
        if m in fs:
            continue
        rest, ok = m, True
        while rest:
            b = rest & -rest
            rest ^= b
            if m ^ b not in fs:
                ok = False
                break
        if ok:
            out.append(m)
    return out


def alexander_dual(n: int, facets: list[int]) -> list[int]:
    """Facets of the dual: complements of the minimal nonfaces, sorted."""
    full = (1 << n) - 1
    return sorted(full ^ m for m in minimal_nonfaces(n, facets))


def ring_hilbert_numerator(n: int, fv: list[int]) -> list[int]:
    """Coefficients of sum_k f_{k-1} t^k (1-t)^(n-k) = sum_{i,j} (-1)^i beta_{i,j}(K[D]) t^j."""
    out = [0] * (n + 1)
    for k, f in enumerate(fv):
        for e in range(n - k + 1):
            out[k + e] += f * comb(n - k, e) * (-1) ** e
    return out


def check_complex_query(kind: str, n: int, facets: list[int], payload: dict) -> str | None:
    """None when ``payload`` (the query's JSON output) agrees with brute force."""
    fv = f_vector(n, facets)
    sizes = {popcount(f) for f in facets}
    if kind == "info":
        if payload["f_vector"] != fv:
            return f"f-vector {payload['f_vector']} != {fv}"
        if payload["pure"] != (len(sizes) == 1) or payload["dim"] != max(sizes) - 1:
            return "purity or dimension disagrees"
        return None
    if kind == "dual":
        got = sorted(mask_of(f) for f in payload["facets"])
        if got != alexander_dual(n, facets):
            return "dual facets disagree with the brute-force dual"
        if alexander_dual(n, got) != sorted(facets):
            return "dual(dual) != input"
        return None
    if kind == "homology":
        euler = sum((-1) ** int(i) * v for i, v in payload["dims"].items())
        want = sum((-1) ** (k - 1) * f for k, f in enumerate(fv))
        if euler != want:
            return f"homology Euler characteristic {euler} != {want} from the f-vector"
        return None
    if kind == "betti":
        entries = {(i, j): v for i, j, v in payload["entries"]}
        gens = Counter(popcount(m) for m in minimal_nonfaces(n, facets))
        got = {j: v for (i, j), v in entries.items() if i == 1}
        if got != dict(gens) or entries.get((0, 0)) != 1:
            return f"ring-table generator degrees {got} != minimal nonfaces {dict(gens)}"
        alt = [0] * (n + 1)
        for (i, j), v in entries.items():
            alt[j] += (-1) ** i * v
        if alt != ring_hilbert_numerator(n, fv):
            return "Betti table disagrees with the Hilbert series from the f-vector"
        return None
    if kind == "check":
        if payload["cm"] != (payload["depth"] == payload["dim_ring"]):
            return "cm != (depth == dim_ring)"
        if payload["pure"] != (len(sizes) == 1) or payload["dim_ring"] != max(sizes):
            return "purity or ring dimension disagrees"
        return None
    raise ValueError(f"no oracle for query kind {kind!r}")


# ---------------------------------------------------------------------------
# graphs


def induced_cycle_sets(n: int, adj: list[int]) -> int:
    """Number of vertex sets of size >= 4 inducing a single cycle (connected, 2-regular)."""
    count = 0
    for s in range(1 << n):
        if popcount(s) < 4:
            continue
        if any(popcount(adj[v] & s) != 2 for v in range(n) if s >> v & 1):
            continue
        start = s & -s
        seen = frontier = start
        while frontier:
            nxt = 0
            for v in range(n):
                if frontier >> v & 1:
                    nxt |= adj[v] & s
            frontier = nxt & ~seen
            seen |= nxt
        if seen == s:
            count += 1
    return count


def check_cycles(n: int, adj: list[int], payload: dict) -> str | None:
    """Every reported cycle is induced and chordless, and none is missing."""
    seen = set()
    for cyc in payload["cycles"]:
        k = len(cyc)
        vs = [v - 1 for v in cyc]
        if k < 4 or len(set(vs)) != k:
            return f"{cyc} is not a cycle of length >= 4"
        for a in range(k):
            for b in range(a + 1, k):
                adjacent = bool(adj[vs[a]] >> vs[b] & 1)
                if adjacent != (b == a + 1 or (a == 0 and b == k - 1)):
                    return f"{cyc} is not induced and chordless"
        key = frozenset(vs)
        if key in seen:
            return f"{cyc} reported twice"
        seen.add(key)
    want = induced_cycle_sets(n, adj)
    if len(seen) != want:
        return f"{len(seen)} chordless cycles reported, brute force finds {want}"
    return None
