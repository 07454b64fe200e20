"""Bitmask helpers shared by the complex/homology internals.

Faces are stored as int bitmasks over an ambient vertex set {1..n}:
vertex label v corresponds to bit v-1.  All helpers are pure.
"""

from __future__ import annotations

from itertools import combinations


def mask_of(labels) -> int:
    """Bitmask of an iterable of 1-based vertex labels."""
    m = 0
    for v in labels:
        m |= 1 << (v - 1)
    return m


def labels_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based labels of a bitmask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length())
        mask ^= b
    return tuple(out)


def bits_of(mask: int) -> list[int]:
    """Single-bit submasks of ``mask`` in ascending order."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b)
        mask ^= b
    return out


def pick(items: list, mask: int) -> list:
    """The items at the set bits of ``mask``, in order (decodes a slot mask)."""
    return [items[b.bit_length() - 1] for b in bits_of(mask)]


def submasks_one_less(mask: int) -> list[int]:
    """All masks obtained by clearing exactly one set bit."""
    return [mask ^ b for b in bits_of(mask)]


def compress_map(occupied: int) -> dict[int, int]:
    """Map each set bit of ``occupied`` to 1 << (its rank)."""
    table = {}
    i = 0
    while occupied:
        b = occupied & -occupied
        table[b] = 1 << i
        occupied ^= b
        i += 1
    return table


def remap(masks, table: dict[int, int]) -> list[int]:
    """Each mask with every set bit b replaced by ``table[b]``."""
    out = []
    for m in masks:
        c = 0
        while m:
            b = m & -m
            c |= table[b]
            m ^= b
        out.append(c)
    return out


def compress_masks(masks) -> tuple[tuple[int, ...], int]:
    """Relabel masks onto their occupied bits, contiguously from bit 0.

    Returns (sorted compressed masks, number of occupied bits).  Used to
    canonicalize complexes that share a shape but sit on different
    ambient vertices.
    """
    occ = 0
    for m in masks:
        occ |= m
    k = occ.bit_count()
    if occ == (1 << k) - 1:
        return tuple(sorted(masks)), k
    return tuple(sorted(remap(masks, compress_map(occ)))), k


def face_closure(masks) -> set[int]:
    """The given masks and all their subsets (empty when none are given)."""
    faces = set(masks)
    stack = list(faces)
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
    return faces


def faces_by_size_from_masks(facets: tuple[int, ...]) -> list[list[int]]:
    """All faces of the complex generated by ``facets``, grouped by size,
    each group sorted; the empty face is always included."""
    faces = face_closure(facets)
    faces.add(0)
    top = max(f.bit_count() for f in facets) if facets else 0
    groups: list[list[int]] = [[] for _ in range(top + 1)]
    for f in faces:
        groups[f.bit_count()].append(f)
    for g in groups:
        g.sort()
    return groups


def antichain(masks) -> tuple[int, ...]:
    """Inclusion-maximal elements of a set of masks, sorted.

    Largest first: a mask can lie only in a kept mask at least its size,
    and distinct masks of one size never contain each other.
    """
    keep: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for k in keep:
            if m & k == m:
                break
        else:
            keep.append(m)
    return tuple(sorted(keep))


def size_subsets(n: int, k: int) -> list[int]:
    """All k-subsets of {1..n} as masks, sorted ascending."""
    return sorted(mask_of(c) for c in combinations(range(1, n + 1), k))
