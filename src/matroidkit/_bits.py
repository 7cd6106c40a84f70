"""Bitmask helpers. Subsets of a ground set {0..n-1} travel as Python ints."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def elements_of(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def popcount(mask: int) -> int:
    return mask.bit_count()


def popcount_table(n: int) -> np.ndarray:
    """Popcount of every n-bit mask: uint8 array of length 2^n, indexed by
    mask and filled in place by doubling."""
    pc = np.empty(1 << n, dtype=np.uint8)
    pc[0] = 0
    for i in range(n):
        np.add(pc[:1 << i], 1, out=pc[1 << i:2 << i])
    return pc


CHOOSE_SPLIT = 16  # spread_choose holds 2^CHOOSE_SPLIT masks at most


def spread(base: int, weights: Iterable[int]) -> np.ndarray:
    """The 2^k masks built from base and k weights: mask s is base ORed
    with weights[i] for each set bit i of s, filled in place by doubling.
    int32 when every mask is below 2^31, uint64 otherwise. The masks
    ascend when the weights are ascending single bits that miss base."""
    weights = tuple(weights)
    wide = max((base, *weights)) >> 31  # then some mask reaches bit 31
    out = np.empty(1 << len(weights), dtype=np.uint64 if wide else np.int32)
    out[0] = base
    for i, w in enumerate(weights):
        np.bitwise_or(out[:1 << i], w, out=out[1 << i:2 << i])
    return out


def spread_choose(base: int, weights: Iterable[int], size: int) -> np.ndarray:
    """The masks of spread(base, weights) whose s has exactly size set
    bits, in the same order. Only the masks of the first CHOOSE_SPLIT
    weights are built in full; each subset of the other weights adds the
    ones among them that make up the count."""
    weights = tuple(weights)
    wide = max((base, *weights)) >> 31
    dtype = np.uint64 if wide else np.int32
    low = spread(base, weights[:CHOOSE_SPLIT]).astype(dtype, copy=False)
    count = popcount_table(min(len(weights), CHOOSE_SPLIT))
    by_count: dict[int, np.ndarray] = {}
    parts = [low[:0]]
    for s, high in enumerate(spread(0, weights[CHOOSE_SPLIT:]).tolist()):
        need = size - s.bit_count()
        if need not in by_count:
            by_count[need] = low[count == need]
        parts.append(by_count[need] | high)
    return np.concatenate(parts)


def find(parent, x: int) -> int:
    """Root of x in a union-find forest held in a list or dict, halving
    the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def union(parent, u: int, v: int) -> bool:
    """Hang u's root under v's root; False when they were already joined."""
    ru, rv = find(parent, u), find(parent, v)
    if ru == rv:
        return False
    parent[ru] = rv
    return True
