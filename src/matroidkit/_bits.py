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


def spread(base: int, positions: Iterable[int]) -> np.ndarray:
    """base with bit i of s moved to positions[i], for every s below
    2^len(positions): an int32 array indexed by s and filled in place by
    doubling. It ascends when the positions ascend and miss base."""
    positions = tuple(positions)
    out = np.empty(1 << len(positions), dtype=np.int32)
    out[0] = base
    for i, pos in enumerate(positions):
        np.bitwise_or(out[:1 << i], 1 << pos, out=out[1 << i:2 << i])
    return out


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
