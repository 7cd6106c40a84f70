"""Bitmask helpers. Subsets of a ground set {0..n-1} travel as Python ints."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

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


def reversed_bytes(t: np.ndarray) -> np.ndarray:
    """A new array of t's entries in reverse order, t a contiguous uint8
    array such as a rank table, so entry X is t[E - X]. From 8 entries on
    it reverses 8-byte words and swaps the bytes within each, as numpy
    copies a reversed view of single bytes a few times slower."""
    if t.size % 8:
        return t[::-1].copy()
    return t.view(np.uint64)[::-1].byteswap().view(np.uint8)


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


def spread_at(base: int, weights: Iterable[int],
              index: np.ndarray) -> np.ndarray:
    """spread(base, weights)[index] without the 2^k masks: each byte of
    index is looked up in the spread of its 8 weights."""
    weights = tuple(weights)
    dtype = np.uint64 if max((base, *weights)) >> 31 else np.int32
    out = spread(base, weights[:8]).astype(dtype, copy=False)[index & 255]
    for i in range(8, len(weights), 8):
        out |= spread(0, weights[i:i + 8]).astype(dtype, copy=False)[
            (index >> i) & 255]
    return out


def subset_sums(g: np.ndarray) -> np.ndarray:
    """g[T] becomes the sum of g[S] over the subsets S of T, in place, one
    pass per element, and g is returned; g has length 2^n and no sum may
    overflow its dtype. A pass whose blocks of 2^e entries span at most 8
    bytes adds them as one wider unsigned int, as no lane carries, and up
    to 32 bytes as uint64 columns, so no pass loops over short rows."""
    for e in range(g.size.bit_length() - 1):
        span = g.itemsize << e
        if span <= 8:
            v = g.view(f"u{span}").reshape(-1, 2)
            v[:, 1] += v[:, 0]
        elif span <= 32:
            v = g.view(np.uint64).reshape(-1, 2, span // 8)
            for s in range(span // 8):
                v[:, 1, s] += v[:, 0, s]
        else:
            v = g.reshape(-1, 2, 1 << e)
            v[:, 1] += v[:, 0]
    return g


def element_steps(masks: np.ndarray) -> Iterator[np.ndarray]:
    """Walk the elements of many masks at once, in ascending order: step j
    yields 1 + the j-th least element of each mask, or 0 where the mask
    has fewer elements. Stops once every mask is used up."""
    masks = masks.copy()
    while masks.any():
        low = masks & -masks
        masks ^= low
        yield np.frexp(low)[1]  # 2^e has exponent e + 1, and 0 has 0


# A family of subsets of {0..n-1} is packed into max(1, 2^n / 64) uint64
# words: subset x is bit x % 64 of word x // 64, so it takes 2^n / 8 bytes.
# Below n = 6 the one word is partly filled and its high bits stay clear.
WORD = np.dtype("<u8")
# LOW[e]: the bits x of a word with bit e of x clear
LOW = np.array([0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF],
               dtype=WORD)
REV8 = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)


def pack(flags: np.ndarray) -> np.ndarray:
    """The packed family of a bool array of length 2^n, indexed by mask."""
    packed = np.packbits(flags, bitorder="little")
    words = np.zeros(max(1, flags.size >> 6), WORD)
    words.view(np.uint8)[:packed.size] = packed
    return words


def unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The bool array of length 2^n that pack turned into words."""
    return np.unpackbits(words.view(np.uint8), count=1 << n,
                         bitorder="little").view(bool)


def pack_masks(masks: Iterable[int], n: int) -> np.ndarray:
    """The packed family whose members are the given masks."""
    idx = np.fromiter(masks, WORD)
    words = np.zeros(max(1, (1 << n) >> 6), WORD)
    np.bitwise_or.at(words, idx >> 6, WORD.type(1) << (idx & 63))
    return words


def or_up(dst: np.ndarray, src: np.ndarray, n: int) -> np.ndarray:
    """dst[X] |= src[X + e] for each element e outside X, one word pass per
    element, and return dst. With dst = src each pass reads the last one's
    result, so this closes the family downward."""
    for e in range(min(n, 6)):
        dst |= (src >> (1 << e)) & LOW[e]
    for e in range(6, n):
        dst.reshape(-1, 2, 1 << e - 6)[:, 0] |= (
            src.reshape(-1, 2, 1 << e - 6)[:, 1])
    return dst


def complement(words: np.ndarray, n: int) -> np.ndarray:
    """The family {E - X : X a member}: the words' bits reversed, byte order
    first and then each byte by table, and shifted down by the unused top
    bits of a partly filled word."""
    out = REV8.take(words.view(np.uint8)[::-1]).view(WORD)
    out >>= words.size * 64 - (1 << n)
    return out


def maximal_family(words: np.ndarray, n: int) -> np.ndarray:
    """The family's members with no member X + e above them."""
    return words & ~or_up(np.zeros_like(words), words, n)


def members(words: np.ndarray) -> np.ndarray:
    """The members of a packed family as ascending int64 masks."""
    nz = np.flatnonzero(words)
    rows, cols = np.nonzero(np.unpackbits(
        words[nz].view(np.uint8), bitorder="little").reshape(-1, 64))
    return nz[rows] * 64 + cols


def first_member(words: np.ndarray) -> Optional[int]:
    """The least member of a packed family, or None when it is empty."""
    nz = np.flatnonzero(words)
    if nz.size == 0:
        return None
    w = int(words[nz[0]])
    return int(nz[0]) * 64 + (w & -w).bit_length() - 1


def has_member(words: np.ndarray, x: int) -> bool:
    return bool(int(words[x >> 6]) >> (x & 63) & 1)


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
