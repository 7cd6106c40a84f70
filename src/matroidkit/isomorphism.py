"""Matroid isomorphism and rank-preserving embeddings.

Backtracking over element assignments, pruned by a colour refinement of
the elements of both matroids together (rank, 3-point-line incidences,
then the colours and ranks of the pairs through each element) and by rank
agreement on the independent subsets of the assigned prefix, with each
one's new element added. On a host with a rank table, a search node tests
all of its candidates with one blocked gather of that table (in the
spirit of Ullmann's refinement, J. ACM 23, 1976); on a host without one,
it reads the oracle lazily, a candidate at a time.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ._bits import elements_of
from .core import READ_BLOCK, Matroid, _built_table, rank_reader
from .errors import ResourceLimitError


def _colours(a: Matroid, b: Matroid) -> tuple[list[int], list[int]]:
    """Colour refinement of the elements of a and b together; returns a
    colour id per element of each, numbered over both, so an element of a
    and one of b have the same id exactly when their colours agree.

    e starts as (r(e), the number of 3-subsets through e of rank <= 2).
    Each round recolours e by its colour and the sorted multiset of
    (colour of f, r(e + f)) over f != e, until the number of colours stops
    growing. Ranks are read through rank_reader, the pairs once per matroid.
    """
    pairs, colours = [], []
    for m in (a, b):
        r, n = rank_reader(m), m.size
        pair = [[r(1 << e | 1 << f) for f in range(n)] for e in range(n)]
        tri = [0] * n
        for t in itertools.combinations(range(n), 3):
            if r(1 << t[0] | 1 << t[1] | 1 << t[2]) <= 2:
                for e in t:
                    tri[e] += 1
        pairs.append(pair)
        colours.append([(pair[e][e], tri[e]) for e in range(n)])
    count = 0
    while True:
        ids = {c: i for i, c in
               enumerate(sorted(set(colours[0]) | set(colours[1])))}
        ca, cb = ([ids[c] for c in side] for side in colours)
        if len(ids) == count:
            return ca, cb
        count = len(ids)
        colours = [[(c[e], tuple(sorted((c[f], rank) for f, rank
                                        in enumerate(row) if f != e)))
                    for e, row in enumerate(pair)]
                   for c, pair in zip((ca, cb), pairs)]


def _constraint_order(tr, n: int) -> list[int]:
    """Order target elements so dependencies close early (better pruning):
    each next element closes the most circuits of size 2 or 3 with those
    already placed, ties to the least. tr reads the target's ranks.

    The counts are kept as elements are placed: a dependent 2- or 3-set
    whose last open element is e adds one to e's count."""
    singles = [1 << e for e in range(n)]
    small = [elements_of(s) for k in (2, 3)
             for s in map(sum, itertools.combinations(singles, k))
             if tr(s) < k]
    through: list[list[int]] = [[] for _ in range(n)]
    for i, c in enumerate(small):
        for e in c:
            through[e].append(i)
    open_left = [len(c) for c in small]
    closes = [0] * n
    order: list[int] = []
    remaining = set(range(n))
    while remaining:
        best = min(remaining, key=lambda e: (-closes[e], e))
        order.append(best)
        remaining.remove(best)
        for i in through[best]:
            open_left[i] -= 1
            if open_left[i] == 1:
                closes[next(e for e in small[i] if e in remaining)] += 1
    return order


def find_embedding(host: Matroid, target: Matroid,
                   candidates: Optional[list[list[int]]] = None
                   ) -> Optional[dict[int, int]]:
    """Injective map of E(target) into E(host) preserving ranks of all
    subsets of the image. Returns {target element: host element} or None.

    candidates[t] restricts images of element t. Elements are placed in
    _constraint_order and candidates tried in their given order; t -> h is
    accepted exactly when r(X + t) in the target equals r(phi(X) + h) in
    the host for every independent subset X of the placed prefix. That
    suffices because a matroid is determined by its independent sets: X + t
    is then independent on one side exactly when it is on the other, and a
    dependent X stays dependent with t added on both sides.

    The target's side depends only on the depth, so it is read once per
    depth: the prefix's independent subsets are an int64 array of masks,
    r(X + t) one gather of the target's rank table (or one oracle read per
    X when it has none), and the X that stay independent those whose rank
    grows past |X|. When the host has a rank table, cached or built by its
    provenance, every node tests all of its open candidates at once:
    ht[phi(X) | h] == r(X + t) over masks x candidates, gathered at most
    READ_BLOCK entries at a time. A host with no table is read lazily
    through its oracle, one subset at a time, a candidate dropped at the
    first rank that differs, before the next candidate is read. Either way
    the search, and the first embedding found, is the same.
    """
    nt = target.size
    if nt > 20:
        raise ResourceLimitError("embedding search needs |E(target)| <= 20")
    if nt > host.size:
        return None
    tt = _built_table(target)
    tr = rank_reader(target)
    order = _constraint_order(tr, nt)
    if candidates is None:
        candidates = [list(range(host.size))] * nt
    ht = _built_table(host)
    hr = rank_reader(host) if ht is None else None

    # the independent subsets of the placed prefix, and their sizes: in
    # target coordinates the same at every node of a depth, in host
    # coordinates per node (a list when the host is read lazily)
    t_masks = np.zeros(1, np.int64)
    t_sizes = np.zeros(1, np.int64)
    levels: list[tuple] = []
    assignment: dict[int, int] = {}
    used = 0

    def extend(depth: int, h_masks) -> bool:
        nonlocal t_masks, t_sizes, used
        if depth == nt:
            return True
        t = order[depth]
        if depth == len(levels):  # first visit: r(X + t), and which X grow
            with_t = t_masks | 1 << t
            ranks = (tt[with_t] if tt is not None else
                     np.fromiter(map(tr, with_t.tolist()), np.uint8,
                                 len(with_t)))
            grow = np.flatnonzero(ranks > t_sizes)
            t_masks = np.concatenate((t_masks, with_t[grow]))
            t_sizes = np.concatenate((t_sizes, t_sizes[grow] + 1))
            if ht is None:
                levels.append((ranks.tolist(), grow.tolist(), None))
            else:
                levels.append((ranks[:, None], grow,
                               1 << np.array(candidates[t], np.int64)))
        ranks, grow, bits = levels[depth]
        if ht is None:
            fits = _read_fits(hr, candidates[t], used, ranks, h_masks)
        else:
            fits = _gather_fits(ht, candidates[t], bits, used, ranks, h_masks)
        for h in fits:
            hbit = 1 << h
            used |= hbit
            assignment[t] = h
            if ht is None:
                grown = h_masks + [h_masks[i] | hbit for i in grow]
            else:
                grown = np.concatenate((h_masks, h_masks[grow] | hbit))
            if extend(depth + 1, grown):
                return True
            used ^= hbit
            del assignment[t]
        return False

    if extend(0, [0] if ht is None else np.zeros(1, np.int64)):
        return dict(assignment)
    return None


def _read_fits(hr, cands, used, ranks, h_masks):
    """The candidates h outside used with r(X + t) == hr(phi(X) + h) for
    every X, one read at a time: a candidate is read only once the previous
    one is settled, and left at its first disagreeing rank."""
    for h in cands:
        hbit = 1 << h
        if used & hbit:
            continue
        for rt, hx in zip(ranks, h_masks):
            if rt != hr(hx | hbit):
                break
        else:
            yield h


def _gather_fits(ht, cands, bits, used, ranks, h_masks) -> list[int]:
    """The candidates h outside used with r(X + t) == ht[phi(X) + h] for
    every X, where bits holds 1 << h for each h in cands and ranks is a
    column of r(X + t): one gather of the host table over masks x
    candidates, in blocks of at most READ_BLOCK entries, each block over
    the candidates that agree so far."""
    keep = np.array([i for i, h in enumerate(cands) if not used >> h & 1],
                    np.int64)
    rows = max(1, READ_BLOCK // max(1, len(cands)))
    for lo in range(0, len(h_masks), rows):
        agree = (ht[h_masks[lo:lo + rows, None] | bits[keep]]
                 == ranks[lo:lo + rows])
        keep = keep[agree.all(0)]
    return [cands[i] for i in keep.tolist()]


def is_isomorphic(a: Matroid, b: Matroid) -> Optional[dict[int, int]]:
    """Isomorphism test; returns {element of a: element of b} or None."""
    if a.size != b.size or a.full_rank() != b.full_rank():
        return None
    ca, cb = _colours(a, b)
    if sorted(ca) != sorted(cb):
        return None
    candidates = [[h for h in range(a.size) if ca[h] == c] for c in cb]
    found = find_embedding(a, b, candidates=candidates)
    if found is None:
        return None
    return {h: t for t, h in found.items()}
