"""Matroid isomorphism and rank-preserving embeddings.

Backtracking over element assignments, pruned by a colour refinement of
the elements of both matroids together (rank, 3-point-line incidences,
then the colours and ranks of the pairs through each element) and by rank
agreement on the independent subsets of the assigned prefix, with each
one's new element added.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .core import Matroid, rank_reader
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
    already placed, ties to the least. tr reads the target's ranks."""
    singles = [1 << e for e in range(n)]
    small = [s for k in (2, 3)
             for s in map(sum, itertools.combinations(singles, k))
             if tr(s) < k]
    order: list[int] = []
    placed = 0
    remaining = set(range(n))
    while remaining:
        best = min(remaining, key=lambda e: (-sum(
            1 for s in small if s >> e & 1 and not s & ~(placed | 1 << e)), e))
        order.append(best)
        placed |= 1 << best
        remaining.remove(best)
    return order


def find_embedding(host: Matroid, target: Matroid,
                   candidates: Optional[list[list[int]]] = None
                   ) -> Optional[dict[int, int]]:
    """Injective map of E(target) into E(host) preserving ranks of all
    subsets of the image. Returns {target element: host element} or None.

    candidates[t] restricts images of element t. Elements are placed in
    _constraint_order; t -> h is accepted exactly when r(X + t) in the
    target equals r(phi(X) + h) in the host for every independent subset
    X of the placed prefix. That suffices because a matroid is determined
    by its independent sets: X + t is then independent on one side exactly
    when it is on the other, and a dependent X stays dependent with t
    added on both sides. The target's side depends only on the depth, so
    its reads are made once per depth. Both sides are read through
    rank_reader: from the rank table when it is cached or the provenance
    builds it, else through the oracle; either way the search is the same.
    """
    nt = target.size
    if nt > 20:
        raise ResourceLimitError("embedding search needs |E(target)| <= 20")
    if nt > host.size:
        return None
    hr = rank_reader(host)
    tr = rank_reader(target)
    order = _constraint_order(tr, nt)
    if candidates is None:
        candidates = [list(range(host.size))] * nt

    # the independent subsets of the placed prefix: in target coordinates
    # the same at every node of a depth, in host coordinates per node
    t_masks = [0]
    h_masks = [0]
    levels: list[tuple[list[int], list[int]]] = []
    assignment: dict[int, int] = {}
    used = 0

    def extend(depth: int) -> bool:
        nonlocal used
        if depth == nt:
            return True
        t = order[depth]
        if depth == len(levels):  # first visit: r(X + t), and which X grow
            ranks = [tr(x | 1 << t) for x in t_masks]
            grow = [i for i, x in enumerate(t_masks)
                    if ranks[i] > x.bit_count()]
            t_masks.extend([t_masks[i] | 1 << t for i in grow])
            levels.append((ranks, grow))
        ranks, grow = levels[depth]
        half = len(ranks)
        for h in candidates[t]:
            hbit = 1 << h
            if used & hbit:
                continue
            for rt, hx in zip(ranks, h_masks):
                if rt != hr(hx | hbit):
                    break
            else:
                h_masks.extend([h_masks[i] | hbit for i in grow])
                used |= hbit
                assignment[t] = h
                if extend(depth + 1):
                    return True
                used ^= hbit
                del assignment[t]
                del h_masks[half:]
        return False

    if extend(0):
        return dict(assignment)
    return None


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
