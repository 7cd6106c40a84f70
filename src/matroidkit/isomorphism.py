"""Matroid isomorphism and rank-preserving embeddings.

Backtracking over element assignments, pruned by iterated invariant
refinement (loop status, parallel class size, 3-point-line incidences) and
by rank agreement on the independent subsets of the assigned prefix, with
each one's new element added.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .core import Matroid, _point_classes, rank_reader, rank_table
from .errors import ResourceLimitError


def invariant_profile(m: Matroid) -> tuple:
    """Cheap isomorphism invariants: anything that differs rules iso out."""
    classes, loops = _point_classes(m.r, 0, range(m.size))
    class_sizes = tuple(sorted(len(c) for c in classes))
    n_loops = len(loops)
    tri = _triangle_counts(m)
    return (
        m.size,
        m.full_rank(),
        n_loops,
        class_sizes,
        tuple(sorted(tri)),
    )


def _triangle_counts(m: Matroid) -> list[int]:
    """Per element: number of 3-subsets through it of rank <= 2."""
    n = m.size
    counts = [0] * n
    for a, b, c in itertools.combinations(range(n), 3):
        if m.r((1 << a) | (1 << b) | (1 << c)) <= 2:
            counts[a] += 1
            counts[b] += 1
            counts[c] += 1
    return counts


def _refined_classes(m: Matroid) -> list[int]:
    """Color refinement on elements; returns a class id per element."""
    n = m.size
    tri = _triangle_counts(m)
    colors = [(m.r(1 << e), tri[e]) for e in range(n)]
    ids = _normalize(colors)
    for _ in range(n):
        sigs = []
        for e in range(n):
            neigh = sorted(
                (ids[f], m.r((1 << e) | (1 << f))) for f in range(n) if f != e
            )
            sigs.append((ids[e], tuple(neigh)))
        new_ids = _normalize(sigs)
        if new_ids == ids:
            break
        ids = new_ids
    return ids


def _normalize(values: list) -> list[int]:
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values]


def _constraint_order(tr, n: int) -> list[int]:
    """Order target elements so dependencies close early (better pruning):
    each next element closes the most circuits of size 2 or 3 with those
    already placed, ties to the least. tr reads the target's rank table."""
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
    its reads are made once per depth, from its rank table. Host ranks
    are read from the host's rank table when it is cached or its
    provenance builds it, else from the host's oracle; either way the
    search is the same.
    """
    nt = target.size
    if nt > 20:
        raise ResourceLimitError("embedding search needs |E(target)| <= 20")
    if nt > host.size:
        return None
    hr = rank_reader(host)
    tr = rank_table(target).tobytes().__getitem__
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
    if a.size != b.size:
        return None
    if invariant_profile(a) != invariant_profile(b):
        return None
    ca = _refined_classes(a)
    cb = _refined_classes(b)
    if sorted(ca) != sorted(cb):
        return None
    candidates = [[h for h in range(a.size) if ca[h] == cb[t]]
                  for t in range(b.size)]
    found = find_embedding(a, b, candidates=candidates)
    if found is None:
        return None
    return {h: t for t, h in found.items()}
