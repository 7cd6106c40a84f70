"""Matroid isomorphism and rank-preserving embeddings.

Backtracking over element assignments, pruned by iterated invariant
refinement (loop status, parallel class size, 3-point-line incidences) and
by rank agreement on every subset of the assigned prefix.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ._bits import popcount
from .core import (Matroid, loops_mask, parallel_classes, rank_reader,
                   rank_table)
from .errors import ResourceLimitError


def invariant_profile(m: Matroid) -> tuple:
    """Cheap isomorphism invariants: anything that differs rules iso out."""
    classes = parallel_classes(m)
    class_sizes = tuple(sorted(len(c) for c in classes))
    n_loops = popcount(loops_mask(m))
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


def _constraint_order(target: Matroid) -> list[int]:
    """Order elements so dependencies close early (better pruning)."""
    n = target.size
    small = []
    for k in (2, 3):
        for combo in itertools.combinations(range(n), k):
            mask = 0
            for e in combo:
                mask |= 1 << e
            if target.r(mask) < k:
                small.append(set(combo))
    order: list[int] = []
    placed: set[int] = set()
    remaining = set(range(n))
    while remaining:
        best = min(
            remaining,
            key=lambda e: (-sum(1 for s in small if e in s and s - {e} <= placed), e),
        )
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


def find_embedding(host: Matroid, target: Matroid,
                   candidates: Optional[list[list[int]]] = None
                   ) -> Optional[dict[int, int]]:
    """Injective map of E(target) into E(host) preserving ranks of all
    subsets of the image. Returns {target element: host element} or None.

    candidates[t] restricts images of element t. Host ranks are read from
    the host's rank table when it is cached or its provenance builds it,
    else from the host's oracle; either way the search is the same.
    """
    nt = target.size
    if nt > 20:
        raise ResourceLimitError("embedding search needs |E(target)| <= 20")
    if nt > host.size:
        return None
    hr = rank_reader(host)
    tr = rank_table(target).tobytes().__getitem__
    order = _constraint_order(target)
    if candidates is None:
        candidates = [list(range(host.size))] * nt

    # subset masks of the assigned prefix, in target and host coordinates
    t_masks = [0]
    h_masks = [0]
    assignment: dict[int, int] = {}
    used = 0

    def extend(depth: int) -> bool:
        nonlocal used
        if depth == nt:
            return True
        t = order[depth]
        tbit = 1 << t
        half = len(t_masks)
        for h in candidates[t]:
            hbit = 1 << h
            if used & hbit:
                continue
            ok = True
            for i in range(half):
                if tr(t_masks[i] | tbit) != hr(h_masks[i] | hbit):
                    ok = False
                    break
            if not ok:
                continue
            for i in range(half):
                t_masks.append(t_masks[i] | tbit)
                h_masks.append(h_masks[i] | hbit)
            used |= hbit
            assignment[t] = h
            if extend(depth + 1):
                return True
            used ^= hbit
            del assignment[t]
            del t_masks[half:]
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
