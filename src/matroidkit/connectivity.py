"""Connectivity invariants: lambda, local connectivity, kappa between sets,
Tutte linking minors, vertical connectivity, and modular flats.

kappa and linking minors take polynomially many rank reads: kappa is one
matroid intersection, grown by shortest augmenting paths, and a linking
minor is one intersection per free element. Their tests check kappa
against the plain submask walk and the table sweep in tests/oracles.py.

Flats, modular flats and vertical connectivity sweep every subset: they
read the flats off the rank table with core.closed_flags, so they refuse
a matroid over TABLE_CAP elements before any work. Point queries on one
flat (is_modular_pair, and the flat check of is_modular_flat) read the
oracle and work up to GROUND_SET_CAP elements.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from ._bits import bits, elements_of, mask_of
from .core import (Matroid, MinorCertificate, closed_flags, closure_mask,
                   lambda_table, minor_with_map, rank_table)
from .errors import DomainError


def connectivity(m: Matroid, subset: Iterable[int]) -> int:
    """lambda(X) = r(X) + r(E-X) - r(M)."""
    return connectivity_mask(m, m.mask(subset))


def connectivity_mask(m: Matroid, x: int) -> int:
    return m.r(x) + m.r(m.full_mask & ~x) - m.full_rank()


def local_conn(m: Matroid, a: Iterable[int], b: Iterable[int]) -> int:
    """Local connectivity r(X) + r(Y) - r(X | Y); 0 iff X and Y are skew."""
    x, y = m.mask(a), m.mask(b)
    return m.r(x) + m.r(y) - m.r(x | y)


@dataclass(frozen=True)
class SeparationCertificate:
    """A side Z with its connectivity value.

    kind "kappa-witness": X <= Z <= E-Y and lambda(Z) equals the reported
    kappa. kind "vertical-separation": both Z and E-Z have rank < r(M) and
    lambda(Z) = value < k-1 for the refuted k.
    """

    side: tuple[int, ...]
    value: int
    kind: str


def kappa(m: Matroid, a: Iterable[int], b: Iterable[int],
          ) -> tuple[int, SeparationCertificate]:
    """Minimum of lambda(Z) over X <= Z <= E-Y, with the least minimizing Z
    as witness. By matroid intersection it is r(X) + r(Y) - r(M) plus the
    size of a largest common independent set of (M/X)|F and (M/Y)|F,
    F = E-X-Y; the least Z lies inside every other minimizer."""
    x, y = m.mask(a), m.mask(b)
    if x & y:
        raise DomainError("kappa needs disjoint sets")
    k, u = _intersect(m.r, x, y, m.full_mask & ~(x | y))
    value = m.r(x) + m.r(y) - m.full_rank() + k
    return value, SeparationCertificate(elements_of(x | u), value,
                                        "kappa-witness")


def _intersect(r: Callable[[int], int], x: int, y: int, free: int,
               ) -> tuple[int, int]:
    """|I| for a largest common independent set I of M1 = (M/X)|F and
    M2 = (M/Y)|F (F = free, M read through r), grown by shortest augmenting
    paths; and U, the elements that can reach a sink of I's final exchange
    graph. r1(U) + r2(F-U) = |I| proves both optimal, and U lies inside
    every minimizer of r1(A) + r2(F-A). I's independence in M1 and M2 and
    that equation are checked before returning."""
    rx, ry = r(x), r(y)
    i = 0

    def arc(u: int, v: int) -> bool:  # I - u + v in M1, or I - v + u in M2
        if i >> u & 1:
            return r(x | i ^ (1 << u) | 1 << v) == r1
        return r(y | i ^ (1 << v) | 1 << u) == r2

    def search(starts, linked, stop=()):  # BFS; stops at a nearest stop
        pred = dict.fromkeys(starts)
        queue = deque(starts)
        while queue:
            v = queue.popleft()
            if v in stop:
                return pred, v
            for w in bits(free & ~i if i >> v & 1 else i):
                if w not in pred and linked(v, w):
                    pred[w] = v
                    queue.append(w)
        return pred, None

    while True:
        r1, r2 = r(x | i), r(y | i)
        sources = [e for e in bits(free & ~i) if r(x | i | 1 << e) > r1]
        sinks = {e for e in bits(free & ~i) if r(y | i | 1 << e) > r2}
        pred, end = search(sources, arc, sinks)
        if end is None:
            break
        while end is not None:
            i ^= 1 << end
            end = pred[end]
    u = mask_of(search(sinks, lambda v, w: arc(w, v))[0])
    k = i.bit_count()
    if (r(x | i) - rx != k or r(y | i) - ry != k
            or r(x | u) - rx + r(y | free & ~u) - ry != k):
        raise RuntimeError("matroid intersection failed its own certificate")
    return k, u


# ---------------------------------------------------------------------------
# Tutte linking


def linking_minor(m: Matroid, a: Iterable[int], b: Iterable[int]
                  ) -> tuple[Matroid, MinorCertificate]:
    """A minor N on X | Y with N|X = M|X, N|Y = M|Y, lambda_N(X) = kappa(X,Y).

    Tutte's linking theorem, one free element e at a time in ascending
    order: e is deleted when M/C\\D\\e keeps kappa (one intersection), else
    contracted, which by Tutte's lemma keeps it. Deletion keeps kappa when
    e is in cl(X) | cl(Y), so contraction changes neither restriction.
    """
    x, y = m.mask(a), m.mask(b)
    if x & y:
        raise DomainError("linking_minor needs disjoint sets")
    free = m.full_mask & ~(x | y)
    # kappa - r(X) - r(Y); the restrictions keep r(X) and r(Y) throughout
    goal = _intersect(m.r, x, y, free)[0] - m.full_rank()
    c = d = 0
    for e in bits(free):
        bit = 1 << e
        k, _ = _intersect(m.r, x | c, y | c, free & ~(c | d | bit))
        if k - m.r(m.full_mask & ~(d | bit)) + m.r(c) == goal:
            d |= bit
        else:
            c |= bit
    n, keep = minor_with_map(m, elements_of(c), elements_of(d))
    return n, MinorCertificate(frozenset(bits(c)), frozenset(bits(d)),
                               tuple(enumerate(keep)))


# ---------------------------------------------------------------------------
# flats and modularity


def flats(m: Matroid) -> list[int]:
    """All flats as masks, ascending, read off m's rank table (so over
    TABLE_CAP elements this raises ResourceLimitError before any work)."""
    return np.flatnonzero(closed_flags(rank_table(m))).tolist()


def _check_flat(m: Matroid, mask: int) -> int:
    if closure_mask(m, mask) != mask:
        raise DomainError(f"{elements_of(mask)} is not a flat")
    return mask


def is_modular_pair(m: Matroid, f1: Iterable[int], f2: Iterable[int]) -> bool:
    a = _check_flat(m, m.mask(f1))
    b = _check_flat(m, m.mask(f2))
    return m.r(a) + m.r(b) == m.r(a | b) + m.r(a & b)


def is_modular_flat(m: Matroid, f: Iterable[int]) -> bool:
    """True iff F forms a modular pair with every flat. A non-flat F raises
    DomainError before the rank table is built."""
    a = _check_flat(m, m.mask(f))
    t = rank_table(m)
    g = np.flatnonzero(closed_flags(t))
    return bool(np.all(t[a] + t[g] == t[g | a] + t[g & a]))


# ---------------------------------------------------------------------------
# vertical connectivity


def is_vertically_k_connected(m: Matroid, k: int,
                              ) -> Union[bool, SeparationCertificate]:
    """True, or a refuting partition certificate.

    A matroid fails vertical k-connectivity when some partition (A, B) has
    r(A) < r(M), r(B) < r(M), and lambda(A) < k - 1. A violating side can
    be taken closed, so A ranges over flats. Ties: smallest lambda, then
    smallest side bitmask.
    """
    if k < 2:
        raise DomainError("vertical connectivity needs k >= 2")
    t = rank_table(m)
    rm = int(t[-1])
    f = np.flatnonzero(closed_flags(t)).astype(np.int32)
    lam = lambda_table(t)[f]
    bad = (t[f] < rm) & (t[t.size - 1 ^ f] < rm) & (lam < k - 1)
    if not bad.any():
        return True
    # the flats ascend: argmin takes the least side of the least lambda
    i = np.argmin(np.where(bad, lam, np.iinfo(lam.dtype).max))
    return SeparationCertificate(elements_of(int(f[i])), int(lam[i]),
                                 "vertical-separation")
