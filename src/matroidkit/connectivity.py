"""Connectivity invariants: lambda, local connectivity, kappa between sets,
Tutte linking minors, vertical connectivity, and modular flats.

kappa is exhaustive over the free lattice: it reads lambda of every set
between X and E-Y from the rank table (through the oracle when there is
none) and keeps the least minimizer. Its tests check it against the plain
submask walk in tests/oracles.py (kappa_brute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from ._bits import bits, elements_of, popcount, spread
from .core import (
    Matroid,
    MinorCertificate,
    TABLE_CAP,
    _built_table,
    closure_mask,
    minor_with_map,
)
from .errors import DomainError, ResourceLimitError


def connectivity(m: Matroid, subset: Iterable[int]) -> int:
    """lambda(X) = r(X) + r(E-X) - r(M)."""
    x = m.mask(subset)
    return m.r(x) + m.r(m.full_mask & ~x) - m.full_rank()


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
    """Minimum of lambda(Z) over X <= Z <= E-Y, with a witness.

    Exhaustive over the free elements; ties broken toward the smallest
    witness bitmask, so output is independent of evaluation order.
    """
    x, y = m.mask(a), m.mask(b)
    if x & y:
        raise DomainError("kappa needs disjoint sets")
    best, z = _kappa_masks(m, x, y)
    return best, SeparationCertificate(elements_of(z), best, "kappa-witness")


def _kappa_masks(m: Matroid, x: int, y: int) -> tuple[int, int]:
    """The least lambda over X <= Z <= E-Y and the least Z attaining it,
    read over every Z at once: from m's rank table when it has one, else
    through m's oracle."""
    free = m.full_mask & ~(x | y)
    f = popcount(free)
    if f > TABLE_CAP:
        raise ResourceLimitError(
            f"kappa is exhaustive over 2^{f} sets; cap is 2^{TABLE_CAP}")
    z = spread(x, [1 << e for e in bits(free)])  # ascending
    table = _built_table(m)
    if table is not None:
        lam = table[z].astype(np.int16)
        lam += table[::-1][z]  # r(E - Z)
    else:
        full = m.full_mask
        lam = np.fromiter((m.r(v) + m.r(full ^ v) for v in z.tolist()),
                          np.int16, len(z))
    i = int(np.argmin(lam))  # z ascends, so argmin is the least mask
    return int(lam[i]) - m.full_rank(), int(z[i])


# ---------------------------------------------------------------------------
# Tutte linking


def linking_minor(m: Matroid, a: Iterable[int], b: Iterable[int]
                  ) -> tuple[Matroid, MinorCertificate]:
    """A minor N on X | Y with N|X = M|X, N|Y = M|Y, lambda_N(X) = kappa(X,Y).

    Such a minor always exists; the search removes each free element by
    contraction or deletion, pruning contractions that disturb either
    restriction (anything with positive local connectivity to the contract
    set changes ranks inside X or Y).
    """
    x, y = m.mask(a), m.mask(b)
    if x & y:
        raise DomainError("linking_minor needs disjoint sets")
    target, _ = _kappa_masks(m, x, y)
    free = m.full_mask & ~(x | y)
    in_closures = closure_mask(m, x) | closure_mask(m, y)
    order = sorted(bits(free), key=lambda e: ((in_closures >> e) & 1, e))
    rx, ry = m.r(x), m.r(y)

    found = _linking_search(m, x, y, rx, ry, target, in_closures, order, 0, 0, 0)
    if found is None:
        raise RuntimeError("linking search exhausted; this is a bug")
    cmask, dmask = found
    n, keep = minor_with_map(m, elements_of(cmask), elements_of(dmask))
    mapping = tuple((i, h) for i, h in enumerate(keep))
    cert = MinorCertificate(frozenset(elements_of(cmask)),
                            frozenset(elements_of(dmask)), mapping)
    return n, cert


def _linking_search(m: Matroid, x: int, y: int, rx: int, ry: int, target: int,
                    in_closures: int, order: list[int], idx: int,
                    cmask: int, dmask: int) -> Optional[tuple[int, int]]:
    if idx == len(order):
        rc = m.r(cmask)
        lam = ((m.r(x | cmask) - rc) + (m.r(y | cmask) - rc)
               - (m.r(m.full_mask & ~dmask) - rc))
        return (cmask, dmask) if lam == target else None
    e = order[idx]
    bit = 1 << e
    contract_ok = (m.r(x | cmask | bit) - m.r(cmask | bit) == rx
                   and m.r(y | cmask | bit) - m.r(cmask | bit) == ry)
    branches = (True, False) if not in_closures & bit else (False, True)
    for do_contract in branches:
        if do_contract and not contract_ok:
            continue
        nc = cmask | bit if do_contract else cmask
        nd = dmask if do_contract else dmask | bit
        got = _linking_search(m, x, y, rx, ry, target, in_closures, order,
                              idx + 1, nc, nd)
        if got is not None:
            return got
    return None


# ---------------------------------------------------------------------------
# flats and modularity


_FLAT_CAP = 1 << 17


def flats(m: Matroid) -> list[int]:
    """All flats as masks, ascending. Grown by single-element closures."""
    start = closure_mask(m, 0)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            rest = m.full_mask & ~f
            for e in bits(rest):
                g = closure_mask(m, f | (1 << e))
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
            if len(seen) > _FLAT_CAP:
                raise ResourceLimitError("flat lattice too large to enumerate")
        frontier = nxt
    return sorted(seen)


def _check_flat(m: Matroid, mask: int) -> int:
    if closure_mask(m, mask) != mask:
        raise DomainError(f"{elements_of(mask)} is not a flat")
    return mask


def is_modular_pair(m: Matroid, f1: Iterable[int], f2: Iterable[int]) -> bool:
    a = _check_flat(m, m.mask(f1))
    b = _check_flat(m, m.mask(f2))
    return m.r(a) + m.r(b) == m.r(a | b) + m.r(a & b)


def is_modular_flat(m: Matroid, f: Iterable[int]) -> bool:
    """True iff F forms a modular pair with every flat."""
    a = _check_flat(m, m.mask(f))
    ra = m.r(a)
    return all(ra + m.r(g) == m.r(a | g) + m.r(a & g) for g in flats(m))


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
    rm = m.full_rank()
    full = m.full_mask
    best: Optional[tuple[int, int]] = None
    for f in flats(m):
        comp = full & ~f
        rf = m.r(f)
        rc = m.r(comp)
        if rf >= rm or rc >= rm:
            continue
        lam = rf + rc - rm
        if lam < k - 1 and (best is None or (lam, f) < best):
            best = (lam, f)
    if best is None:
        return True
    lam, f = best
    return SeparationCertificate(elements_of(f), lam, "vertical-separation")
