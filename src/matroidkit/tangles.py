"""Tangles: the T_k families, axiom checking, tangle matroids, and tangles
induced onto a host from a tangle on one of its minors.

A tangle of order theta is a family T of (theta-1)-separating sets such that
(1) every (theta-1)-separating set or its complement is in T, (2) no three
members cover the ground set, and (3) no complement of a single element is a
member. Members are "small"; any subset of a member that is itself
(theta-1)-separating is again a member (axioms 1+2), so a tangle is stored
by its maximal members plus that predicate.

Every family of subsets a check reads (the separating sets, T_k, a
tangle's members) is a packed bitset from _bits: bit x of uint64 words is
subset x, so a family on n elements takes 2^n/8 bytes, and downward
closure, complements and maximal members take one word pass per element.
lambda is a uint8 table, one byte per subset, built once per matroid from
its own rank table (core.lambda_of), so a T_k check and the is_tangle
replay of it share one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from ._bits import (complement, first_member, has_member, maximal_family,
                    members, or_up, pack, pack_masks, popcount,
                    popcount_table, unpack)
from .core import (Matroid, MinorCertificate, lambda_of, rank_table,
                   validate_certificate, validate_rank_axioms)
from .connectivity import connectivity_mask
from .constructions import clique
from .errors import DomainError, PreconditionError


@dataclass(frozen=True)
class TangleCheck:
    """Axiom-check outcome; axiom is 1, 2, or 3 when ok is False."""

    ok: bool
    axiom: Optional[int] = None
    witness: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class Tangle:
    """A tangle stored by its maximal members (masks, ascending)."""

    __slots__ = ("matroid", "theta", "maximal")

    def __init__(self, matroid: Matroid, theta: int,
                 maximal: Iterable[int]):
        self.matroid = matroid
        self.theta = theta
        self.maximal = tuple(sorted(maximal))

    def is_small(self, mask: int) -> bool:
        if connectivity_mask(self.matroid, mask) >= self.theta - 1:
            return False
        return any(mask & ~mx == 0 for mx in self.maximal)

    def __repr__(self):
        return (f"<Tangle order={self.theta} on n={self.matroid.size}, "
                f"{len(self.maximal)} maximal members>")


def _separating(lam: np.ndarray, theta: int) -> np.ndarray:
    """The (theta-1)-separating sets lambda(X) < theta - 1, packed."""
    return pack(lam < theta - 1)


def _under(t: Tangle) -> np.ndarray:
    """The subsets of t's maximal members, packed."""
    n = t.matroid.size
    under = pack_masks(t.maximal, n)
    return or_up(under, under, n)


def _family_axioms(m: Matroid, fam: np.ndarray,
                   sep: np.ndarray) -> tuple[TangleCheck, tuple[int, ...]]:
    """Check the three tangle axioms for a packed family, where sep is the
    packed family of (theta-1)-separating sets. Returns the verdict and,
    when it passes, the family's maximal members (else ())."""
    n = m.size
    full = m.full_mask

    bad = first_member(fam & ~sep)
    if bad is None:
        bad = first_member(sep & ~(fam | complement(fam, n)))
    if bad is not None:
        return TangleCheck(False, 1, (bad,)), ()

    for e in range(n):
        if has_member(fam, full ^ (1 << e)):
            return TangleCheck(False, 3, (full ^ (1 << e),)), ()

    maximal = tuple(members(maximal_family(fam, n)).tolist())
    sizes = [popcount(mx) for mx in maximal]
    biggest = max(sizes, default=0)
    order = sorted(range(len(maximal)), key=lambda i: -sizes[i])
    for ii, i in enumerate(order):
        a = maximal[i]
        if popcount(a) + 2 * biggest < n:
            break  # sorted descending: no later triple can cover
        for j in order[ii:]:
            ab = a | maximal[j]
            if popcount(ab) + biggest < n:
                continue
            for k in order:
                if ab | maximal[k] == full:
                    return (TangleCheck(False, 2, (a, maximal[j], maximal[k])),
                            ())
    return TangleCheck(True), maximal


def is_tangle(m: Matroid, family: Union["Tangle", Iterable[int]],
              theta: int) -> TangleCheck:
    """Verify the tangle axioms for a family of member masks.

    family is either an iterable of masks (taken literally) or a Tangle,
    whose full membership is expanded from its maximal members.
    """
    lam = lambda_of(m)  # refuses an oversized m first
    sep = _separating(lam, theta)
    if isinstance(family, Tangle):
        if family.matroid is not m:
            raise DomainError("tangle belongs to a different matroid")
        fam = _under(family) & (sep if family.theta == theta
                                else _separating(lam, family.theta))
    else:
        masks = list(family)
        for x in masks:
            if x < 0 or x > m.full_mask:
                raise DomainError(f"member mask {x} outside the ground set")
        fam = pack_masks(masks, m.size)
    return _family_axioms(m, fam, sep)[0]


def tangle_tk(m: Matroid, k: int) -> Union[Tangle, TangleCheck]:
    """The family T_k(M): (k-1)-separating sets that neither span nor cospan.

    Returns the Tangle when the family satisfies the axioms, else the
    failing TangleCheck. (For M = clique(n+1) and k = ceil(2n/3) it is
    always a tangle; for arbitrary matroids T_k can fail.)
    """
    if k < 1:
        raise DomainError("tangle order must be positive")
    ranks = rank_table(m)
    lam = lambda_of(m)
    sep = _separating(lam, k)
    # neither spanning (r(X) < r) nor cospanning (E-X must be dependent)
    dependent = pack(ranks < popcount_table(m.size))
    in_t = sep & pack(ranks < ranks[-1]) & complement(dependent, m.size)
    verdict, maximal = _family_axioms(m, in_t, sep)
    if not verdict.ok:
        return verdict
    return Tangle(m, k, maximal)


# ---------------------------------------------------------------------------
# tangle matroid


def tangle_matroid(t: Tangle) -> Matroid:
    """kappa_T as a Matroid of rank theta-1 on t's ground set, backed by its
    rank table.

    kappa_T(X) is theta-1 when X lies in no small set, else the least
    lambda(Y) over small sets Y containing X: the superset minimum of
    lambda on small sets and theta-1 elsewhere, built by one pass per
    element. The rank axioms are checked exhaustively when |E| <= 12.
    """
    m = t.matroid
    lam = lambda_of(m)
    small = unpack(_under(t) & _separating(lam, t.theta), m.size)
    table = np.where(small, lam, t.theta - 1).astype(np.uint8, copy=False)
    for e in range(m.size):
        v = table.reshape(-1, 2, 1 << e)
        np.minimum(v[:, 0], v[:, 1], out=v[:, 0])
    table.setflags(write=False)
    out = Matroid(m.size, lambda mask: int(table[mask]),
                  name=f"tangle-matroid(order {t.theta})")
    out._table = table
    if m.size <= 12:
        validate_rank_axioms(out)
    return out


# ---------------------------------------------------------------------------
# induced tangles


def induced_tangle(m: Matroid, cert: MinorCertificate, t_n: Tangle) -> Tangle:
    """Lift a tangle on a minor N to the host: members are the sets X with
    lambda_M(X) < theta-1 whose trace X meet E(N) is small in the minor.

    The certificate ties N's elements to host elements; it is re-validated.
    """
    target = t_n.matroid
    if not validate_certificate(cert, m, target):
        raise DomainError("certificate does not carry the tangle's matroid")
    theta = t_n.theta
    sep = _separating(lambda_of(m), theta)
    small_n = unpack(
        _under(t_n) & _separating(lambda_of(target), theta),
        target.size)
    in_t = sep & _lift(small_n, m.size, cert.mapping)
    verdict, maximal = _family_axioms(m, in_t, sep)
    if not verdict.ok:
        raise PreconditionError(
            f"induced family violates tangle axiom {verdict.axiom}; "
            "the given family was not a tangle")
    return Tangle(m, theta, maximal)


def _lift(flags: np.ndarray, n: int, mapping) -> np.ndarray:
    """The packed family of the n-element host subsets whose trace under
    mapping's (target element, host element) pairs is flagged, with no
    index array.

    Shaped (2,) * n, the host subsets have an axis per host element, in
    descending order. A run of consecutive unmapped host elements is merged
    into one axis, and so is a run of host elements h, h - 1, ... mapped to
    target elements t, t - 1, ..., which is one axis of flags too. The
    flags' runs are permuted into host order, then each unmapped run
    repeats what lies inside it, from the innermost out, so every copy
    moves whole blocks of the inner runs."""
    image = {h_elem: t_elem for t_elem, h_elem in mapping}
    runs: list[list] = []  # [least target element or None, length]
    for h_elem in range(n - 1, -1, -1):
        t_elem = image.get(h_elem)
        last = runs[-1] if runs else None
        if last is not None and (last[0] is None if t_elem is None
                                 else last[0] == t_elem + 1):
            last[0] = t_elem
            last[1] += 1
        else:
            runs.append([t_elem, 1])
    mapped = [i for i, (t_elem, _) in enumerate(runs) if t_elem is not None]
    by_target = sorted(mapped, key=lambda i: -runs[i][0])
    out = flags.reshape([1 << runs[i][1] for i in by_target]).transpose(
        [by_target.index(i) for i in mapped]).reshape(-1)
    inner = 1  # entries of the runs already spread, per outer index
    for t_elem, size in reversed(runs):
        if t_elem is None:
            out = np.broadcast_to(out.reshape(-1, 1, inner),
                                  (out.size // inner, 1 << size, inner))
            out = out.reshape(-1)
        inner <<= size
    return pack(out)


def clique_minor_tangle(m: Matroid, cert: MinorCertificate, n: int) -> Tangle:
    """The order-ceil(2n/3) tangle induced by a clique(n+1) minor.

    cert must certify clique(n+1) as a minor of m.
    """
    if n < 2:
        raise DomainError("clique tangles need n >= 2")
    base = clique(n + 1)
    k = (2 * n + 2) // 3
    t = tangle_tk(base, k)
    if isinstance(t, TangleCheck):  # impossible for cliques with n >= 2
        raise PreconditionError(f"T_{k} of clique({n + 1}) failed axiom {t.axiom}")
    return induced_tangle(m, cert, t)
