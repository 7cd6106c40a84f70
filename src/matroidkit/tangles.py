"""Tangles: the T_k families, axiom checking, tangle matroids, and tangles
induced onto a host from a tangle on one of its minors.

A tangle of order theta is a family T of (theta-1)-separating sets such that
(1) every (theta-1)-separating set or its complement is in T, (2) no three
members cover the ground set, and (3) no complement of a single element is a
member. Members are "small"; any subset of a member that is itself
(theta-1)-separating is again a member (axioms 1+2), so a tangle is stored
by its maximal members plus that predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from ._bits import popcount, popcount_table, spread
from .core import Matroid, MinorCertificate, rank_table, validate_rank_axioms
from .connectivity import connectivity_mask
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


def _lambda_table(m: Matroid) -> tuple[np.ndarray, np.ndarray]:
    ranks = rank_table(m).astype(np.int16)
    lam = ranks + ranks[::-1] - int(m.full_rank())
    return lam, ranks


def _maximal_members(in_t: np.ndarray, n: int) -> tuple[int, ...]:
    members = np.nonzero(in_t)[0]
    out = []
    for x in members:
        x = int(x)
        if all((x >> e) & 1 or not in_t[x | (1 << e)] for e in range(n)):
            out.append(x)
    return tuple(out)


def _family_axioms(m: Matroid, in_fam: np.ndarray, theta: int,
                   lam: np.ndarray) -> tuple[TangleCheck, tuple[int, ...]]:
    """Check the three tangle axioms for a family given as a 2^n flag array,
    where lam is m's lambda table. Returns the verdict and, when it passes,
    the family's maximal members (else ())."""
    n = m.size
    full = m.full_mask
    sep = lam < theta - 1

    bad = in_fam & ~sep
    if bad.any():
        return TangleCheck(False, 1, (int(np.argmax(bad)),)), ()
    bad = sep & ~(in_fam | in_fam[::-1])
    if bad.any():
        return TangleCheck(False, 1, (int(np.argmax(bad)),)), ()

    for e in range(n):
        if in_fam[full ^ (1 << e)]:
            return TangleCheck(False, 3, (full ^ (1 << e),)), ()

    maximal = _maximal_members(in_fam, n)
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
    lam, _ = _lambda_table(m)  # refuses an oversized m before any flags
    if isinstance(family, Tangle):
        if family.matroid is not m:
            raise DomainError("tangle belongs to a different matroid")
        in_fam = _small_flags(family, lam)
    else:
        in_fam = np.zeros(1 << m.size, dtype=bool)
        for x in family:
            if x < 0 or x > m.full_mask:
                raise DomainError(f"member mask {x} outside the ground set")
            in_fam[x] = True
    return _family_axioms(m, in_fam, theta, lam)[0]


def tangle_tk(m: Matroid, k: int) -> Union[Tangle, TangleCheck]:
    """The family T_k(M): (k-1)-separating sets that neither span nor cospan.

    Returns the Tangle when the family satisfies the axioms, else the
    failing TangleCheck. (For M = clique(n+1) and k = ceil(2n/3) it is
    always a tangle; for arbitrary matroids T_k can fail.)
    """
    if k < 1:
        raise DomainError("tangle order must be positive")
    lam, ranks = _lambda_table(m)
    rm = int(m.full_rank())
    pc = popcount_table(m.size).astype(np.int16)
    # neither spanning (r(X) < r) nor cospanning (E-X must be dependent)
    dependent_rest = pc[::-1] > ranks[::-1]
    in_t = (lam < k - 1) & (ranks < rm) & dependent_rest
    verdict, maximal = _family_axioms(m, in_t, k, lam)
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
    lam, _ = _lambda_table(m)
    table = np.where(_small_flags(t, lam), lam, t.theta - 1).astype(np.uint8)
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
    if not cert.validate(m, target):
        raise DomainError("certificate does not carry the tangle's matroid")
    theta = t_n.theta
    lam, _ = _lambda_table(m)
    small_n = _small_flags(t_n, _lambda_table(target)[0])
    weight = [0] * m.size  # host element h carries target bit weight[h]
    for t_elem, h_elem in cert.mapping:
        weight[h_elem] = 1 << t_elem
    # the target mask of every host subset's trace X meet E(N)
    in_t = (lam < theta - 1) & small_n[spread(0, weight)]
    verdict, maximal = _family_axioms(m, in_t, theta, lam)
    if not verdict.ok:
        raise PreconditionError(
            f"induced family violates tangle axiom {verdict.axiom}; "
            "the given family was not a tangle")
    return Tangle(m, theta, maximal)


def _small_flags(t: Tangle, lam: np.ndarray) -> np.ndarray:
    """Membership of every subset of t's ground set, as a 2^n flag array,
    where lam is t.matroid's lambda table."""
    n = t.matroid.size
    under = np.zeros(1 << n, dtype=bool)
    under[list(t.maximal)] = True
    for e in range(n):  # close downward: a set is under a member if X + e is
        v = under.reshape(-1, 2, 1 << e)
        v[:, 0, :] |= v[:, 1, :]
    return (lam < t.theta - 1) & under


def clique_minor_tangle(m: Matroid, cert: MinorCertificate, n: int) -> Tangle:
    """The order-ceil(2n/3) tangle induced by a clique(n+1) minor.

    cert must certify clique(n+1) as a minor of m.
    """
    from .constructions import clique

    if n < 2:
        raise DomainError("clique tangles need n >= 2")
    base = clique(n + 1)
    k = (2 * n + 2) // 3
    t = tangle_tk(base, k)
    if isinstance(t, TangleCheck):  # impossible for cliques with n >= 2
        raise PreconditionError(f"T_{k} of clique({n + 1}) failed axiom {t.axiom}")
    return induced_tangle(m, cert, t)
