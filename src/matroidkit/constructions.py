"""Named matroid families and rank-oracle transformers.

Families with natural matrix or graph representations get concrete backing
(so their minors stay concrete); genuinely oracle-shaped families (uniform,
whirl, truncations, extensions) carry recipe provenance instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ._bits import elements_of, mask_of, popcount
from .core import (
    Matroid,
    Recipe,
    _point_classes,
    check_size,
    closure_mask,
    contract,
    rank_reader,
)
from .errors import DomainError, PreconditionError
from .representations import (
    EvenCycleRep,
    GraphRep,
    SignedGraphRep,
    from_graph,
    from_matrix,
)


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


# ---------------------------------------------------------------------------
# plain families


def clique(n: int) -> Matroid:
    """Cycle matroid of the complete graph on n vertices (rank n-1)."""
    if n < 1:
        raise DomainError("clique needs n >= 1")
    check_size(n * (n - 1) // 2)
    return from_graph(n, _pairs(n), name=f"clique({n})")


def biclique(m: int, n: int) -> Matroid:
    """Cycle matroid of the complete bipartite graph K(m, n)."""
    if m < 1 or n < 1:
        raise DomainError("biclique needs m, n >= 1")
    check_size(m * n)
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return from_graph(m + n, edges, name=f"biclique({m},{n})")


def uniform(r: int, n: int) -> Matroid:
    if not 0 <= r <= n:
        raise DomainError("uniform needs 0 <= r <= n")

    def rank_mask(mask: int) -> int:
        return min(popcount(mask), r)

    return Matroid(n, rank_mask, provenance=Recipe("uniform", params={"r": r, "n": n}),
                   name=f"uniform({r},{n})")


def whirl(r: int) -> Matroid:
    """Relax the rim of a rank-r wheel: the rim circuit becomes independent.

    Elements 0..r-1 are spokes, r..2r-1 the rim.
    """
    if r < 2:
        raise DomainError("whirl needs r >= 2")
    check_size(2 * r)
    wheel = _wheel(r).matroid()
    rim_mask = ((1 << r) - 1) << r

    def rank_mask(mask: int) -> int:
        return wheel.r(mask) + (1 if mask == rim_mask else 0)

    return Matroid(2 * r, rank_mask, provenance=Recipe("whirl", params={"r": r}),
                   name=f"whirl({r})")


def _wheel(r: int) -> GraphRep:
    """Rank-r wheel: spokes 0..r-1 from the hub 0, then the rim r..2r-1."""
    hub_edges = [(0, i + 1) for i in range(r)]
    rim_edges = [(i + 1, (i + 1) % r + 1) for i in range(r)]
    return GraphRep(r + 1, tuple(hub_edges + rim_edges))


def pg32() -> Matroid:
    """Rank-4 binary projective geometry: all 15 nonzero GF(2)^4 columns."""
    rows = [[(k >> i) & 1 for k in range(1, 16)] for i in range(4)]
    return from_matrix(rows, 2, name="pg32")


def fano() -> Matroid:
    """Rank-3 binary projective plane (all 7 nonzero GF(2)^3 columns)."""
    rows = [[(k >> i) & 1 for k in range(1, 8)] for i in range(3)]
    return from_matrix(rows, 2, name="fano")


# ---------------------------------------------------------------------------
# clique extensions


def square_ext(n: int) -> Matroid:
    """Binary clique extension: incidence columns of K_n plus one column
    charging four vertices. Elements follow the lexicographic edge order;
    the extension point is last.
    """
    if n < 4:
        raise DomainError("square_ext needs n >= 4")
    check_size(n * (n - 1) // 2 + 1)
    cols = []
    for i, j in _pairs(n):
        col = [0] * n
        col[i] = col[j] = 1
        cols.append(col)
    v = [0] * n
    v[0] = v[1] = v[2] = v[3] = 1
    cols.append(v)
    rows = [[col[i] for col in cols] for i in range(n)]
    return from_matrix(rows, 2, name=f"square_ext({n})")


def triangle_ext(n: int) -> Matroid:
    """Ternary clique extension: a point placed freely on one triangle.

    Canonical matrix form: reduced signed incidence of K_n over GF(3)
    (star columns are units, cross columns b_i - b_j) plus the column
    b_1 + b_2, which lies on the triangle {01, 02, 12}. Extension point
    is last. Cross-checked against the principal-extension oracle in tests.
    """
    if n < 3:
        raise DomainError("triangle_ext needs n >= 3")
    check_size(n * (n - 1) // 2 + 1)
    nr = n - 1
    cols = []
    for i, j in _pairs(n):
        col = [0] * nr
        if i == 0:
            col[j - 1] = 1
        else:
            col[i - 1] = 1
            col[j - 1] = 2  # -1 mod 3
        cols.append(col)
    w = [0] * nr
    w[0] = w[1] = 1
    cols.append(w)
    rows = [[col[i] for col in cols] for i in range(nr)]
    return from_matrix(rows, 3, name=f"triangle_ext({n})")


def free_ext_clique(n: int) -> Matroid:
    """Free extension of clique(n); the new point is last."""
    if n < 1:
        raise DomainError("free_ext_clique needs n >= 1")
    m = free_extension(clique(n))
    m.name = f"free_ext_clique({n})"
    return m


def n_square(n: int) -> Matroid:
    """Contract the extension point of square_ext(n+2). Rank n."""
    if n < 2:
        raise DomainError("n_square needs n >= 2")
    base = square_ext(n + 2)
    m = contract(base, [base.size - 1])
    m.name = f"n_square({n})"
    return m


def n_triangle(n: int) -> Matroid:
    """Contract the extension point of triangle_ext(n+2). Rank n."""
    if n < 1:
        raise DomainError("n_triangle needs n >= 1")
    base = triangle_ext(n + 2)
    m = contract(base, [base.size - 1])
    m.name = f"n_triangle({n})"
    return m


def n_square_even_cycle_rep(n: int) -> EvenCycleRep:
    """Even-cycle representation of si(n_square(n)).

    A clique on n vertices plus an odd part: one loop and a doubled edge
    for every pair meeting {0, 1}. Vertices 0 and 1 form a blocking pair.
    """
    if n < 2:
        raise DomainError("needs n >= 2")
    edges = list(_pairs(n))
    w_start = len(edges)
    edges.append((0, 0))
    edges.extend((0, x) for x in range(1, n))
    edges.extend((1, x) for x in range(2, n))
    odd = range(w_start, len(edges))
    return EvenCycleRep(n, tuple(edges), frozenset(odd))


def n_triangle_signed_rep(n: int) -> SignedGraphRep:
    """Signed-graph representation of si(n_triangle(n)).

    An odd loop at every vertex, a clique on n vertices, and odd doubled
    edges at vertex 0 only, matching the one-covering-vertex form.
    """
    if n < 1:
        raise DomainError("needs n >= 1")
    edges = [(j, j) for j in range(n)]
    edges.extend(_pairs(n))
    w_edges = [(0, x) for x in range(1, n)]
    odd = list(range(n)) + list(range(len(edges), len(edges) + len(w_edges)))
    edges.extend(w_edges)
    return SignedGraphRep(n, tuple(edges), frozenset(odd))


# ---------------------------------------------------------------------------
# transformers


def truncation(m: Matroid) -> Matroid:
    """Cap ranks at r(M) - 1."""
    r = m.full_rank()
    if r == 0:
        raise DomainError("cannot truncate a rank-0 matroid")
    target = r - 1

    def rank_mask(mask: int) -> int:
        return min(m.r(mask), target)

    return Matroid(m.size, rank_mask, provenance=Recipe("truncation", args=(m,)),
                   name=f"truncation({m.name})" if m.name else "")


def free_extension(m: Matroid) -> Matroid:
    """Add one element as freely as possible: r(X + e) = min(r(X) + 1, r(M)).

    The new element has index |E(M)|.
    """
    bit = 1 << m.size
    rm = m.full_rank()

    def rank_mask(mask: int) -> int:
        if mask & bit:
            return min(m.r(mask ^ bit) + 1, rm)
        return m.r(mask)

    return Matroid(m.size + 1, rank_mask,
                   provenance=Recipe("free-extension", args=(m,)))


def principal_extension(m: Matroid, flat: Iterable[int]) -> Matroid:
    """Add one element freely on a flat: r(X + e) = min(r(X) + 1, r(X | F)).

    Raises PreconditionError if the given set is not a flat. The new
    element has index |E(M)|.
    """
    fmask = m.mask(flat)
    if closure_mask(m, fmask) != fmask:
        raise PreconditionError(f"{sorted(elements_of(fmask))} is not a flat")
    bit = 1 << m.size

    def rank_mask(mask: int) -> int:
        if mask & bit:
            base = mask ^ bit
            return min(m.r(base) + 1, m.r(base | fmask))
        return m.r(mask)

    return Matroid(m.size + 1, rank_mask,
                   provenance=Recipe("principal-extension", args=(m,),
                                     params={"flat": elements_of(fmask)}))


# ---------------------------------------------------------------------------
# spikes


@dataclass(frozen=True)
class SpikeDecomposition:
    """Witnesses the spike structure: a tip parallel class T and leg pairs.

    Leg pair i spans a rank-2 flat with T; firsts and seconds each form a
    circuit after contracting T. rank == number of leg pairs.
    """

    tips: tuple[int, ...]
    legs: tuple[tuple[int, int], ...]
    rank: int


def spike(r: int) -> Matroid:
    """Free rank-r spike with a single tip.

    Truncation of the cycle matroid of K(2, r) plus the cross edge joining
    the degree-r vertices; that edge survives as the tip (element 0), and
    legs are the pairs (2i+1, 2i+2).
    """
    if r < 3:
        raise DomainError("spike needs rank >= 3")
    check_size(2 * r + 1)
    edges = [(0, 1)]
    for i in range(r):
        edges.append((0, 2 + i))
        edges.append((1, 2 + i))
    m = truncation(from_graph(r + 2, edges))
    m.name = f"spike({r})"
    return m


def is_spike(m: Matroid) -> Optional[SpikeDecomposition]:
    """Search for a spike decomposition; None if the matroid is not a spike.

    Reads m in m's labels, from its rank table when one is cached, else
    through m.r: the search makes O(n^2) reads, so building the 2^n table
    for it would cost more than it saves. Tries every parallel class as the
    tip set T and pairs the rest by the rank-2 flats through T; the firsts
    of the pairs must then be a circuit of M/T.
    """
    r = m.r if m._table is None else rank_reader(m)
    return _spike(r, 0, range(m.size))


def _spike(r: Callable[[int], int], cmask: int, elements: Iterable[int]
           ) -> Optional[SpikeDecomposition]:
    """A spike decomposition of (M / cmask) | elements (ascending) in M's
    labels, where r reads M's ranks, or None."""
    classes, loops = _point_classes(r, cmask, elements)
    if loops:
        return None
    rank = r(cmask | mask_of(itertools.chain(*classes))) - r(cmask)
    for t_idx, tip_class in enumerate(classes):
        if any(len(c) != 1 for i, c in enumerate(classes) if i != t_idx):
            continue  # legs must induce a simple restriction
        ct = cmask | mask_of(tip_class)
        rest = [c[0] for i, c in enumerate(classes) if i != t_idx]
        lines: dict[int, list[int]] = {}
        for e in rest:
            # the elements off T on the line through T + e
            cte = ct | 1 << e
            rl = r(cte)
            line = mask_of(f for f in rest if r(cte | 1 << f) == rl)
            lines.setdefault(line, []).append(e)
        pairs = [tuple(members) for line, members in sorted(lines.items())
                 if len(members) == popcount(line) == 2]
        if not 0 < len(pairs) == len(lines) == rank:
            continue
        # the legs of a pair are parallel in M/T, which has rank k - 1, so
        # every transversal is a circuit of M/T exactly when the firsts are:
        # when each k - 1 of them are independent there
        xs, rt = mask_of(x for x, _ in pairs), r(ct)
        if all(r((xs ^ 1 << x) | ct) - rt == rank - 1 for x, _ in pairs):
            return SpikeDecomposition(tip_class, tuple(pairs), rank)
    return None
