"""Exhaustive minor containment with certificates, graphic recognition,
extension classification, and spike splitting witnesses.

The minor search is complete within an explicit size cap, and graphic
recognition within the rank table's; each raises a resource error beyond
it, and neither returns a silently wrong negative. A negative is decided
by class before any search when the host is a graph, or a GF(2) or GF(3)
representation: every minor of the host is then graphic, or
GF(q)-representable, and a target that is not has no certificate to find.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ._bits import bits, elements_of, mask_of, spread
from .core import (
    Matroid,
    MinorCertificate,
    _point_classes,
    check_table_size,
    closed_flags,
    epsilon,
    lambda_table,
    minor_with_map,
    rank_reader,
    rank_table,
    same_rank_function,
    validate_certificate,
)
from .errors import DomainError, PreconditionError, ResourceLimitError
from .isomorphism import find_embedding
from .representations import GraphRep, standard_rep
from .constructions import (_spike, clique, fano, free_ext_clique, square_ext,
                            triangle_ext, uniform, whirl)

MINOR_SIZE_CAP = 24


# ---------------------------------------------------------------------------
# minor containment


def has_minor(m: Matroid, target: Matroid) -> Optional[MinorCertificate]:
    """Search for a minor of m isomorphic to target; certificate or None.

    Complete: every minor is m / C restricted to a subset for some
    independent C of size r(m) - r(target), and swapping parallel elements
    of C is an isomorphism, so C runs over parallel-class representatives.
    The restriction is then found by embedding the target's simplification
    into that of m / C with parallel-class capacities and loops respected.

    A negative is decided by class first, reading only the target: a
    graph host has only graphic minors, and a GF(q) host (q = 2, 3; a
    GF(q) matrix, a decorated graph through its matrix, or the dual of a
    represented matroid through the dual's matrix, so a cographic host is
    binary) only GF(q)-representable ones, so the answer is None when the
    target's simplification is not graphic, or has no [I | A] over GF(q)
    (see standard_rep). The class test is skipped when it cannot say no:
    for a graph target, for a target represented over m's field, for any
    other host, and for a simplification over TABLE_CAP elements.

    m's ranks, and the target's, are read from the rank table when it is
    cached or the provenance builds it, else from the oracle; a simple
    target is its own simplification. Every certificate is
    checked against m's own oracle before it is returned, in the oracle's
    batch form when it has one, never through m's table or provenance (see
    validate_certificate), and one that fails raises RuntimeError; a found
    certificate whose target has more than TABLE_CAP elements raises
    ResourceLimitError instead. A host over MINOR_SIZE_CAP elements raises
    ResourceLimitError before the search starts.
    """
    if m.size > MINOR_SIZE_CAP:
        raise ResourceLimitError(f"minor search over {m.size} elements "
                                 f"exceeds cap {MINOR_SIZE_CAP}")
    r = rank_reader(m)
    dr = r(m.full_mask) - target.full_rank()
    if dr < 0 or target.size > m.size - dr:
        return None

    t_classes, t_loops = _point_classes(rank_reader(target), 0,
                                        range(target.size))
    t_si = target
    if len(t_classes) < target.size:
        t_reps = {c[0] for c in t_classes}
        t_si, _ = minor_with_map(
            target, (), [e for e in range(target.size) if e not in t_reps])
    if _outside_host_class(m, target, t_si):
        return None

    reps = [c[0] for c in _point_classes(r, 0, range(m.size))[0]]
    for combo in itertools.combinations(reps, dr):
        cmask = mask_of(combo)
        if r(cmask) != dr:
            continue
        cert = _embed_restriction(m, r, cmask, t_si, t_classes, t_loops)
        if cert is not None:
            if not validate_certificate(cert, m, target):
                raise RuntimeError("minor search built an invalid certificate")
            return cert
    return None


def _outside_host_class(m: Matroid, target: Matroid, t_si: Matroid) -> bool:
    """True when t_si, the target's simplification, lies outside a
    minor-closed class that m is in; False when the class cannot tell."""
    host, rep = m.provenance, target.provenance
    if isinstance(rep, GraphRep):  # graphic matroids are regular
        return False
    try:
        if isinstance(host, GraphRep):
            return is_graphic(t_si) is None
        q = _field(host)
        if q not in (2, 3) or _field(rep) == q:
            return False
        return standard_rep(rank_table(t_si), q) is None
    except ResourceLimitError:
        return False


def _field(rep) -> Optional[int]:
    """The prime of the GF(p) matrix a provenance gives through to_linear:
    a matrix's own, a graph's or decorated graph's, or, for the dual of
    any of these, the dual's (Recipe.to_linear). None for other recipes
    and for no provenance."""
    rep = rep.to_linear() if hasattr(rep, "to_linear") else None
    return None if rep is None else rep.prime


def _embed_restriction(m, r, cmask, t_si, t_classes, t_loops):
    """Certificate that the target is a restriction of m / cmask, or None.

    The classes and loops of m / cmask are read through r in m's labels,
    so a contraction set that fails the count tests builds no minor. One
    that passes builds m / cmask restricted to its class representatives,
    whose element i stands for the i-th class; when nothing is contracted
    and every class is a single element, that is m itself.
    """
    rest = [e for e in range(m.size) if not (cmask >> e) & 1]
    classes, loops = _point_classes(r, cmask, rest)
    if len(classes) < len(t_classes) or len(loops) < len(t_loops):
        return None
    candidates = [[h for h, cls in enumerate(classes) if len(cls) >= len(tc)]
                  for tc in t_classes]
    if any(not c for c in candidates):
        return None
    si = m
    if cmask or len(classes) < len(rest):
        reps = {cls[0] for cls in classes}
        si, _ = minor_with_map(m, elements_of(cmask),
                               [e for e in rest if e not in reps])
    phi = find_embedding(si, t_si, candidates=candidates)
    if phi is None:
        return None

    # expand the point-level embedding to every target element
    mapping = list(zip(t_loops, loops))
    for t_idx, h_idx in phi.items():
        mapping.extend(zip(t_classes[t_idx], classes[h_idx]))
    image = mask_of(h for _, h in mapping)
    deleted = m.full_mask & ~image & ~cmask
    return MinorCertificate(frozenset(elements_of(cmask)),
                            frozenset(elements_of(deleted)),
                            tuple(sorted(mapping)))


def find_clique_minor(m: Matroid, n: int) -> Optional[MinorCertificate]:
    """Certificate for a minor isomorphic to clique(n + 1), or None."""
    if n < 2:
        raise DomainError("clique minors need n >= 2")
    return has_minor(m, clique(n + 1))


# ---------------------------------------------------------------------------
# graphic recognition


def is_graphic(m: Matroid) -> Optional[GraphRep]:
    """A graph realizing m (edge i is element i), or None.

    The graph is read off m's rank table, so a matroid over TABLE_CAP
    elements raises ResourceLimitError before any work. m's points are
    counted first (through rank_reader), and more points than a clique of
    m's rank has edges answer None before the table is built. m splits at
    1- and 2-separations found on the table's lambda values, the vertices
    of each 3-connected part are its non-separating cocircuits, and the
    parts' graphs are glued back at a vertex or along the 2-sum's marker
    edge.
    The result is connected on r(M) + 1 vertices, and it is checked by
    exhaustive rank agreement before returning, which also turns away
    every non-binary m.
    """
    check_table_size(m.size)
    rank = rank_reader(m)
    r = rank(m.full_mask)
    classes, _ = _point_classes(rank, 0, range(m.size))
    # simple rank-r graphic matroids top out at a clique
    if len(classes) > r * (r + 1) // 2:
        return None
    edges = _realize(rank_table(m))
    if edges is None:
        return None
    rep = GraphRep(r + 1, tuple(edges))
    if not same_rank_function(m, rep.matroid()):
        return None
    return rep


def _realize(t: np.ndarray) -> Optional[list[tuple[int, int]]]:
    """Edges of a connected graph on r + 1 vertices whose cycle matroid
    has rank table t (element i is edge i), or None when there is none."""
    k = t.size.bit_length() - 1
    r = int(t[-1])
    full = t.size - 1
    if k <= 1:
        return [(0, r)] * k  # a loop or an edge
    lam = lambda_table(t)
    a = int(np.argmax(lam[1:-1] == 0)) + 1
    marked = lam[a] != 0  # no 1-separation
    if marked:
        if k <= 3:  # connected: U(1,2), U(1,3) or U(2,3)
            return [(0, 1)] * k if r == 1 else [(0, 1), (1, 2), (0, 2)]
        two = lam == 1
        for e in range(k):  # each element and its complement has lambda 1
            two[1 << e] = two[full ^ 1 << e] = False
        a = int(np.argmax(two))
        if not two[a]:
            return _stars(t, k, r)
    # the sides' graphs meet at one vertex, or for a 2-sum along the ends
    # of the marker edge that each side gains, which is then dropped
    b = full ^ a
    ga, gb = _realize(_side(t, a, b, marked)), _realize(_side(t, b, a, marked))
    if ga is None or gb is None:
        return None
    label = dict(zip(gb.pop(), ga.pop())) if marked else {0: 0}
    fresh = itertools.count(int(t[a]) + 1)
    label.update((v, next(fresh)) for v in range(int(t[b]) + 1)
                 if v not in label)
    edges = dict(zip(bits(a), ga))
    edges.update((e, (label[u], label[v])) for e, (u, v) in zip(bits(b), gb))
    return [edges[e] for e in range(k)]


def _side(t: np.ndarray, a: int, b: int, marked: bool) -> np.ndarray:
    """Rank table of the restriction to a, plus, when marked, the 2-sum
    marker p as its last element: r(Y + p) = r(Y + b) - r(b) + 1."""
    wa = [1 << e for e in bits(a)]
    side = t[spread(0, wa)]
    if not marked:
        return side
    return np.concatenate([side, t[spread(b, wa)] - (int(t[b]) - 1)])


def _stars(t: np.ndarray, k: int, r: int) -> Optional[list[tuple[int, int]]]:
    """Edges of a 3-connected part, or None.

    In a 3-connected graph the vertex stars are exactly the cocircuits D
    whose complement M | (E - D) is connected (Tutte 1963): G - v stays
    2-connected, and any other bond leaves an edge on both sides. So the
    part is graphic only when it has r + 1 such cocircuits and every
    element lies in two; the elements then join the cocircuits that
    contain them.
    """
    hyper = np.flatnonzero(closed_flags(t) & (t == r - 1))
    for e in range(k):  # drop H when e in H is a coloop of M|H
        hyper = hyper[t[hyper ^ 1 << e] >= r - 1]
    stars = []
    for h in hyper.tolist():
        low = h & -h
        ys = spread(low, [1 << e for e in bits(h ^ low)])[:-1]
        if not np.any(t[ys] + t[h ^ ys] == r - 1):  # M|H is connected
            stars.append(t.size - 1 ^ h)
            if len(stars) > r + 1:
                return None
    ends = [tuple(i for i, d in enumerate(stars) if d >> e & 1)
            for e in range(k)]
    if len(stars) != r + 1 or any(len(uv) != 2 for uv in ends):
        return None
    return ends


# ---------------------------------------------------------------------------
# clique extensions


@dataclass(frozen=True)
class ExtensionClass:
    """Outcome of the one-element dichotomy over a clique.

    reason is one of loop / coloop / parallel / none-of-these; the
    extension is graphic exactly when the reason is not none-of-these.
    """

    graphic: bool
    reason: str
    witness: Optional[int] = None


def classify_clique_extension(m: Matroid, e: int) -> ExtensionClass:
    """Classify element e added to a clique: the result is graphic iff e is
    a loop, a coloop, or parallel to an existing element.

    Raises DomainError when deleting e does not leave a clique.
    """
    if not 0 <= e < m.size:
        raise DomainError(f"element {e} out of range")
    try:
        _clique_realization(m, e)
    except PreconditionError as exc:
        raise DomainError(str(exc)) from exc
    base = m.full_mask & ~(1 << e)
    bit = 1 << e
    if m.r(bit) == 0:
        return ExtensionClass(True, "loop")
    if m.r(base) < m.full_rank():
        return ExtensionClass(True, "coloop")
    for f in bits(base):  # the base is certified simple
        if m.r(bit | (1 << f)) == 1:
            return ExtensionClass(True, "parallel", witness=f)
    return ExtensionClass(False, "none-of-these")


def _clique_realization(m: Matroid, e: int, cmask: int = 0,
                        kmask: Optional[int] = None) -> tuple[int, list]:
    """Vertex labels that make the view (m / C) | K minus e the cycle
    matroid of K_k, read in m's labels.

    C = cmask and K = kmask (all of E(m) by default) are disjoint masks,
    and every rank is read as r(C + X) - r(C) for X within K, so no minor
    is built. Returns (k, pairs), where pairs[x] is the vertex pair
    (u, v), u < v, of base element x, and None for e and outside K. Raises
    PreconditionError when the base is not a clique. Costs O(k n^2) rank
    queries for n base elements.

    The labels are read off parallel classes: contracting the edge uv of
    K_k makes ux parallel to vx for every other vertex x, and no other two
    edges parallel (M(G) / e = M(G / e); Oxley, Matroid Theory, 2nd ed.,
    ch. 3). So the 2-element classes of m / e0, e0 the least base element,
    hold the edges at e0's ends, and the least of them, g0, shares vertex 0
    with e0 = (0, 1). The other edges at 0 are those with a partner in
    m / g0 too, less g0's partner in m / e0, which closes their triangle;
    in element order they are (0, 2), (0, 3), ... In m / s, for each of
    these s = (0, w), the edge at 0 with far end v is parallel to (v, w).

    The checks made on the way are a complete certificate: every element
    has rank 1 and every pair rank 2 (one class pass on the base), the
    pairs are the C(k, 2) distinct edges of K_k, every triangle of the
    labelling has rank 2, and r(base) = k - 1. Then any two edges of a
    triangle span the third, so each edge uv lies in the closure of every
    u-v path, one triangle at a time. Every spanning tree therefore spans
    the base, and having k - 1 elements it is a basis. So every forest is
    independent, as it extends to a spanning tree, and every cycle is
    dependent, as each of its edges lies in the closure of the rest: the
    independent sets are exactly the forests, and the base is M(K_k).
    """
    base_mask = (m.full_mask if kmask is None else kmask) & ~(1 << e)
    els = elements_of(base_mask)
    ne = len(els)
    rc = m.r(cmask)
    r = m.r(cmask | base_mask) - rc
    k = r + 1
    if ne != k * (k - 1) // 2:
        raise PreconditionError(
            f"base has {ne} elements but rank {r}; not a clique")
    classes, loops = _point_classes(m.r, cmask, els)
    if loops or len(classes) != ne:
        raise PreconditionError("base is not simple")
    if r < 2:  # K1 has no edge and K2 one
        return k, [(0, 1) if base_mask >> x & 1 else None
                   for x in range(m.size)]

    def partners(c: int) -> dict[int, int]:
        """Each base element paired in m / (C + c), to its partner."""
        rest = [x for x in els if x != c]
        return {x: y for cls in _point_classes(m.r, cmask | 1 << c, rest)[0]
                if len(cls) == 2 for x, y in (cls, cls[::-1])}

    e0 = els[0]
    near_e0 = partners(e0)
    if len(near_e0) != 2 * (k - 2):
        raise PreconditionError("base is not a clique: wrong edge degree")
    g0 = min(near_e0)
    near_g0 = partners(g0)
    star = [x for x in sorted(near_e0) if x == g0
            or x in near_g0 and x != near_e0[g0]]
    if len(star) != k - 2:
        raise PreconditionError("base is not a clique: bad star split")
    far = {e0: 1} | {s: w for w, s in enumerate(star, start=2)}
    pairs: list = [None] * m.size
    for x, v in far.items():
        pairs[x] = (0, v)
    for s in star:
        for x, y in (near_g0 if s == g0 else partners(s)).items():
            if x in far:
                pairs[y] = tuple(sorted((far[x], far[s])))
    if len({pairs[x] for x in els} - {None}) != ne:
        raise PreconditionError("base is not a clique: edge labels collide")
    edge_of = {pairs[x]: x for x in els}
    for u, v, w in itertools.combinations(range(k), 3):
        tri = mask_of(edge_of[t] for t in ((u, v), (u, w), (v, w)))
        if m.r(cmask | tri) != rc + 2:
            raise PreconditionError("base is not a clique: open triangle")
    return k, pairs


# ---------------------------------------------------------------------------
# spike splitting


def spike_split_witness(m: Matroid, spike_elements: Iterable[int], e: int
                        ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two spike restrictions of m / e whose union is E(S) - {e}.

    S = m restricted to spike_elements must be a spike, and e a nonloop
    that is neither a tip of S nor parallel to one. Returns the two element
    sets in m's labels, or None when no pair of spike restrictions covers.
    Every candidate is read in m's labels through one rank_reader of m, so
    no minor is built and a cached or built rank table answers every read.
    """
    smask = m.mask(spike_elements)
    bit = m.mask((e,))
    r = rank_reader(m)
    decomp = _spike(r, 0, elements_of(smask))
    if decomp is None:
        raise PreconditionError("the given set is not a spike restriction")
    if r(bit) == 0:
        raise PreconditionError("e is a loop")
    if e in decomp.tips:
        raise PreconditionError("e is a tip of the spike")
    for t in decomp.tips:
        if r(bit | (1 << t)) == 1:
            raise PreconditionError("e is parallel to a tip of the spike")

    goal = smask & ~bit
    # spikes have rank >= 3 and hence at least 7 elements
    pool = elements_of(goal)
    found: list[int] = []
    for size in range(len(pool), 6, -1):
        for sub in itertools.combinations(pool, size):
            if _spike(r, bit, sub) is not None:
                found.append(mask_of(sub))
    for i, s1 in enumerate(found):
        for s2 in found[i:]:
            if s1 | s2 == goal:
                return elements_of(s1), elements_of(s2)
    return None


# ---------------------------------------------------------------------------
# membership witnesses


@dataclass(frozen=True)
class MembershipRecord:
    claim: str
    host: str
    target: str
    ok: bool
    certificate: Optional[MinorCertificate] = None


def membership_suite(name: str) -> list[MembershipRecord]:
    """Certified minor memberships witnessing one extension family.

    name is square-family, triangle-family, or circle-family. Each record
    pins a specific matroid inside a specific family member.
    """
    if name == "square-family":
        checks = [
            ("the rank-3 binary projective plane is the member on 4 vertices",
             square_ext, fano(), 4, 4),
            ("the rank-3 binary projective plane embeds in the member on "
             "5 vertices", square_ext, fano(), 5, 5),
        ]
    elif name == "triangle-family":
        checks = [
            ("the 4-point line is the member on 3 vertices",
             triangle_ext, uniform(2, 4), 3, 3),
            ("the rank-3 whirl embeds in a member on at most 6 vertices",
             triangle_ext, whirl(3), 4, 6),
        ]
    elif name == "circle-family":
        checks = [
            ("the 5-point rank-3 uniform matroid embeds in a member on at "
             "most 6 vertices", free_ext_clique, uniform(3, 5), 4, 6),
            ("the 6-point rank-3 uniform matroid (the tipless free spike) "
             "embeds in a member on at most 6 vertices",
             free_ext_clique, uniform(3, 6), 4, 6),
        ]
    else:
        raise DomainError(f"unknown membership suite {name!r}")

    out = []
    for claim, family, target, lo, hi in checks:
        for host in map(family, range(lo, hi + 1)):  # the first that has it
            if (cert := has_minor(host, target)) is not None:
                out.append(MembershipRecord(claim, host.name, target.name,
                                            True, cert))
                break
        else:
            out.append(MembershipRecord(claim, "(none found)", target.name,
                                        False))
    return out


# ---------------------------------------------------------------------------
# density bound


@dataclass(frozen=True)
class KungReport:
    line_bound: int          # l: no rank-2 uniform minor on l+2 elements
    rank: int
    epsilon: int
    bound: int               # (l^r - 1) / (l - 1)
    holds: bool
    tight: bool


def kung_bound_check(m: Matroid, line_bound: int,
                     check_minor: bool = False) -> KungReport:
    """Point-count bound epsilon(M) <= (l^r - 1)/(l - 1) for matroids with
    no (l+2)-point line minor.

    The precondition is caller-asserted unless check_minor=True, which runs
    the minor search and raises PreconditionError on violation.
    """
    if line_bound < 2:
        raise DomainError("line bound must be >= 2")
    if check_minor and has_minor(m, uniform(2, line_bound + 2)) is not None:
        raise PreconditionError(
            f"matroid has a U(2,{line_bound + 2}) minor; bound does not apply")
    r = m.full_rank()
    bound = (line_bound ** r - 1) // (line_bound - 1)
    eps = epsilon(m)
    return KungReport(line_bound, r, eps, bound, eps <= bound, eps == bound)
