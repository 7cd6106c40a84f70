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
    lambda_table,
    minor_with_map,
    rank_reader,
    rank_table,
    same_rank_function,
)
from .errors import DomainError, PreconditionError, ResourceLimitError
from .isomorphism import find_embedding
from .representations import GraphRep, LinearRep, standard_rep
from .constructions import _spike, clique, uniform

MINOR_SIZE_CAP = 24


# ---------------------------------------------------------------------------
# minor containment


def has_minor(m: Matroid, target: Matroid, *, validate: bool = True
              ) -> Optional[MinorCertificate]:
    """Search for a minor of m isomorphic to target; certificate or None.

    Complete: every minor is m / C restricted to a subset for some
    independent C of size r(m) - r(target), and swapping parallel elements
    of C is an isomorphism, so C runs over parallel-class representatives.
    The restriction is then found by embedding the target's simplification
    into that of m / C with parallel-class capacities and loops respected.

    A negative is decided by class first, reading only the target: a
    graph host has only graphic minors, and a GF(q) host (q = 2, 3; a
    GF(q) matrix, or a decorated graph through its matrix) only
    GF(q)-representable ones, so the answer is None when the target's
    simplification is not graphic, or has no [I | A] over GF(q) (see
    standard_rep). The class test is skipped when it cannot say no: for a
    graph target, for a target represented over m's field, for any other
    host, and for a simplification over TABLE_CAP elements.

    m's ranks are read from its rank table when it is cached or m's
    provenance builds it, else from m's oracle. With validate, every
    certificate is checked against m's own oracle before it is returned;
    a found certificate whose target has more than TABLE_CAP elements
    raises ResourceLimitError instead. A host over MINOR_SIZE_CAP elements
    raises ResourceLimitError before the search starts.
    """
    if m.size > MINOR_SIZE_CAP:
        raise ResourceLimitError(f"minor search over {m.size} elements "
                                 f"exceeds cap {MINOR_SIZE_CAP}")
    r = rank_reader(m)
    dr = r(m.full_mask) - target.full_rank()
    if dr < 0 or target.size > m.size - dr:
        return None

    t_classes, t_loops = _point_classes(target.r, 0, range(target.size))
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
            if validate and not cert.validate(m, target):
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
    """The prime of a GF(p) representation, directly or through
    to_linear, else None."""
    if not isinstance(rep, LinearRep) and hasattr(rep, "to_linear"):
        rep = rep.to_linear()
    return rep.prime if isinstance(rep, LinearRep) else None


def _embed_restriction(m, r, cmask, t_si, t_classes, t_loops):
    """Certificate that the target is a restriction of m / cmask, or None.

    The classes and loops of m / cmask are read through r in m's labels,
    so a contraction set that fails the count tests builds no minor. One
    that passes builds m / cmask restricted to its class representatives,
    whose element i stands for the i-th class.
    """
    rest = [e for e in range(m.size) if not (cmask >> e) & 1]
    classes, loops = _point_classes(r, cmask, rest)
    if len(classes) < len(t_classes) or len(loops) < len(t_loops):
        return None
    candidates = [[h for h, cls in enumerate(classes) if len(cls) >= len(tc)]
                  for tc in t_classes]
    if any(not c for c in candidates):
        return None
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


def classify_clique_extension(m: Matroid, e: int,
                              *, check_base: bool = True) -> ExtensionClass:
    """Classify element e added to a clique: the result is graphic iff e is
    a loop, a coloop, or parallel to an existing element.

    check_base verifies that deleting e really leaves a clique, and raises
    DomainError when it does not.
    """
    if not 0 <= e < m.size:
        raise DomainError(f"element {e} out of range")
    base = m.full_mask & ~(1 << e)
    if check_base:
        try:
            _clique_realization(m, e)
        except PreconditionError as exc:
            raise DomainError(str(exc)) from exc
    bit = 1 << e
    if m.r(bit) == 0:
        return ExtensionClass(True, "loop")
    if m.r(base) < m.full_rank():
        return ExtensionClass(True, "coloop")
    for f in bits(base):
        if m.r(1 << f) == 1 and m.r(bit | (1 << f)) == 1:
            return ExtensionClass(True, "parallel", witness=f)
    return ExtensionClass(False, "none-of-these")


def _clique_realization(m: Matroid, e: int) -> tuple[int, list]:
    """Vertex labels that make m minus e the cycle matroid of K_k.

    Returns (k, pairs), where pairs[x] is the vertex pair (u, v), u < v, of
    base element x and pairs[e] is None. Raises PreconditionError when the
    base is not a clique. Costs O(n^3) rank queries for n base elements.

    The labels are read off triangle ranks, and the checks made on the way
    are a complete certificate: every element has rank 1 and every pair
    rank 2, the pairs are the C(k, 2) distinct edges of K_k, every triangle
    of the labelling has rank 2, and r(base) = k - 1. Then any two edges of
    a triangle span the third, so each edge uv lies in the closure of every
    u-v path, one triangle at a time. Every spanning tree therefore spans
    the base, and having k - 1 elements it is a basis. So every forest is
    independent, as it extends to a spanning tree, and every cycle is
    dependent, as each of its edges lies in the closure of the rest: the
    independent sets are exactly the forests, and the base is M(K_k).
    """
    bit = 1 << e
    base_mask = m.full_mask ^ bit
    els = sorted(elements_of(base_mask))
    ne = len(els)
    r = m.r(base_mask)
    k = r + 1
    if ne != k * (k - 1) // 2:
        raise PreconditionError(
            f"base has {ne} elements but rank {r}; not a clique")
    for x in els:
        if m.r(1 << x) != 1:
            raise PreconditionError("base is not simple")
    pairs: list = [None] * m.size
    if r < 2:  # K1 has no edge and K2 one
        for x in els:
            pairs[x] = (0, 1)
        return k, pairs

    # adjacency: two edges share a vertex iff they extend to a triangle
    adj = [[False] * ne for _ in range(ne)]
    for i, j in itertools.combinations(range(ne), 2):
        mij = (1 << els[i]) | (1 << els[j])
        if m.r(mij) != 2:
            raise PreconditionError("base is not simple")
        for t in range(ne):
            if t != i and t != j and m.r(mij | (1 << els[t])) == 2:
                adj[i][j] = adj[j][i] = True
                break
    n0 = [t for t in range(1, ne) if adj[0][t]]
    if len(n0) != 2 * (k - 2):
        raise PreconditionError("base is not a clique: wrong edge degree")
    # split the neighbours of edge 0 into its two vertex stars
    g0 = n0[0]
    m0 = (1 << els[0]) | (1 << els[g0])
    star = [g0] + [t for t in n0[1:]
                   if adj[g0][t] and m.r(m0 | (1 << els[t])) == 3]
    if len(star) != k - 2:
        raise PreconditionError("base is not a clique: bad star split")
    pairs[els[0]] = (0, 1)
    label: dict[int, int] = {}
    for nxt, t in enumerate(sorted(star), start=2):
        pairs[els[t]] = (0, nxt)
        label[t] = nxt
    spokes = sorted(star)
    for t in range(1, ne):
        if t in label:
            continue
        ends = [label[a] for a in spokes if adj[t][a]]
        if len(ends) == 2:
            pairs[els[t]] = (ends[0], ends[1]) if ends[0] < ends[1] \
                else (ends[1], ends[0])
        elif len(ends) == 1:
            pairs[els[t]] = (1, ends[0])
        else:
            raise PreconditionError("base is not a clique: stray adjacency")
    if len({pairs[x] for x in els}) != ne:
        raise PreconditionError("base is not a clique: edge labels collide")
    # triangle closure check pins the labelling
    edge_of = {pairs[x]: x for x in els}
    for u, v, w in itertools.combinations(range(k), 3):
        tri = (1 << edge_of[(u, v)]) | (1 << edge_of[(u, w)]) \
            | (1 << edge_of[(v, w)])
        if m.r(tri) != 2:
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
    from .constructions import (fano, free_ext_clique, square_ext,
                                triangle_ext, whirl)

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
        host, cert = _first_host(family, target, lo, hi)
        if host is None:
            out.append(MembershipRecord(claim, "(none found)", target.name,
                                        False))
        else:
            out.append(MembershipRecord(claim, host.name, target.name, True,
                                        cert))
    return out


def _first_host(family, target, lo: int, hi: int):
    for k in range(lo, hi + 1):
        host = family(k)
        cert = has_minor(host, target)
        if cert is not None:
            return host, cert
    return None, None
