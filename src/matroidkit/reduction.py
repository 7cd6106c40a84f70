"""Reduce a nongraphic clique extension to a canonical family minor.

The driver mirrors the constructive argument behind the extension
dichotomy.  Given a matroid whose deletion at one point is a clique, it
finds the minimal flats spanning the extension point, merges their
components into a connected (hence modular) hull, and then either

* reads off a four-point line over a triangle       -> triangle_ext(m),
* reads off the binary plane over a K4 flat          -> square_ext(m+1),
* jumps to the free family via a large component     -> free_ext_clique(m),
* peels rank off the hull by single contractions, or
* contracts a cross edge to merge two components and recurses.

Every branch appends replayable transcript events (flats found,
contractions taken) and a successful run returns a minor certificate
validated against the original matroid's own oracle, by rank and bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ._bits import elements_of, find, union
from .constructions import fano, free_ext_clique, square_ext, triangle_ext
from .core import (Matroid, MinorCertificate, _point_classes, minor_with_map,
                   validate_certificate)
from .errors import DomainError, PreconditionError, ReductionDidNotClose
from .isomorphism import is_isomorphic
from .minors import _clique_realization, classify_clique_extension

_DEPTH_CAP = 12

# pairs[x] is the (u, v) vertex pair of base element x, None for the point
_Pairs = list


@dataclass(frozen=True)
class ReductionResult:
    """A closed reduction: family kind, the exact target certified, the
    validated certificate, and the replayable search transcript."""

    kind: str
    target: Matroid
    certificate: MinorCertificate
    transcript: tuple[dict, ...]
    m: int


def reduce_clique_extension(host: Matroid, e: int, m: int) -> ReductionResult:
    """Drive the extension point of ``host`` to a canonical family minor.

    ``host`` minus ``e`` must be simple and isomorphic to a clique, and
    ``e`` must sit in a nongraphic position (not a loop, coloop, or
    parallel element); both are checked.  ``m >= 4`` sets the size of the
    family member searched for.  The result reports the exact target the
    certificate proves (triangle_ext(m), square_ext(m + 1), or
    free_ext_clique(m)); no normalization across families is attempted.

    Raises ReductionDidNotClose, carrying the transcript, when no branch
    closes at this scale.
    """
    if m < 4:
        raise DomainError("reduction needs m >= 4")
    if not 0 <= e < host.size:
        raise DomainError(f"element {e} out of range")
    pos = classify_clique_extension(host, e, check_base=False)
    if pos.graphic:
        raise PreconditionError("extension point is " + (
            f"parallel to element {pos.witness}" if pos.reason == "parallel"
            else f"a {pos.reason}"))
    _clique_realization(host, e)  # precondition; raises on a non-clique base
    transcript: list[dict] = []
    keep = tuple(range(host.size))
    res = _reduce(host, e, m, keep, frozenset(), host, transcript, 0)
    if res is None:
        raise ReductionDidNotClose("reduction did not close at this scale",
                                   transcript=transcript)
    return res


# ---------------------------------------------------------------------------
# base structure


def _set_partitions(k: int):
    """Yield set partitions of range(k) as live lists of blocks."""
    blocks: list[list[int]] = []

    def rec(v: int):
        if v == k:
            yield blocks
            return
        for b in blocks:
            b.append(v)
            yield from rec(v + 1)
            b.pop()
        blocks.append([v])
        yield from rec(v + 1)
        blocks.pop()

    yield from rec(0)


def _components(fmask: int, pairs: _Pairs) -> list[list[int]]:
    """Vertex sets of the flat's components, each sorted, by least vertex."""
    par: dict[int, int] = {}
    for x in elements_of(fmask):
        u, v = pairs[x]
        par.setdefault(u, u)
        par.setdefault(v, v)
        union(par, u, v)
    groups: dict[int, list[int]] = {}
    for v in par:
        groups.setdefault(find(par, v), []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


# ---------------------------------------------------------------------------
# search


def _reduce(cur: Matroid, e: int, m: int, keep: tuple[int, ...],
            c_acc: frozenset, root: Matroid, transcript: list[dict],
            depth: int) -> Optional[ReductionResult]:
    if depth > _DEPTH_CAP:
        transcript.append({"event": "dead-end", "depth": depth,
                           "reason": "depth cap"})
        return None
    try:
        k, pairs = _clique_realization(cur, e)
    except PreconditionError as exc:
        transcript.append({"event": "dead-end", "depth": depth,
                           "reason": str(exc)})
        return None
    edge_of = {pairs[x]: x for x in range(cur.size) if pairs[x] is not None}
    ebit = 1 << e

    # flats of the base are the vertex partitions; keep those spanning e
    spanning: list[tuple[int, int]] = []
    for blocks in _set_partitions(k):
        fmask = 0
        for b in blocks:
            if len(b) >= 2:
                for u, v in itertools.combinations(b, 2):
                    fmask |= 1 << edge_of[(u, v)]
        if fmask == 0:
            continue
        rank = k - len(blocks)
        if cur.r(fmask | ebit) == rank:
            spanning.append((rank, fmask))
    spanning.sort()
    minimal: list[tuple[int, int]] = []
    for rank, fmask in spanning:
        if not any(g & ~fmask == 0 for _, g in minimal):
            minimal.append((rank, fmask))
    if not minimal:
        transcript.append({"event": "dead-end", "depth": depth,
                           "reason": "no flat spans the point"})
        return None
    transcript.append({
        "event": "minimal-flats", "depth": depth,
        "flats": [sorted(keep[x] for x in elements_of(g)) for _, g in minimal],
        "ranks": [rank for rank, _ in minimal],
    })
    r_f, fsel = minimal[0]
    comps = _components(fsel, pairs)
    t = len(comps)
    vset = sorted(v for c in comps for v in c)
    fhat = 0
    for u, v in itertools.combinations(vset, 2):
        fhat |= 1 << edge_of[(u, v)]
    rhat = len(vset) - 1
    corank = cur.full_rank() - rhat
    transcript.append({
        "event": "selected-flat", "depth": depth,
        "elements": sorted(keep[x] for x in elements_of(fsel)),
        "rank": r_f, "components": [len(c) for c in comps],
        "hull-rank": rhat, "corank": corank,
    })

    # connected modular hull with enough corank: the small configurations.
    # A triangle hull inside K_m has corank exactly m - 3, so that is the
    # weakest bound that still lets the leaves place their extra vertices.
    if corank >= m - 3:
        if t == 1 and r_f == 2:
            leaf = _clique_leaf("triangle", triangle_ext, m, comps[0], e, k,
                                edge_of)
            if leaf is not None:
                return _finish(root, keep, c_acc, transcript, depth, m, *leaf)
        if rhat == 3:
            outside = [x for x in range(cur.size)
                       if x != e and not (1 << x) & fhat]
            sub, _ = minor_with_map(cur, (), outside)
            if is_isomorphic(sub, fano()):
                leaf = _clique_leaf("square", square_ext, m + 1, vset, e, k,
                                    edge_of)
                if leaf is not None:
                    return _finish(root, keep, c_acc, transcript, depth, m,
                                   *leaf)
        if rhat >= 3:
            for f in sorted(elements_of(fhat)):
                child = _child(cur, e, keep, c_acc, (f,), ())
                if child is None:
                    continue
                transcript.append({"event": "contract", "depth": depth,
                                   "element": keep[f]})
                h2, e2, keep2, c2 = child
                res = _reduce(h2, e2, m, keep2, c2, root, transcript,
                              depth + 1)
                if res is not None:
                    return res
    else:
        transcript.append({"event": "hull-too-large", "depth": depth,
                           "corank": corank, "needed": m - 3})

    # a single component already carries an (m-1)-independent set
    for comp in comps:
        if len(comp) - 1 >= m - 1:
            leaf = _free_leaf(e, comp, comps, fsel, m, pairs, edge_of)
            return _finish(root, keep, c_acc, transcript, depth, m, *leaf)

    # merge the first two components across a cross edge and recurse
    if t >= 2:
        cross = min(edge_of[(u, v) if u < v else (v, u)]
                    for u in comps[0] for v in comps[1])
        cset = [cross]
        for comp in comps[2:]:
            cset.extend(_tree_edges(comp, fsel, pairs))
        dels = [x for x in range(cur.size)
                if x != e and not (1 << x) & fhat]
        child = _child(cur, e, keep, c_acc, tuple(cset), tuple(dels))
        if child is not None:
            transcript.append({"event": "cross-edge", "depth": depth,
                               "element": keep[cross],
                               "contracted": sorted(keep[x] for x in cset)})
            h2, e2, keep2, c2 = child
            res = _reduce(h2, e2, m, keep2, c2, root, transcript, depth + 1)
            if res is not None:
                return res

    transcript.append({"event": "dead-end", "depth": depth,
                       "reason": "no branch closed"})
    return None


def _child(cur: Matroid, e: int, keep: tuple[int, ...], c_acc: frozenset,
           cset: tuple[int, ...], dels: tuple[int, ...]):
    """Contract cset, delete dels, then simplify the base keeping e.

    Returns (child, e', keep', c_acc') or None when the point degenerates.
    """
    mc, keepc = minor_with_map(cur, cset, dels)
    e_mc = keepc.index(e)
    if classify_clique_extension(mc, e_mc, check_base=False).graphic:
        return None
    classes, junk = _point_classes(
        mc.r, 0, (x for x in range(mc.size) if x != e_mc))
    junk += [x for cls in classes for x in cls[1:]]
    h2, keep2 = minor_with_map(mc, (), junk)
    keep_out = tuple(keep[keepc[j]] for j in keep2)
    c_out = c_acc | {keep[x] for x in cset}
    return h2, keep2.index(e_mc), keep_out, c_out


def _tree_edges(comp: list[int], fmask: int, pairs: _Pairs) -> list[int]:
    """Lex-least spanning tree of one component, as host elements."""
    par = {v: v for v in comp}
    cs = set(comp)
    out = []
    for x in sorted(elements_of(fmask)):
        u, v = pairs[x]
        if u in cs and v in cs and union(par, u, v):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# leaves: each returns (kind, target, contract-elements, mapping)


def _clique_leaf(kind: str, family, size: int, core: list[int], e: int,
                 k: int, edge_of: dict) -> Optional[tuple]:
    """family(size) on the core vertices, sorted, then the lowest others;
    None when the clique has fewer than size vertices."""
    worder = (sorted(core) + [v for v in range(k) if v not in core])[:size]
    if len(worder) < size:
        return None
    mapping = _clique_mapping(worder, size, edge_of)
    mapping.append((size * (size - 1) // 2, e))
    return kind, family(size), (), mapping


def _free_leaf(e: int, comp: list[int], comps: list[list[int]], fmask: int,
               m: int, pairs: _Pairs, edge_of: dict) -> tuple:
    tree = _tree_edges(comp, fmask, pairs)
    kept, contracted = tree[:m - 1], tree[m - 1:]
    cset = list(contracted)
    for other in comps:
        if other is not comp:
            cset.extend(_tree_edges(other, fmask, pairs))
    # groups: vertices of the component merged along the contracted tree
    par = {v: v for v in comp}
    for x in contracted:
        union(par, *pairs[x])
    roots: dict[int, int] = {}
    for v in sorted(comp):
        roots.setdefault(find(par, v), len(roots))
    gid = {v: roots[find(par, v)] for v in comp}
    cs = set(comp)
    reps: dict[tuple[int, int], int] = {}
    for x in sorted(elements_of(fmask)):
        u, v = pairs[x]
        if u in cs and v in cs and gid[u] != gid[v]:
            key = (min(gid[u], gid[v]), max(gid[u], gid[v]))
            reps.setdefault(key, x)
    mapping = [(i, reps[(a, b)])
               for i, (a, b) in enumerate(itertools.combinations(range(m), 2))]
    mapping.append((m * (m - 1) // 2, e))
    return "free", free_ext_clique(m), tuple(cset), mapping


def _clique_mapping(worder: list[int], m: int, edge_of: dict) -> list:
    out = []
    for i, (a, b) in enumerate(itertools.combinations(range(m), 2)):
        u, v = worder[a], worder[b]
        out.append((i, edge_of[(u, v) if u < v else (v, u)]))
    return out


def _finish(root: Matroid, keep: tuple[int, ...], c_acc: frozenset,
            transcript: list[dict], depth: int, m: int, kind: str,
            target: Matroid, cset: tuple[int, ...],
            mapping: list) -> ReductionResult:
    contract = frozenset(c_acc | {keep[x] for x in cset})
    pairs = tuple(sorted((ti, keep[h]) for ti, h in mapping))
    image = {h for _, h in pairs}
    delete = frozenset(set(range(root.size)) - contract - image)
    cert = MinorCertificate(contract, delete, pairs)
    if not validate_certificate(cert, root, target):
        raise RuntimeError("reduction built an invalid certificate")
    transcript.append({"event": "leaf", "depth": depth, "family": kind,
                       "target": target.name, "validated": True})
    return ReductionResult(kind, target, cert, tuple(transcript), m)
