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

Each level is the view host / C | K, C the elements contracted so far and
K those kept, read in host labels through the host's own oracle, so no
minor is built: even the Fano plane the square leaf needs is told by
three rank reads.

Every branch appends replayable transcript events (flats found,
contractions taken) and a successful run returns a minor certificate
validated against the original matroid's own oracle, by rank and bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from ._bits import elements_of, find, mask_of, union
from .constructions import free_ext_clique, square_ext, triangle_ext
from .core import (Matroid, MinorCertificate, _point_classes,
                   validate_certificate)
from .errors import DomainError, PreconditionError, ReductionDidNotClose
from .minors import _clique_realization, classify_clique_extension

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
    parallel element); both are checked, the first by DomainError, the
    second by PreconditionError.  ``m >= 4`` sets the size of the family
    member searched for.  The result reports the exact target the
    certificate proves (triangle_ext(m), square_ext(m + 1), or
    free_ext_clique(m)); no normalization across families is attempted.

    Each level is read as host / C | K in host labels (C contracted so
    far, K kept), so the certificate needs no label maps.

    Raises ReductionDidNotClose, carrying the transcript, when no branch
    closes at this scale.
    """
    if m < 4:
        raise DomainError("reduction needs m >= 4")
    if not 0 <= e < host.size:
        raise DomainError(f"element {e} out of range")
    pos = classify_clique_extension(host, e)
    if pos.graphic:
        raise PreconditionError("extension point is " + (
            f"parallel to element {pos.witness}" if pos.reason == "parallel"
            else f"a {pos.reason}"))
    transcript: list[dict] = []
    res = _reduce(host, e, m, 0, host.full_mask, transcript, 0)
    if res is None:
        raise ReductionDidNotClose("reduction did not close at this scale",
                                   transcript=transcript)
    return res


# ---------------------------------------------------------------------------
# search


def _partition_flats(k: int, edge_of: dict):
    """Yield each set partition of range(k) as (blocks, fmask): blocks a
    live list of vertex lists, fmask the base elements inside the blocks.
    The mask is carried down the walk: v joining block b adds the edges
    (u, v), u in b."""
    bit = [[1 << edge_of[(u, v)] for u in range(v)] for v in range(k)]
    blocks: list[list[int]] = []

    def walk(v: int, fmask: int):
        if v == k:
            yield blocks, fmask
            return
        for b in blocks:
            grown = fmask
            for u in b:
                grown |= bit[v][u]
            b.append(v)
            yield from walk(v + 1, grown)
            b.pop()
        blocks.append([v])
        yield from walk(v + 1, fmask)
        blocks.pop()

    yield from walk(0, 0)


def _reduce(host: Matroid, e: int, m: int, cmask: int, kmask: int,
            transcript: list[dict], depth: int
            ) -> Optional[ReductionResult]:
    """One level of the search on the view host / cmask | kmask.

    Every view is a clique extension: depth 0 is certified, and a child
    contracts a forest F of the base and simplifies, leaving M(K_{k-|F|})
    with e no loop, coloop or parallel element (_child). So the labelling
    never refuses, the whole base always spans e, and as each level
    contracts a nonloop the depth is at most the host's rank.
    """
    k, pairs = _clique_realization(host, e, cmask, kmask)
    edge_of = {uv: x for x, uv in enumerate(pairs) if uv is not None}
    ebit = 1 << e
    rc = host.r(cmask)

    # flats of the base are the vertex partitions, whose blocks of two or
    # more vertices are the flat's components; keep those spanning e
    spanning: list[tuple[int, int, list]] = []
    for blocks, fmask in _partition_flats(k, edge_of):
        rank = k - len(blocks)
        if fmask and host.r(cmask | fmask | ebit) - rc == rank:
            comps = [tuple(b) for b in blocks if len(b) >= 2]
            spanning.append((rank, fmask, comps))
    spanning.sort()  # by rank, then mask; masks are distinct
    minimal: list[tuple[int, int, list]] = []
    for flat in spanning:
        if not any(g & ~flat[1] == 0 for _, g, _ in minimal):
            minimal.append(flat)
    transcript.append({
        "event": "minimal-flats", "depth": depth,
        "flats": [list(elements_of(g)) for _, g, _ in minimal],
        "ranks": [rank for rank, _, _ in minimal],
    })
    r_f, fsel, comps = minimal[0]
    t = len(comps)
    vset = sorted(v for c in comps for v in c)
    fhat = mask_of(edge_of[uv] for uv in itertools.combinations(vset, 2))
    rhat = len(vset) - 1
    corank = k - 1 - rhat  # e is no coloop, so the view has rank k - 1
    transcript.append({
        "event": "selected-flat", "depth": depth,
        "elements": list(elements_of(fsel)),
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
                return _finish(host, cmask, transcript, depth, m, *leaf)
        # the hull is M(K4) plus e in its plane: F7, the one simple rank-3
        # matroid on 7 points with every two on a 3-point line, exactly
        # when e is on the line of each two disjoint edges
        if rhat == 3:
            a, b, c, d = vset
            lines = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
            if all(host.r(cmask | ebit | 1 << edge_of[x] | 1 << edge_of[y])
                   == rc + 2 for x, y in lines):
                leaf = _clique_leaf("square", square_ext, m + 1, vset, e, k,
                                    edge_of)
                if leaf is not None:
                    return _finish(host, cmask, transcript, depth, m, *leaf)
        if rhat >= 3:
            for f in elements_of(fhat):
                child = _child(host, e, cmask, kmask, (f,), 0)
                if child is None:
                    continue
                transcript.append({"event": "contract", "depth": depth,
                                   "element": f})
                res = _reduce(host, e, m, *child, transcript, depth + 1)
                if res is not None:
                    return res
    else:
        transcript.append({"event": "hull-too-large", "depth": depth,
                           "corank": corank, "needed": m - 3})

    # a single component already carries an (m-1)-independent set
    for comp in comps:
        if len(comp) - 1 >= m - 1:
            leaf = _free_leaf(e, comp, comps, fsel, m, pairs, edge_of)
            return _finish(host, cmask, transcript, depth, m, *leaf)

    # merge the first two components across a cross edge and recurse
    if t >= 2:
        cross = min(edge_of[(u, v) if u < v else (v, u)]
                    for u in comps[0] for v in comps[1])
        cset = [cross]
        for comp in comps[2:]:
            cset.extend(_tree_edges(comp, fsel, pairs))
        child = _child(host, e, cmask, kmask, cset, kmask & ~(fhat | ebit))
        if child is not None:
            transcript.append({"event": "cross-edge", "depth": depth,
                               "element": cross, "contracted": sorted(cset)})
            res = _reduce(host, e, m, *child, transcript, depth + 1)
            if res is not None:
                return res

    transcript.append({"event": "dead-end", "depth": depth,
                       "reason": "no branch closed"})
    return None


def _child(host: Matroid, e: int, cmask: int, kmask: int, cset: Iterable[int],
           dmask: int) -> Optional[tuple[int, int]]:
    """The view after contracting cset and deleting dmask, simplified by
    one class pass that keeps each parallel class's least element.

    Returns its (cmask, kmask), or None when e turns a loop or parallel to
    another element. e never turns a coloop: it lies in the closure of the
    selected flat, which both branches keep, less what they contract.
    """
    c2 = cmask | mask_of(cset)
    classes, _ = _point_classes(host.r, c2, elements_of(kmask & ~c2 & ~dmask))
    if (e,) not in classes:
        return None
    return c2, mask_of(cls[0] for cls in classes)


def _tree_edges(comp: list[int], fmask: int, pairs: list) -> list[int]:
    """Lex-least spanning tree of one component, as host elements."""
    par = {v: v for v in comp}
    cs = set(comp)
    out = []
    for x in elements_of(fmask):
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
    mapping = [(i, edge_of[(min(u, v), max(u, v))])
               for i, (u, v) in enumerate(itertools.combinations(worder, 2))]
    mapping.append((size * (size - 1) // 2, e))
    return kind, family(size), (), mapping


def _free_leaf(e: int, comp: list[int], comps: list[list[int]], fmask: int,
               m: int, pairs: list, edge_of: dict) -> tuple:
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


def _finish(host: Matroid, cmask: int, transcript: list[dict], depth: int,
            m: int, kind: str, target: Matroid, cset: tuple[int, ...],
            mapping: list) -> ReductionResult:
    contract = cmask | mask_of(cset)
    image = mask_of(h for _, h in mapping)
    cert = MinorCertificate(
        frozenset(elements_of(contract)),
        frozenset(elements_of(host.full_mask & ~(contract | image))),
        tuple(sorted(mapping)))
    if not validate_certificate(cert, host, target):
        raise RuntimeError("reduction built an invalid certificate")
    transcript.append({"event": "leaf", "depth": depth, "family": kind,
                       "target": target.name, "validated": True})
    return ReductionResult(kind, target, cert, tuple(transcript), m)
