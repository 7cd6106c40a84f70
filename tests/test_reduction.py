"""Reduction of nongraphic clique extensions to canonical family minors."""

import itertools
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from matroidkit import (
    DomainError,
    Matroid,
    MatroidError,
    PreconditionError,
    ReductionDidNotClose,
    ResourceLimitError,
    clique,
    direct_sum,
    fano,
    free_ext_clique,
    from_graph,
    from_matrix,
    is_isomorphic,
    minor_with_map,
    principal_extension,
    reduce_clique_extension,
    square_ext,
    triangle_ext,
    uniform,
    validate_certificate,
)
from matroidkit import reduction
from oracles import _set_partitions, reduce_by_minors


CANONICAL = [
    ("triangle", triangle_ext(6), "triangle_ext(4)"),
    ("square", square_ext(6), "square_ext(5)"),
    ("free", free_ext_clique(8), "free_ext_clique(4)"),
]


@pytest.mark.parametrize("kind,host,want", CANONICAL,
                         ids=[c[0] for c in CANONICAL])
def test_canonical_reductions_close(kind, host, want):
    res = reduce_clique_extension(host, host.size - 1, 4)
    assert res.kind == kind
    assert res.target.name == want
    assert res.m == 4
    assert validate_certificate(res.certificate, host, res.target)
    events = [ev["event"] for ev in res.transcript]
    assert events[0] == "minimal-flats"
    assert events[-1] == "leaf"
    assert res.transcript[-1]["validated"] is True


def test_every_returned_certificate_is_validated():
    # free_ext_clique(7): a 22-element target, validated on its bases
    res = reduce_clique_extension(free_ext_clique(7), 21, 7)
    assert res.kind == "free" and res.transcript[-1]["validated"] is True
    # free_ext_clique(8): 29 target elements, over the rank-table cap
    with pytest.raises(ResourceLimitError):
        reduce_clique_extension(free_ext_clique(8), 28, 8)


@pytest.mark.parametrize("n", [5, 6])
def test_matching_point_reduces_through_a_merge(n):
    # a point on a two-edge matching flat: one cross-edge contraction turns
    # the matching into a triangle, and the triangle leaf closes
    prs = list(itertools.combinations(range(n), 2))
    host = principal_extension(clique(n), [prs.index((0, 1)),
                                           prs.index((2, 3))])
    res = reduce_clique_extension(host, host.size - 1, 4)
    assert res.kind == "triangle"
    assert res.target.name == "triangle_ext(4)"
    assert validate_certificate(res.certificate, host, res.target)
    events = [ev["event"] for ev in res.transcript]
    assert "contract" in events
    assert res.certificate.contract  # at least one element was contracted


def test_reduction_is_deterministic():
    host = triangle_ext(6)
    a = reduce_clique_extension(host, host.size - 1, 4)
    b = reduce_clique_extension(host, host.size - 1, 4)
    assert a.transcript == b.transcript
    assert a.certificate.mapping == b.certificate.mapping
    assert a.certificate.contract == b.certificate.contract
    assert a.certificate.delete == b.certificate.delete


def test_reduction_reports_honest_failure_with_transcript():
    host = triangle_ext(5)
    with pytest.raises(ReductionDidNotClose) as info:
        reduce_clique_extension(host, host.size - 1, 6)
    transcript = info.value.transcript
    assert transcript, "a failed run still carries its transcript"
    events = [ev["event"] for ev in transcript]
    assert events[0] == "minimal-flats"
    assert events[-1] == "dead-end"


def test_reduction_argument_guards():
    host = triangle_ext(6)
    with pytest.raises(DomainError):
        reduce_clique_extension(host, host.size - 1, 3)
    with pytest.raises(DomainError):
        reduce_clique_extension(host, host.size, 4)


def test_reduction_position_preconditions():
    loopy = direct_sum(clique(4), uniform(0, 1))
    with pytest.raises(PreconditionError):
        reduce_clique_extension(loopy, 6, 4)

    colo = direct_sum(clique(4), uniform(1, 1))
    with pytest.raises(PreconditionError):
        reduce_clique_extension(colo, 6, 4)

    prs = list(itertools.combinations(range(4), 2))
    doubled = principal_extension(clique(4), [prs.index((0, 1))])
    with pytest.raises(PreconditionError):
        reduce_clique_extension(doubled, 6, 4)


def test_reduction_rejects_non_clique_base():
    host = principal_extension(uniform(3, 6), [0, 1])
    with pytest.raises((DomainError, PreconditionError)):
        reduce_clique_extension(host, host.size - 1, 4)


# ---------------------------------------------------------------------------
# the host-label search against the minor-building reference


def _point_on(k: int, blocks, edges=None):
    """A principal point on the vertex-partition flat of K_k whose blocks
    are given, over the edges in the given order (lexicographic by
    default); the point is the last element."""
    edges = edges or list(itertools.combinations(range(k), 2))
    flat = [i for i, (u, v) in enumerate(edges)
            if any(u in b and v in b for b in blocks)]
    return principal_extension(from_graph(k, edges), flat)


def _non_fano(k: int):
    """K_k in triangle_ext's GF(3) coordinates (star columns b_j, cross
    columns b_i - b_j) plus the point b1 + b2 - b3, last. The point lies on
    the lines {01, 23} and {02, 13} but not on {03, 12}, so its rank-3 hull
    is F7^-, not F7."""
    cols = [[(v == i) - (v == j) if i else int(v == j) for v in range(1, k)]
            for i, j in itertools.combinations(range(k), 2)]
    cols.append([1, 1, -1] + [0] * (k - 4))
    return from_matrix([[c[r] % 3 for c in cols] for r in range(k - 1)], 3)


@st.composite
def clique_extension_cases(draw):
    """(host, m): a relabelled K4-K6 with a principal point on a drawn
    vertex-partition flat, or that host's bare twin, and m in 4..6."""
    k = draw(st.integers(4, 6))
    perm = draw(st.permutations(range(k)))
    edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in
             draw(st.permutations(list(itertools.combinations(range(k), 2))))]
    block_of = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    blocks = [{v for v in range(k) if block_of[v] == b} for b in range(k)]
    host = _point_on(k, blocks, edges)
    if draw(st.booleans()):
        host = Matroid(host.size, host._rank_mask)
    return host, draw(st.integers(4, 6))


def _outcome(reduce, host, e, m):
    try:
        res = reduce(host, e, m)
    except ReductionDidNotClose as exc:
        return "did-not-close", exc.transcript
    except MatroidError as exc:
        return "error", type(exc)
    return res.kind, res.target.name, res.certificate, res.transcript


@settings(max_examples=300, deadline=None)
@given(clique_extension_cases())
@example((_point_on(4, [{0, 1}, {2, 3}]), 4))  # cross-edge, triangle leaf
@example((_point_on(5, [{0, 1, 2, 3}]), 4))  # contract, triangle leaf
@example((_point_on(4, [{0, 1, 2, 3}]), 4))  # hull too large, free leaf
@example((_point_on(4, [{0, 1, 2, 3}]), 5))  # no branch closed
@example((_point_on(6, [{0, 1}, {2, 3}]), 4))  # the K6 matching point
@example((_point_on(4, [{0, 1}]), 4))  # parallel: PreconditionError
@example((square_ext(6), 4))  # square leaf
@example((_non_fano(5), 4))  # F7^- hull, contract
@example((triangle_ext(5), 6))
def test_reduction_matches_the_minor_reference(case):
    host, m = case
    e = host.size - 1
    assert (_outcome(reduce_clique_extension, host, e, m)
            == _outcome(reduce_by_minors, host, e, m))


@pytest.mark.parametrize("host", [
    triangle_ext(6),
    free_ext_clique(8),
    square_ext(6),
    _point_on(6, [{0, 1}, {2, 3}]),  # its depth-1 hull has rank 3
], ids=["triangle", "free", "square", "matching"])
def test_reduction_builds_no_minor(monkeypatch, host):
    for name in ("minor_with_map", "is_isomorphic", "fano"):
        assert not hasattr(reduction, name)
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return minor_with_map(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("matroidkit")
                and getattr(mod, "minor_with_map", None) is minor_with_map):
            monkeypatch.setattr(mod, "minor_with_map", counting)
    reduce_clique_extension(host, host.size - 1, 4)
    assert built == []


def test_non_fano_hull_is_not_read_as_the_fano_plane():
    host = _non_fano(5)
    e = host.size - 1
    hull = [i for i, (u, v) in enumerate(itertools.combinations(range(5), 2))
            if v < 4]
    plane, _ = minor_with_map(host, (), [x for x in range(e) if x not in hull])
    assert plane.size == 7 and plane.full_rank() == 3
    assert not is_isomorphic(plane, fano())
    res = reduce_clique_extension(host, e, 4)
    assert (res.kind, res.target.name) == ("triangle", "triangle_ext(4)")
    assert res.transcript[1]["hull-rank"] == 3
    assert "contract" in [ev["event"] for ev in res.transcript]


def test_partition_walk_carries_each_flat_mask():
    # the same partitions, in the same order, as the reference walk, each
    # with the mask a rebuild from its blocks gives
    for k in range(1, 8):
        edge_of = {uv: i for i, uv in
                   enumerate(itertools.combinations(range(k), 2))}
        walked = [([tuple(b) for b in blocks], fmask) for blocks, fmask
                  in reduction._partition_flats(k, edge_of)]
        rebuilt = [([tuple(b) for b in blocks],
                    sum(1 << edge_of[uv] for b in blocks
                        for uv in itertools.combinations(b, 2)))
                   for blocks in _set_partitions(k)]
        assert walked == rebuilt


def _corpus():
    """Principal points of K4 and K5 on every nonempty vertex-partition
    flat, the non-Fano hosts and two Fano ones, each at m = 4 and 5."""
    hosts = [_point_on(k, blocks) for k in (4, 5)
             for blocks in _set_partitions(k) if len(blocks) < k]
    hosts += [_non_fano(5), _non_fano(6), square_ext(5), square_ext(6)]
    return [(host, m) for host in hosts for m in (4, 5)]


def test_reduction_corpus_matches_the_minor_reference():
    for host, m in _corpus():
        e = host.size - 1
        assert (_outcome(reduce_clique_extension, host, e, m)
                == _outcome(reduce_by_minors, host, e, m)), (host, m)
