import dataclasses
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matroidkit import (Matroid, clique, direct_sum, fano, find_embedding,
                        from_matrix, is_isomorphic, rank_table, restriction,
                        uniform)
from matroidkit import isomorphism
from matroidkit.constructions import triangle_ext, whirl
from matroidkit.representations import GraphRep, LinearRep
from oracles import embedding_all_subsets, iso_brute
from strategies import graph_reps, linear_reps, planted_reps


def _preserves_ranks(phi, a, b) -> bool:
    return all(a.r(mask) == b.r(sum(1 << phi[e] for e in range(a.size)
                                    if mask >> e & 1))
               for mask in range(1 << a.size))


PAIRS = [
    (uniform(2, 4), whirl(2), True),
    (triangle_ext(3), uniform(2, 4), True),
    (clique(4), uniform(3, 6), False),
    (fano(), uniform(3, 7), False),
    (whirl(3), uniform(3, 6), False),
    (direct_sum(uniform(1, 2), uniform(1, 2)),
     direct_sum(uniform(1, 1), uniform(1, 3)), False),
    (clique(4), direct_sum(clique(3), clique(3)), False),
]


@pytest.mark.parametrize("a,b,expect", PAIRS,
                         ids=lambda v: v.name if isinstance(v, Matroid) else str(v))
def test_matches_brute_force(a, b, expect):
    brute = iso_brute(a, b)
    assert (brute is not None) == expect
    phi = is_isomorphic(a, b)
    assert (phi is not None) == expect
    if phi is not None:
        assert _preserves_ranks(phi, a, b)


def test_random_relabelings_are_found(rng: random.Random):
    for m in (fano(), whirl(3), clique(4)):
        perm = list(range(m.size))
        rng.shuffle(perm)

        def relabeled(mask, m=m, perm=perm):
            src = 0
            for i in range(m.size):
                if (mask >> i) & 1:
                    src |= 1 << perm[i]
            return m.r(src)

        other = Matroid(m.size, relabeled)
        phi = is_isomorphic(m, other)
        assert phi is not None
        assert iso_brute(m, other) is not None


def test_size_or_rank_mismatch_short_circuits():
    assert is_isomorphic(uniform(2, 4), uniform(2, 5)) is None
    assert is_isomorphic(uniform(2, 4), uniform(3, 4)) is None


# matroids of at most 7 elements, so the brute force stays fast
SMALL = st.one_of(linear_reps(max_cols=7, primes=(2, 3)),
                  graph_reps(max_edges=7), planted_reps(max_cols=7))


@settings(max_examples=150, deadline=None)
@given(SMALL, st.data())
def test_a_relabelled_bare_twin_is_isomorphic(rep, data):
    m = rep.matroid()
    twin = _relabeled_restriction(m, data.draw(st.permutations(range(m.size))))
    phi = is_isomorphic(m, twin)
    assert phi is not None and sorted(phi.values()) == list(range(m.size))
    assert _preserves_ranks(phi, m, twin)


@settings(max_examples=150, deadline=None)
@given(SMALL, SMALL)
def test_independent_draws_agree_with_brute_force(rep_a, rep_b):
    a, b = rep_a.matroid(), rep_b.matroid()
    n = min(a.size, b.size)
    a, b = restriction(a, range(n)), restriction(b, range(n))
    phi = is_isomorphic(a, b)
    assert (phi is None) == (iso_brute(a, b) is None)
    if phi is not None:
        assert _preserves_ranks(phi, a, b)


@st.composite
def near_twins(draw):
    """A GF(2) or GF(3) matrix, or a graph, of 4 to 7 elements and a
    shuffled copy with one entry, column or edge end redrawn: the same
    size, often the same rank, and often not isomorphic, which
    independent draws of equal size and rank rarely are."""
    n = draw(st.integers(4, 7))
    if draw(st.booleans()):
        p, nr = draw(st.sampled_from((2, 3))), draw(st.integers(2, 4))
        col = st.tuples(*[st.integers(0, p - 1)] * nr)
        cols = draw(st.lists(col, min_size=n, max_size=n))
        other = list(cols)
        j = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            i = draw(st.integers(0, nr - 1))
            shift = draw(st.integers(1, p - 1))
            other[j] = tuple((x + shift) % p if k == i else x
                             for k, x in enumerate(cols[j]))
        else:
            other[j] = draw(col)
        reps = [LinearRep(p, nr, tuple(c)) for c in (cols, other)]
    else:
        nv = draw(st.integers(2, 5))
        edge = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
        edges = draw(st.lists(edge, min_size=n, max_size=n))
        other = list(edges)
        j = draw(st.integers(0, n - 1))
        other[j] = (other[j][0], draw(st.integers(0, nv - 1)))
        reps = [GraphRep(nv, tuple(e)) for e in (edges, other)]
    a = reps[0].matroid()
    b = _relabeled_restriction(reps[1].matroid(),
                               draw(st.permutations(range(n))))
    return a, b


@settings(max_examples=150, deadline=None)
@given(near_twins())
def test_near_twins_agree_with_brute_force(pair):
    a, b = pair
    assume(a.full_rank() == b.full_rank())
    phi = is_isomorphic(a, b)
    assert (phi is None) == (iso_brute(a, b) is None)
    if phi is not None:
        assert _preserves_ranks(phi, a, b)


# ---------------------------------------------------------------------------
# embeddings read the host's rank table


def _relabeled_restriction(host, elems):
    """Bare-oracle matroid whose element i is host element elems[i]."""
    def rank_mask(mask):
        return host._rank_mask(sum(1 << h for i, h in enumerate(elems)
                                   if (mask >> i) & 1))
    return Matroid(len(elems), rank_mask)


@st.composite
def embedding_cases(draw):
    """A GF(2), GF(3) or graph host of at most 10 elements, a target that
    is usually a relabeled restriction of it (otherwise an unrelated small
    matroid), and candidate lists or None. planted_reps supplies the
    non-binary GF(3) hosts and the F7 and F7* ones that linear_reps
    rarely draws."""
    rep = draw(st.one_of(linear_reps(max_cols=10, primes=(2, 3)),
                         planted_reps(max_cols=10),
                         graph_reps(max_vertices=6, max_edges=10)))
    host = rep.matroid()
    n = host.size
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        target = _relabeled_restriction(host, perm[:draw(st.integers(1, n))])
    else:
        other = draw(st.one_of(linear_reps(max_cols=5, primes=(2, 3)),
                               graph_reps(max_edges=5)))
        target = other.matroid()
    candidates = None
    if draw(st.booleans()):
        candidates = [draw(st.lists(st.integers(0, n - 1), unique=True))
                      for _ in range(target.size)]
    return host, target, candidates


@settings(max_examples=150, deadline=None)
@given(embedding_cases())
def test_embedding_on_the_host_table_matches_its_bare_oracle_twin(case):
    host, target, candidates = case
    twin = Matroid(host.size, host._rank_mask)
    phi = find_embedding(host, target, candidates)
    assert phi == find_embedding(twin, target, candidates)
    if phi is not None:
        assert sorted(phi) == list(range(target.size))
        assert len(set(phi.values())) == target.size
        for t, h in phi.items():
            assert candidates is None or h in candidates[t]
        for mask in range(1 << target.size):
            image = sum(1 << phi[t] for t in range(target.size)
                        if (mask >> t) & 1)
            assert host.r(image) == target.r(mask)


@settings(max_examples=150, deadline=None)
@given(embedding_cases())
def test_embedding_matches_the_all_subsets_search(case):
    """Checking the independent subsets of the placed prefix accepts the
    same candidates as checking all of them, so the first embedding found
    is the same, on the host's table and through its bare oracle."""
    host, target, candidates = case
    twin = Matroid(host.size, host._rank_mask)
    phi = embedding_all_subsets(twin, target, candidates)
    assert find_embedding(host, target, candidates) == phi
    assert find_embedding(twin, target, candidates) == phi


def test_placing_clique6_reads_few_subsets_of_a_bare_host():
    """All 2^15 - 1 nonempty subsets of a placed clique(6) would be read
    by a check of every subset of the prefix."""
    target, host = clique(6), clique(6)
    seen = set()
    twin = Matroid(host.size,
                   lambda mask: seen.add(mask) or host._rank_mask(mask))
    phi = find_embedding(twin, target)
    assert phi is not None and len(seen) <= 6000
    assert all(host.r(sum(1 << phi[t] for t in range(15) if mask >> t & 1))
               == target.r(mask) for mask in range(1 << 15))


def test_embedding_on_a_linear_host_never_calls_its_oracle():
    host = from_matrix([[1, 0, 1, 1, 0], [0, 1, 1, 2, 1]], 3)
    oracle, calls = host._rank_mask, []
    host._rank_mask = lambda mask: calls.append(mask) or oracle(mask)
    assert find_embedding(host, uniform(2, 4)) is not None
    assert find_embedding(host, uniform(2, 5)) is None
    assert calls == []


def test_a_clique6_host_with_a_table_never_calls_its_oracle():
    host = clique(6)
    oracle, calls = host._rank_mask, []
    host._rank_mask = lambda mask: calls.append(mask) or oracle(mask)
    perm = random.Random(6).sample(range(15), 15)
    twin = _relabeled_restriction(clique(6), perm)
    phi = find_embedding(host, twin)
    assert phi is not None and calls == []
    assert phi == embedding_all_subsets(Matroid(15, oracle), twin)


def _relabelled_rep(rep, elems):
    """rep with its element i taken from element elems[i]: a table-backed
    relabelled restriction."""
    if isinstance(rep, LinearRep):
        return dataclasses.replace(
            rep, columns=tuple(rep.columns[e] for e in elems))
    return dataclasses.replace(rep, edges=tuple(rep.edges[e] for e in elems))


@st.composite
def edge_embedding_cases(draw):
    """Embedding inputs at the edges of the search: an empty target, an
    empty candidate list, candidates that are all placed before their
    element comes, a target larger than the host, and a relabelled
    restriction where one side has a rank table and the other has none."""
    rep = draw(SMALL)
    host = rep.matroid()
    n = host.size
    kind = draw(st.sampled_from(["empty-target", "empty-candidates",
                                 "all-used", "larger-target", "bare-target",
                                 "bare-host"]))
    perm = draw(st.permutations(range(n)))
    target = _relabelled_rep(rep, perm[:draw(st.integers(1, n))]).matroid()
    candidates = None
    if kind == "empty-target":
        target = restriction(target, ())
        if draw(st.booleans()):
            target = Matroid(0, target._rank_mask)
    elif kind == "empty-candidates":
        candidates = [draw(st.lists(st.integers(0, n - 1), unique=True))
                      for _ in range(target.size)]
        candidates[draw(st.integers(0, target.size - 1))] = []
    elif kind == "all-used":
        assume(target.size >= 2)
        candidates = [[draw(st.integers(0, n - 1))]] * target.size
    elif kind == "larger-target":
        assume(n >= 2)
        target = host
        host = restriction(host, range(draw(st.integers(0, n - 1))))
    elif kind == "bare-target":
        target = Matroid(target.size, target._rank_mask)
    else:
        host = Matroid(n, host._rank_mask)
    return host, target, candidates


@settings(max_examples=200, deadline=None)
@given(case=edge_embedding_cases())
def test_edge_cases_match_the_all_subsets_search(case):
    host, target, candidates = case
    phi = embedding_all_subsets(Matroid(host.size, host._rank_mask),
                                Matroid(target.size, target._rank_mask),
                                candidates)
    assert find_embedding(host, target, candidates) == phi


class _GatherSpy(np.ndarray):
    """A rank table that records how many entries each gather reads."""

    reads: list = []

    def __getitem__(self, index):
        type(self).reads.append(np.size(index))
        return np.ndarray.__getitem__(self.view(np.ndarray), index)


@settings(max_examples=100, deadline=None)
@given(embedding_cases(), st.integers(1, 40))
def test_gathers_stay_within_the_read_block(case, block):
    """With READ_BLOCK cut to a few entries, the blocked gathers read no
    more at a time (one mask row at least) and accept the same candidates."""
    host, target, candidates = case
    expect = embedding_all_subsets(Matroid(host.size, host._rank_mask),
                                   target, candidates)
    host._table = rank_table(host).view(_GatherSpy)
    _GatherSpy.reads = []
    with mock.patch.object(isomorphism, "READ_BLOCK", block):
        assert find_embedding(host, target, candidates) == expect
    assert max(_GatherSpy.reads, default=0) <= max(block, host.size)
