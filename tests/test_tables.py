"""Differential tests: the cached rank-table paths against plain oracles.

Each fast path (the doubling DP for graph tables, table equality in
same_rank_function, the subset-closure sweep in tangle membership) is
compared with the subset-by-subset definition it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroidkit import dual, from_graph, from_matrix, rank_table, same_rank_function
from matroidkit.representations import GraphRep
from matroidkit.tangles import Tangle, _small_flags

from oracles import graph_rank, lam
from test_properties import graph_matroids, linear_matroids


@st.composite
def multigraphs(draw, max_vertices=6, max_edges=10):
    """Loops, parallel edges and isolated vertices all occur."""
    nv = draw(st.integers(1, max_vertices))
    edge = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
    edges = draw(st.lists(edge, max_size=max_edges))
    return GraphRep(nv, tuple(edges))


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_graph_table_dp_matches_union_find_on_every_mask(g):
    table = g.rank_table_fast()
    assert table.dtype == np.uint8
    expected = [graph_rank(g.n_vertices, g.edges, mask)
                for mask in range(1 << len(g.edges))]
    assert table.tolist() == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(linear_matroids(), graph_matroids()))
def test_rank_table_is_cached_and_read_only(m):
    table = rank_table(m)
    assert rank_table(m) is table
    assert table.tolist() == [m.r(mask) for mask in range(1 << m.size)]
    with pytest.raises(ValueError):
        table[0] = 1


def _same_by_loop(a, b) -> bool:
    return a.size == b.size and all(
        a.r(mask) == b.r(mask) for mask in range(1 << a.size))


@st.composite
def matroid_pairs(draw):
    """Same-size pairs: independent draws (mostly unequal), a double dual
    (equal, different provenance), and a graph beside its GF(2) incidence
    matrix (equal, graph table against oracle table)."""
    how = draw(st.sampled_from(("random", "double-dual", "incidence")))
    if how == "incidence":
        g = draw(multigraphs(max_vertices=5, max_edges=8))
        rows = [[int(u != v and w in (u, v)) for u, v in g.edges]
                for w in range(g.n_vertices)]
        return g.matroid(), from_matrix(rows, 2)
    a = draw(linear_matroids(max_cols=7, min_cols=3))
    if how == "double-dual":
        return a, dual(dual(a))
    p = draw(st.sampled_from((2, 3)))
    rows = [[draw(st.integers(0, p - 1)) for _ in range(a.size)]
            for _ in range(draw(st.integers(1, 4)))]
    return a, from_matrix(rows, p)


@settings(max_examples=120, deadline=None)
@given(matroid_pairs())
def test_same_rank_function_matches_subset_loop(pair):
    a, b = pair
    assert same_rank_function(a, b) == _same_by_loop(a, b)


@settings(max_examples=60, deadline=None)
@given(st.one_of(linear_matroids(), graph_matroids()), st.data())
def test_small_flags_match_per_member_definition(m, data):
    n = m.size
    theta = data.draw(st.integers(1, 4), label="theta")
    maximal = data.draw(st.lists(st.integers(0, m.full_mask), max_size=6),
                        label="maximal")
    t = Tangle(m, theta, maximal)
    idx = np.arange(1 << n, dtype=np.int64)
    under = np.zeros(1 << n, dtype=bool)
    for mx in maximal:
        under |= (idx & ~mx) == 0
    separating = np.array([lam(m, x) < theta - 1 for x in range(1 << n)])
    assert np.array_equal(_small_flags(t), separating & under)
