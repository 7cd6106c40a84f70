"""Property-based invariants over randomly generated matroids.

Strategies draw small linear matroids over GF(2)/GF(3) and small
multigraphs; each property restates a rank-function law that every
instance must satisfy regardless of how it was produced.
"""

from hypothesis import given, settings, strategies as st

from matroidkit import (
    connectivity_mask,
    dual,
    from_graph,
    from_matrix,
    has_minor,
    kappa,
    same_rank_function,
    uniform,
    validate_rank_axioms,
)

from oracles import kappa_brute, minor_brute


@st.composite
def linear_matroids(draw, max_rows=4, max_cols=8, min_cols=1):
    p = draw(st.sampled_from((2, 3)))
    r = draw(st.integers(1, max_rows))
    n = draw(st.integers(max(r, min_cols), max_cols))
    rows = [[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(r)]
    return from_matrix(rows, p)


@st.composite
def graph_matroids(draw, max_vertices=5, max_edges=8):
    nv = draw(st.integers(2, max_vertices))
    ne = draw(st.integers(1, max_edges))
    edges = [(draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1)))
             for _ in range(ne)]
    return from_graph(nv, edges)


@settings(max_examples=60, deadline=None)
@given(st.one_of(linear_matroids(), graph_matroids()))
def test_rank_axioms_hold(m):
    validate_rank_axioms(m)


@settings(max_examples=50, deadline=None)
@given(linear_matroids(max_cols=8))
def test_duality_is_an_involution(m):
    dd = dual(dual(m))
    assert dd.size == m.size
    assert same_rank_function(m, dd)


@settings(max_examples=50, deadline=None)
@given(linear_matroids(), st.data())
def test_connectivity_is_submodular(m, data):
    full = m.full_mask
    x = data.draw(st.integers(0, full), label="X")
    y = data.draw(st.integers(0, full), label="Y")
    lhs = connectivity_mask(m, x | y) + connectivity_mask(m, x & y)
    rhs = connectivity_mask(m, x) + connectivity_mask(m, y)
    assert lhs <= rhs


@settings(max_examples=40, deadline=None)
@given(linear_matroids(max_rows=3, max_cols=7, min_cols=4), st.data())
def test_kappa_agrees_with_exhaustive_minimum(m, data):
    els = list(range(m.size))
    xs = data.draw(st.permutations(els), label="order")
    a, b = sorted(xs[:2]), sorted(xs[2:4])
    value, wit = kappa(m, a, b)
    assert value == kappa_brute(m, a, b)
    # the witness side separates a from b at exactly that order
    side = set(wit.side)
    assert set(a) <= side and not side & set(b)
    assert connectivity_mask(m, m.mask(side)) == value


@settings(max_examples=25, deadline=None)
@given(linear_matroids(max_rows=3, max_cols=7),
       st.sampled_from([(2, 3), (2, 4), (1, 2), (3, 4)]))
def test_minor_search_agrees_with_unpruned_oracle(m, shape):
    target = uniform(*shape)
    assert (has_minor(m, target) is not None) == minor_brute(m, target)
