import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroidkit import (clique, dual, fano, is_isomorphic, rank_table,
                        simplify, uniform, whirl)
from matroidkit.constructions import (
    n_square,
    n_square_even_cycle_rep,
    n_triangle,
    n_triangle_signed_rep,
)
from matroidkit.errors import DomainError, GroundSetError
from matroidkit.exchange import deserialize, serialize
from matroidkit.representations import (
    EvenCycleRep,
    GraphRep,
    LinearRep,
    SignedGraphRep,
    _eliminate,
    even_cycle,
    from_graph,
    from_matrix,
    has_blocking_pair,
    signed_graphic,
    standard_rep,
)
from oracles import (blocking_pair_walk, gf_rank, graph_minor_walk, graph_rank,
                     linear_rep_brute)
from strategies import graph_reps, linear_reps, planted_reps
from test_minor_reps import decorated_reps, with_split


def _parity_components(n, edges, odd, mask):
    """Union-find with edge parity. Returns (merges, unbalanced roots)."""
    parent = list(range(n))
    par = [0] * n
    unbalanced = set()

    def find(x):
        p = 0
        while parent[x] != x:
            p ^= par[x]
            x = parent[x]
        return x, p

    merges = 0
    for i, (u, v) in enumerate(edges):
        if not (mask >> i) & 1:
            continue
        w = 1 if i in odd else 0
        ru, pu = find(u)
        rv, pv = find(v)
        if ru == rv:
            if pu ^ pv ^ w:
                unbalanced.add(ru)
        else:
            parent[ru] = rv
            par[ru] = pu ^ pv ^ w
            merges += 1
            if ru in unbalanced:
                unbalanced.discard(ru)
                unbalanced.add(rv)
    roots = {find(x)[0] for x in range(n)}
    return merges, {r for r in roots if find(r)[0] in unbalanced}


def lift_rank(rep, mask):
    merges, unb = _parity_components(rep.n_vertices, rep.edges, rep.odd, mask)
    return merges + (1 if unb else 0)


def frame_rank(rep, mask):
    merges, unb = _parity_components(rep.n_vertices, rep.edges, rep.odd, mask)
    return merges + len(unb)


def test_from_matrix_rank_agrees_with_elimination():
    rows2 = [[1, 0, 1, 1, 0, 1],
             [0, 1, 1, 0, 1, 1],
             [0, 0, 0, 1, 1, 1]]
    rows3 = [[1, 0, 0, 1, 1, 0, 2],
             [0, 1, 0, 1, 2, 1, 0],
             [0, 0, 1, 0, 1, 2, 1]]
    for rows, p in ((rows2, 2), (rows3, 3)):
        m = from_matrix(rows, p)
        cols = [[row[j] for row in rows] for j in range(len(rows[0]))]
        for mask in range(1 << m.size):
            sel = [cols[j] for j in range(m.size) if (mask >> j) & 1]
            assert m.r(mask) == gf_rank(sel, p)


def test_from_matrix_rejects_bad_prime():
    with pytest.raises(DomainError):
        from_matrix([[1, 0]], 4)


@pytest.mark.parametrize("n_rows, columns", [
    (-1, ()),                      # negative row count
    (1.0, ((1,),)),                # row count not an int
    (True, ((1,),)),               # nor a bool
    (2, ((1, 0), (0.0, 1))),       # float entry
    (2, ((1, 0), (True, 1))),      # bool entry
    (2, ((1, 0), (np.int64(0), 1))),  # numpy integer entry
    (2, ((1, 0), (0, 2))),         # not reduced mod 2
    (2, ((1, 0), (0, -1))),
    (2, ((1, 0), (1,))),           # ragged
])
def test_linear_rep_rejects_malformed_fields(n_rows, columns):
    with pytest.raises(DomainError):
        LinearRep(2, n_rows, columns)


def test_from_graph_rank_is_spanning_forest_size():
    nv, edges = 5, [(0, 1), (1, 2), (2, 0), (3, 3), (3, 4), (3, 4), (0, 4)]
    m = from_graph(nv, edges)
    for mask in range(1 << m.size):
        assert m.r(mask) == graph_rank(nv, edges, mask)


def test_from_graph_rejects_bad_endpoint():
    with pytest.raises(GroundSetError):
        from_graph(2, [(0, 5)])


@pytest.mark.parametrize("build, args", [
    (from_graph, (3.0, [(0, 1)])),
    (from_graph, (True, [])),
    (GraphRep, ("3", ())),
    (GraphRep, (3, ((0.0, 1),))),
    (GraphRep, (3, ((0, True),))),
    (EvenCycleRep, (3, ((1.0, 2),), frozenset())),
    (SignedGraphRep, (3.0, ((0, 1),), frozenset({0}))),
    (from_graph, (3, [(0.7, 2.9)])),
    (even_cycle, (3, [(0.7, 2.9)], ())),
    (signed_graphic, (3, [(1, 2.0)], (0,))),
    (from_graph, (3, [(True, 2)])),
], ids=["float-count", "bool-count", "str-count", "float-end", "bool-end",
        "even-cycle-float-end", "signed-float-count", "from-graph-float-end",
        "even-cycle-builder-float-end", "signed-builder-float-end",
        "from-graph-bool-end"])
def test_graph_rejects_non_int_vertex_count_or_endpoint(build, args):
    with pytest.raises(GroundSetError):
        build(*args)


def test_even_cycle_rank_is_lift_formula():
    # triangle with one odd edge, an odd loop, an even loop, a doubled edge
    rep = EvenCycleRep(3, ((0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (0, 1)),
                       frozenset({0, 3, 5}))
    m = rep.matroid()
    for mask in range(1 << m.size):
        assert m.r(mask) == lift_rank(rep, mask)
    big = n_square_even_cycle_rep(4)
    mb = big.matroid()
    for mask in range(1 << mb.size):
        assert mb.r(mask) == lift_rank(big, mask)


def test_signed_graph_rank_is_frame_formula():
    # two components that can be unbalanced independently
    rep = SignedGraphRep(4, ((0, 1), (0, 1), (2, 3), (2, 2), (3, 3)),
                         frozenset({1, 3}))
    m = rep.matroid()
    for mask in range(1 << m.size):
        assert m.r(mask) == frame_rank(rep, mask)
    big = n_triangle_signed_rep(3)
    mb = big.matroid()
    for mask in range(1 << mb.size):
        assert mb.r(mask) == frame_rank(big, mask)


@settings(max_examples=100, deadline=None)
@given(decorated_reps())
def test_decorated_graph_ranks_match_the_parity_formulas(rep):
    # isolated vertices get no row of to_linear(); loops, parallel edges
    # and odd loops all occur
    formula = lift_rank if isinstance(rep, EvenCycleRep) else frame_rank
    expected = [formula(rep, mask) for mask in range(1 << len(rep.edges))]
    oracle = rep.matroid()._rank_mask
    assert [oracle(mask) for mask in range(1 << len(rep.edges))] == expected
    assert rep.rank_table_fast().tolist() == expected


def test_decorated_reps_realize_the_contracted_families():
    a = n_square_even_cycle_rep(3).matroid()
    assert is_isomorphic(a, simplify(n_square(3))[0]) is not None
    b = n_triangle_signed_rep(3).matroid()
    assert is_isomorphic(b, simplify(n_triangle(3))[0]) is not None


def test_blocking_pair_found_and_absent():
    assert has_blocking_pair(n_square_even_cycle_rep(4)) == (0, 1)
    # three vertex-disjoint odd edges cannot be covered by two vertices
    rep = EvenCycleRep(6, ((0, 1), (2, 3), (4, 5)), frozenset({0, 1, 2}))
    assert has_blocking_pair(rep) is None
    # signed variant with a coverable odd set
    srep = SignedGraphRep(4, ((0, 1), (0, 2), (0, 3)), frozenset({0, 1, 2}))
    assert has_blocking_pair(srep) == (0, 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(linear_reps(max_rows=6), planted_reps()), st.data())
def test_eliminate_pivots_as_often_as_the_reference_rank(rep, data):
    p, n = rep.prime, len(rep.columns)
    chosen = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    a = [[col[j] for col in rep.columns] for j in range(rep.n_rows)]
    piv = _eliminate(a, p, chosen)
    assert len(piv) == gf_rank([rep.columns[j] for j in chosen], p)
    for i, row in enumerate(a):  # pivot rows first, each a unit on piv
        assert [row[j] for j in piv] == [int(i == t) for t in range(len(piv))]
    # row operations keep the rank, and pivoting on every column finds it
    assert gf_rank(a, p) == gf_rank(rep.columns, p)
    assert len(_eliminate(a, p, range(n))) == gf_rank(rep.columns, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_linear_minor_rep_without_columns_or_rows(p):
    assert LinearRep(p, 3, ()).minor_rep((), ()) == LinearRep(p, 3, ())
    rep = LinearRep(p, 0, ((),) * 4)
    assert rep.minor_rep((0, 2), (1,)) == LinearRep(p, 0, ((),))


def test_linear_minor_rep_keeps_the_order_of_unpivoted_rows():
    # the pivot for column 0 is the last row; rows 0 and 1 stay in order
    rep = LinearRep(3, 3, ((0, 0, 1), (1, 1, 1), (1, 2, 0)))
    assert rep.minor_rep((0,), ()) == LinearRep(3, 2, ((1, 1), (1, 2)))


@settings(max_examples=150, deadline=None)
@given(with_split(graph_reps(max_vertices=8)))
def test_graph_minor_rep_matches_the_walk_over_every_vertex(case):
    g, (contract, delete) = case
    minor = g.minor_rep(contract, delete)
    assert (minor.n_vertices, minor.edges) == graph_minor_walk(
        g.n_vertices, g.edges, contract, delete)


@settings(max_examples=150, deadline=None)
@given(decorated_reps(max_vertices=8))
def test_blocking_pair_matches_the_walk_over_every_pair(rep):
    odd_edges = [rep.edges[i] for i in rep.odd]
    assert has_blocking_pair(rep) == blocking_pair_walk(rep.n_vertices,
                                                        odd_edges)


def test_graph_minor_cost_does_not_depend_on_n_vertices():
    path = GraphRep(10**6, tuple((i, i + 1) for i in range(16)))
    tracemalloc.start()
    try:
        minor = path.minor_rep((0,), (1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert minor == GraphRep(10**6 - 1, tuple((i, i + 1)
                                              for i in range(1, 15)))


def test_blocking_pair_needs_decorated_graph():
    with pytest.raises(DomainError):
        has_blocking_pair(GraphRep(3, ((0, 1), (1, 2))))


def test_decorated_graph_kinds_stay_apart():
    fields = (3, ((0, 1), (1, 2), (2, 0), (1, 1)), frozenset({0, 3}))
    ec, sg = EvenCycleRep(*fields), SignedGraphRep(*fields)
    assert ec != sg
    for rep in (ec, sg):
        minor = rep.minor_rep((), (1,))
        assert type(minor) is type(rep)
        assert minor == type(rep)(3, ((0, 1), (2, 0), (1, 1)),
                                  frozenset({0, 2}))
        back = deserialize(serialize(rep.matroid())).provenance
        assert type(back) is type(rep) and back == rep


# ---------------------------------------------------------------------------
# [I | A] off a rank table


NAMED_REPS = [
    ("U24-binary", uniform(2, 4), 2, False),
    ("F7-ternary", fano(), 3, False),
    ("F7*-ternary", dual(fano()), 3, False),
    ("U25-ternary", uniform(2, 5), 3, False),
    ("U35-ternary", uniform(3, 5), 3, False),
    ("whirl3-ternary", whirl(3), 3, True),
    ("U24-ternary", uniform(2, 4), 3, True),
    ("K4-ternary", clique(4), 3, True),
    ("F7-binary", fano(), 2, True),
]


@pytest.mark.parametrize("m, prime, representable",
                         [c[1:] for c in NAMED_REPS],
                         ids=[c[0] for c in NAMED_REPS])
def test_standard_rep_on_named_matroids(m, prime, representable):
    rep = standard_rep(rank_table(m), prime)
    assert (rep is not None) == representable
    if rep is not None:
        assert rep.prime == prime
        assert np.array_equal(rank_table(rep.matroid()), rank_table(m))


def test_standard_rep_needs_prime_2_or_3():
    with pytest.raises(DomainError):
        standard_rep(rank_table(uniform(2, 4)), 5)


@settings(max_examples=150, deadline=None)
@given(st.one_of(linear_reps(max_rows=4, max_cols=8, primes=(2, 3)),
                 planted_reps()))
def test_standard_rep_matches_brute_force_over_both_fields(rep):
    m = rep.matroid()
    table = rank_table(m)
    own = standard_rep(table, rep.prime)
    assert own is not None and own.prime == rep.prime
    assert np.array_equal(rank_table(own.matroid()), table)
    other = 5 - rep.prime
    found = standard_rep(table, other)
    assert (found is None) == (linear_rep_brute(m, other) is None)
    if found is not None:
        assert np.array_equal(rank_table(found.matroid()), table)
