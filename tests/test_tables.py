"""Differential tests: the cached rank-table paths against plain oracles.

Each fast path (the doubling DP for GF(p) tables, which graphs and
decorated graphs reach through their incidence matrix over the vertices
their edges touch, the array transforms for recipe tables, table equality in
same_rank_function, the subset-closure sweep in tangle membership) is
compared with the subset-by-subset definition it replaces. The mask
families these sweeps read come from _bits.spread, which is compared with
the bit-by-bit shift form, _bits.spread_choose with spread's masks of
one size, and _bits.spread_at with the shift form. The packed family
kernels of _bits (pack, downward closure, complement, maximal members) are
compared with the one-byte flag loops of oracles. kappa, a matroid intersection through the
oracle, is compared with the table-gather sweep it replaced (kappa_sweep)
on inputs too wide for the brute walk, and with itself on the bare oracle
of the same matroid, including on ground sets too large for a table.
"""

import functools
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroidkit import (
    clique,
    direct_sum,
    dual,
    from_graph,
    from_matrix,
    free_extension,
    kappa,
    minor_with_map,
    principal_extension,
    rank_table,
    same_rank_function,
    truncation,
    uniform,
    whirl,
)
from matroidkit._bits import (CHOOSE_SPLIT, WORD, complement, elements_of,
                              first_member, has_member, maximal_family,
                              members, or_up, pack, pack_masks,
                              popcount_table, spread, spread_at,
                              spread_choose, unpack)
from matroidkit.core import Matroid, closure_mask, lambda_table
from matroidkit.representations import GraphRep, LinearRep
from matroidkit.tangles import Tangle, _separating, _under

from oracles import (
    down_closure_flags,
    gf_rank,
    graph_rank,
    kappa_brute,
    kappa_sweep,
    lam,
    lambda_flags,
    least_kappa_witness,
    maximal_members_loop,
)
from test_minor_reps import decorated_reps
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
    oracle = g.matroid()._rank_mask  # not memoized
    assert [oracle(mask) for mask in range(1 << len(g.edges))] == expected


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
@given(st.one_of(linear_matroids(), graph_matroids(),
                 decorated_reps().map(lambda rep: rep.matroid())))
def test_lambda_table_matches_the_oracle_walk(m):
    got = lambda_table(rank_table(m))
    assert got.dtype == np.uint8
    assert np.array_equal(got, lambda_flags(m))


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
    small = _under(t) & _separating(lambda_table(rank_table(m)), theta)
    assert np.array_equal(unpack(small, n), separating & under)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32 - 1),
       st.sampled_from((0.0, 0.02, 0.3, 0.7, 1.0)))
def test_packed_kernels_match_the_flag_loops(n, seed, density):
    """Up to n = 5 the family fits in one partly filled word."""
    flags = np.random.default_rng(seed).random(1 << n) < density
    full = (1 << n) - 1
    words = pack(flags)
    assert words.dtype == WORD and words.size == max(1, (1 << n) // 64)
    assert np.array_equal(unpack(words, n), flags)
    assert np.array_equal(pack_masks(np.flatnonzero(flags).tolist(), n), words)
    assert members(words).tolist() == np.flatnonzero(flags).tolist()
    assert first_member(words) == next(
        (x for x in range(1 << n) if flags[x]), None)
    assert [has_member(words, x) for x in range(1 << n)] == flags.tolist()
    comp = complement(words, n)
    assert unpack(comp, n).tolist() == [flags[full ^ x] for x in range(1 << n)]
    under = words.copy()
    closed = or_up(under, under, n)
    assert np.array_equal(unpack(closed, n), down_closure_flags(flags, n))
    top = maximal_family(words, n)
    assert members(top).tolist() == list(maximal_members_loop(flags, n))
    for w in (comp, closed, top):  # the bits past 2^n stay clear
        assert not np.unpackbits(w.view(np.uint8),
                                 bitorder="little")[1 << n:].any()


@st.composite
def dependent_linear_reps(draw, max_cols=10):
    """Zero rows and zero, repeated and dependent columns all occur; over
    GF(2), sometimes more rows than fit in one packed machine word."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nr = draw(st.integers(0, 5) if p != 2 else
              st.one_of(st.integers(0, 5), st.just(65)))
    entry = st.integers(0, p - 1)
    cols = []
    for _ in range(draw(st.integers(0, max_cols))):
        how = draw(st.sampled_from(("random", "zero", "copy", "combination")))
        if how == "zero":
            cols.append((0,) * nr)
        elif how == "random" or not cols:
            cols.append(tuple(draw(entry) for _ in range(nr)))
        elif how == "copy":
            cols.append(draw(st.sampled_from(cols)))
        else:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            ca, cb = draw(entry), draw(entry)
            cols.append(tuple((ca * x + cb * y) % p for x, y in zip(a, b)))
    if nr and draw(st.booleans()):  # a zero row
        row = draw(st.integers(0, nr - 1))
        cols = [c[:row] + (0,) + c[row + 1:] for c in cols]
    return LinearRep(p, nr, tuple(cols))


@settings(max_examples=150, deadline=None)
@given(dependent_linear_reps())
def test_linear_table_dp_matches_elimination_on_every_mask(rep):
    table = rep.rank_table_fast()
    assert table.dtype == np.uint8
    cols = rep.columns
    expected = [gf_rank([cols[e] for e in range(len(cols)) if (x >> e) & 1],
                        rep.prime)
                for x in range(1 << len(cols))]
    assert table.tolist() == expected


def _oracle_walk(m):
    return np.fromiter(map(m._rank_mask, range(1 << m.size)), np.uint8)


@settings(max_examples=80, deadline=None)
@given(decorated_reps())
def test_decorated_graph_table_matches_oracle_walk(rep):
    m = rep.matroid()
    assert np.array_equal(rank_table(m), _oracle_walk(m))


def _bare(m):
    """The same rank function with no provenance: no table builder."""
    return Matroid(m.size, m._rank_mask)


@st.composite
def recipes(draw, depth=3):
    """Recipe matroids of at most 12 elements over represented and bare
    operands, including minors of recipes."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        how = draw(st.sampled_from(("linear", "graph", "bare", "uniform",
                                    "whirl")))
        if how == "uniform":
            n = draw(st.integers(0, 7))
            return uniform(draw(st.integers(0, n)), n)
        if how == "whirl":
            return whirl(draw(st.integers(2, 4)))
        m = draw(linear_matroids(max_cols=6) if how != "graph"
                 else graph_matroids(max_edges=6))
        return _bare(m) if how == "bare" else m
    m = draw(recipes(depth=depth - 1))
    ops = ["dual", "minor"]
    if m.size < 12:
        ops += ["free-extension", "principal-extension", "direct-sum"]
    if m.full_rank() > 0:
        ops.append("truncation")
    op = draw(st.sampled_from(ops))
    if op == "dual":
        return dual(m)
    if op == "truncation":
        return truncation(m)
    if op == "free-extension":
        return free_extension(m)
    if op == "principal-extension":
        seed = draw(st.integers(0, m.full_mask))
        return principal_extension(m, elements_of(closure_mask(m, seed)))
    if op == "direct-sum":
        other = draw(recipes(depth=0))
        if m.size + other.size > 12:
            return m
        return direct_sum(m, other)
    roles = draw(st.lists(st.sampled_from("ckd"), min_size=m.size,
                          max_size=m.size))
    minor, _ = minor_with_map(
        m, [e for e in range(m.size) if roles[e] == "c"],
        [e for e in range(m.size) if roles[e] == "d"])
    return minor


@settings(max_examples=200, deadline=None)
@given(recipes())
def test_recipe_table_matches_its_own_oracle_walk(m):
    expected = _oracle_walk(m)
    assert np.array_equal(rank_table(m), expected)


def _counting(m):
    """m's rank function and provenance, counting oracle calls."""
    calls = []

    def rank_mask(mask):
        calls.append(mask)
        return m._rank_mask(mask)

    return Matroid(m.size, rank_mask, provenance=m.provenance), calls


def test_recipe_tables_never_walk_an_operand_oracle():
    base, calls = _counting(from_matrix(
        [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]], 2))
    minor, _ = minor_with_map(truncation(free_extension(dual(base))),
                              [0], [3])
    flat = elements_of(closure_mask(minor, 0b11))
    m = direct_sum(principal_extension(minor, flat), uniform(2, 3))
    calls.clear()  # the constructors read full ranks and closures
    table = rank_table(m)
    assert calls == []
    assert np.array_equal(table, _oracle_walk(m))
    assert calls  # the reference walk does reach the base's oracle


def test_recipe_over_a_bare_operand_walks_only_its_own_oracle():
    bare, calls = _counting(_bare(from_matrix(
        [[1, 0, 1, 1, 0, 1, 1, 0], [0, 1, 1, 0, 1, 1, 0, 2]], 3)))
    minor, _ = minor_with_map(dual(bare), [0, 1, 2], [3, 4, 5])
    calls.clear()
    table = rank_table(minor)
    assert 0 < len(calls) <= 1 << minor.size  # never all 2^8 base subsets
    assert np.array_equal(table, _oracle_walk(minor))
    rank_table(bare)  # once the operand's table is cached, it is used
    d = dual(bare)
    calls.clear()
    table = rank_table(d)
    assert calls == []
    assert np.array_equal(table, _oracle_walk(d))


def test_graph_table_budget_declines_before_allocating():
    # A graph builds its table through its GF(2) incidence matrix: 22 edges
    # touch at most 44 rows, packed into uint64, so 2^22 x 25 B stays under
    # TABLE_BUDGET. A GF(3) matrix of 12 rows and 22 columns needs
    # 2^22 x 37 B and must decline without allocating.
    wide = LinearRep(3, 12, tuple(tuple(int(i == j % 12) for i in range(12))
                                  for j in range(22)))
    tracemalloc.start()
    try:
        assert wide.rank_table_fast() is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    table = clique(7).provenance.rank_table_fast()  # 21 edges, 7 vertices
    assert table is not None and table[-1] == 6


def test_graph_rank_cost_does_not_depend_on_n_vertices():
    path = from_graph(10**6, [(i, i + 1) for i in range(16)])
    tracemalloc.start()
    try:
        assert path.full_rank() == 16 and path.r(0b1011) == 3
        _, peak = tracemalloc.get_traced_memory()
        # before the table, which would take 2^16 reads of any such cost
        assert peak < 1 << 20
        assert np.array_equal(rank_table(path), popcount_table(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_graph_table_dp_with_wide_vertex_labels():
    edges = tuple(((13 * i) % 300, (29 * i + 5) % 300) for i in range(9))
    g = GraphRep(300, edges + ((299, 0), (0, 299), (7, 7)))
    assert g.rank_table_fast().tolist() == [
        graph_rank(300, g.edges, x) for x in range(1 << len(g.edges))]


def test_popcount_table():
    assert popcount_table(0).tolist() == [0]
    assert popcount_table(10).tolist() == [x.bit_count()
                                           for x in range(1 << 10)]


def test_vectorized_kappa_matches_least_minimizer_loop():
    # 19 elements, 17 free: the vectorized sweep. The reference walks the
    # sides in ascending mask order and keeps the first minimum.
    m, _ = minor_with_map(clique(7), (), (0, 1))
    x, y = 1 << 4, 1 << 12
    t = rank_table(m).tolist()
    full, rm = m.full_mask, m.full_rank()
    best = None
    for z in range(1 << m.size):
        if z & x and not z & y:
            value = t[z] + t[full ^ z] - rm
            if best is None or value < best[0]:
                best = (value, z)
    value, cert = kappa(m, [4], [12])
    assert (value, sum(1 << e for e in cert.side)) == best


@st.composite
def spread_cases(draw):
    """A base and weights, all below 2^31 or all below 2^64; zero weights
    and single bits up to 63 both occur."""
    width = draw(st.sampled_from((31, 64)))
    bit = st.integers(0, width - 1).map(lambda b: 1 << b)
    word = st.one_of(st.just(0), bit, st.integers(0, (1 << width) - 1))
    return draw(word), draw(st.lists(word, max_size=8))


@settings(max_examples=300, deadline=None)
@given(spread_cases())
def test_spread_matches_the_shift_form(case):
    base, weights = case
    out = spread(base, weights)
    expected = [functools.reduce(
        operator.or_, (w for i, w in enumerate(weights) if (s >> i) & 1), base)
        for s in range(1 << len(weights))]
    assert out.tolist() == expected
    assert out.dtype == (np.int32 if max(expected) < 1 << 31 else np.uint64)


@settings(max_examples=300, deadline=None)
@given(spread_cases(), st.integers(0, 9))
def test_spread_choose_keeps_the_masks_of_one_size(case, size):
    base, weights = case
    out = spread_choose(base, weights, size)
    whole = spread(base, weights)
    assert out.dtype == whole.dtype
    assert out.tolist() == whole[popcount_table(len(weights)) == size].tolist()


@pytest.mark.parametrize("width", [31, 64])
def test_spread_choose_past_its_split(width):
    rng = random.Random(width)
    base = rng.getrandbits(width)
    weights = [rng.getrandbits(width) for _ in range(CHOOSE_SPLIT + 3)]
    whole = spread(base, weights)
    count = popcount_table(len(weights))
    for size in (0, 1, 9, CHOOSE_SPLIT + 2, CHOOSE_SPLIT + 3):
        out = spread_choose(base, weights, size)
        assert out.dtype == whole.dtype
        assert np.array_equal(out, whole[count == size])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((31, 64)).flatmap(lambda width: st.tuples(
    st.integers(0, (1 << width) - 1),
    st.lists(st.integers(0, (1 << width) - 1), max_size=22))), st.data())
def test_spread_at_matches_the_shift_form(case, data):
    """One byte table per 8 weights, against ORing the weights of each
    index's set bits."""
    base, weights = case
    index = data.draw(st.lists(st.integers(0, (1 << len(weights)) - 1),
                               max_size=40), label="index")
    out = spread_at(base, weights, np.array(index, dtype=np.int32))
    assert out.dtype == (np.uint64 if max((base, *weights)) >> 31
                         else np.int32)
    assert out.tolist() == [functools.reduce(
        operator.or_, (w for i, w in enumerate(weights) if s >> i & 1), base)
        for s in index]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, (1 << 64) - 1), st.sets(st.integers(0, 63), max_size=8))
def test_spread_ascends_over_single_bits_that_miss_the_base(base, positions):
    weights = [1 << p for p in sorted(positions) if not (base >> p) & 1]
    out = spread(base, weights).tolist()
    assert all(a < b for a, b in zip(out, out[1:]))


@st.composite
def kappa_cases(draw):
    """A GF(2), GF(3) or graph matroid with disjoint sides X and Y."""
    m = draw(st.one_of(linear_matroids(), graph_matroids()))
    roles = draw(st.lists(st.sampled_from("xyf"), min_size=m.size,
                          max_size=m.size))
    return (m, [e for e, r in enumerate(roles) if r == "x"],
            [e for e, r in enumerate(roles) if r == "y"])


@settings(max_examples=150, deadline=None)
@given(kappa_cases())
def test_kappa_on_tables_matches_its_bare_oracle_twin(case):
    m, xs, ys = case
    value, cert = kappa(m, xs, ys)
    assert kappa(Matroid(m.size, m._rank_mask), xs, ys) == (value, cert)
    assert value == kappa_brute(m, xs, ys)
    assert m.mask(cert.side) == least_kappa_witness(m, xs, ys, value)


@settings(max_examples=20, deadline=None)
@given(st.integers(33, 64), st.integers(0, 10),
       st.randoms(use_true_random=False))
def test_kappa_on_wide_bare_oracles_matches_the_brute_walk(n, f, rnd):
    # no table: every mask from bit 31 up travels in the uint64 branch
    rows = [[rnd.randrange(2) for _ in range(n)]
            for _ in range(rnd.randint(1, 6))]
    m = Matroid(n, from_matrix(rows, 2)._rank_mask)
    free = set(rnd.sample(range(n), f))
    xs = [e for e in range(n) if e not in free and rnd.random() < 0.5]
    ys = [e for e in range(n) if e not in free and e not in xs]
    value, cert = kappa(m, xs, ys)
    assert value == kappa_brute(m, xs, ys)
    assert m.mask(cert.side) == least_kappa_witness(m, xs, ys, value)


@st.composite
def two_block_kappa_cases(draw):
    """Shaped like the benchmark's kappa input: a GF(2) or GF(3) matrix of
    13-18 columns with two diagonal blocks, columns shuffled; X is one
    element and Y is empty or one element."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(13, 18))
    n1 = draw(st.integers(1, n - 1))
    entry = st.integers(0, p - 1)
    rows = []
    for lo, hi in ((0, n1), (n1, n)):
        for _ in range(draw(st.integers(1, min(hi - lo, 5)))):
            row = draw(st.lists(entry, min_size=hi - lo, max_size=hi - lo))
            rows.append([0] * lo + row + [0] * (n - hi))
    order = draw(st.permutations(range(n)))
    rows = [[row[j] for j in order] for row in rows]
    x = draw(st.integers(0, n - 1))
    ys = draw(st.sampled_from([[]] + [[e] for e in range(n) if e != x]))
    return from_matrix(rows, p), [x], ys


@settings(max_examples=40, deadline=None)
@given(two_block_kappa_cases())
def test_kappa_matches_the_table_sweep_on_two_block_matrices(case):
    # up to 17 free elements: past kappa_brute, within one rank table
    m, xs, ys = case
    value, cert = kappa(m, xs, ys)
    assert (value, m.mask(cert.side)) == kappa_sweep(m, xs, ys)


def test_kappa_on_a_64_element_bare_oracle_stays_small():
    # 62 free elements and no table: the reads are polynomially many
    rnd = random.Random(64)
    rows = [[rnd.randrange(2) for _ in range(64)] for _ in range(8)]
    m = Matroid(64, from_matrix(rows, 2)._rank_mask)
    tracemalloc.start()
    try:
        value, cert = kappa(m, [0], [63])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert lam(m, m.mask(cert.side)) == value
