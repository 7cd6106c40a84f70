"""Differential tests: the cached rank-table paths against plain oracles.

Each fast path (the codeword-support table for odd-prime matrices and
GF(2) matrices of more than 64 rows and its subset sums, the doubling DP
for the other GF(p) tables, which graphs and decorated graphs reach
through their incidence matrix over the vertices their edges touch; over
GF(2) its step is the batch oracle's leading-bit v = min(v, v ^ w) on
packed columns, drawn at every packed width and with the top bit set;
the array transforms for recipe tables and _bits.reversed_bytes, table
equality in same_rank_function, the subset-closure sweep in tangle
membership) is compared with the subset-by-subset definition it replaces.
The codeword enumeration's subset sums are compared with the sum over
subsets at every dtype they run on. The mask
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
from hypothesis import example, given, settings, strategies as st

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
                              popcount_table, reversed_bytes, spread,
                              spread_at, spread_choose, subset_sums, unpack)
from matroidkit.core import TABLE_BUDGET, Matroid, closure_mask, lambda_table
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
from strategies import planted_reps
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
    GF(2), row counts that fill each packed width (uint8 to uint64) and
    just pass it, and more rows than fit in one machine word."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nr = draw(st.integers(0, 5) if p != 2 else
              st.one_of(st.integers(0, 5),
                        st.sampled_from((8, 9, 16, 17, 32, 33, 64, 65))))
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


def _unit_columns(n):
    return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))


def _top_bit_rep(n_rows):
    """GF(2) columns that fill a packed width, most setting its top bit:
    dependent, repeated, zero and all-ones columns."""
    top, mid = 1 << n_rows - 1, 1 << n_rows // 2
    packed = (top | 1, top | 2, 3, top, top | 1, (top << 1) - 1, 0,
              top | mid, mid | 1)
    return LinearRep(2, n_rows, tuple(
        tuple(c >> j & 1 for j in range(n_rows)) for c in packed))


@settings(max_examples=150, deadline=None)
@given(st.one_of(dependent_linear_reps(), planted_reps()))
# the support table over the matrix's own rows: 7^3 <= 2^10
@example(LinearRep(7, 3, tuple((1, j % 7, j * j % 7) for j in range(10))))
# over its row-reduced rows: 6 rows of rank 3 on 8 columns
@example(LinearRep(3, 6, tuple(
    (x, y, z, x, (x + y) % 3, z) for x, y, z in
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 1), (0, 1, 2),
     (2, 2, 2), (1, 0, 0)])))
# over the dual code: rank 5 on 7 columns, so its basis has 2 rows
@example(LinearRep(3, 5, _unit_columns(5) + ((1, 1, 1, 1, 1),
                                                (1, 2, 0, 1, 2))))
# the doubling DP: rank 5 on 10 columns, 7^5 > 2^10
@example(LinearRep(7, 5, _unit_columns(5) + tuple(
    tuple((j + 1) ** i % 7 for i in range(5)) for j in range(5))))
# the GF(2) DP at each packed width with its top bit set, which a signed
# dtype would read as a sign, breaking the min reduction
@example(_top_bit_rep(8))
@example(_top_bit_rep(16))
@example(_top_bit_rep(32))
@example(_top_bit_rep(64))
def test_linear_table_dp_matches_elimination_on_every_mask(rep):
    # every path of LinearRep.rank_table_fast: the codeword-support table
    # (odd primes with p^k <= 2^m, and GF(2) over 64 rows) and the
    # doubling DP (the rest)
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
    # TABLE_BUDGET. A GF(7) matrix of rank 11 on 22 columns has 7^11 > 2^22
    # codewords, so it takes the doubling DP, which needs 2^22 x 34 B, and
    # must decline without allocating.
    wide = LinearRep(7, 11, tuple(
        tuple((1 + j // 11) * (i == j % 11) for i in range(11))
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


def test_gf2_dp_workspace_at_64_rows_and_22_columns():
    # the rank table and the old and new uint64 states: 2^22 x (1 + 8) B,
    # 36 MiB, at the last steps (39 MiB traced), with no state-sized
    # temporary beside them
    rng = random.Random(6422)
    rep = LinearRep(2, 64, tuple(
        tuple(rng.randrange(2) for _ in range(64)) for _ in range(22)))
    tracemalloc.start()
    try:
        table = rep.rank_table_fast()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table is not None and peak < 42 << 20
    oracle = rep.matroid()._rank_mask
    for mask in [0, (1 << 22) - 1] + [rng.getrandbits(22)
                                      for _ in range(2000)]:
        assert table[mask] == oracle(mask)


def test_support_table_budget_declines_before_allocating():
    # one GF(3) row on 25 columns: 3 codewords, but the counts, the table,
    # the exponent lookup and a temporary take 2^25 x 4 B > TABLE_BUDGET
    wide = LinearRep(3, 1, ((1,),) * 25)
    tracemalloc.start()
    try:
        assert wide.rank_table_fast() is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("n_rows", [11, 14, 22])
def test_gf3_tables_build_at_22_columns(n_rows):
    # the support table has at most 3^11 codewords to count, so GF(3)
    # builds at every shape up to TABLE_CAP, within TABLE_BUDGET
    rng = random.Random(n_rows)
    rep = LinearRep(3, n_rows, tuple(
        tuple(rng.randrange(3) for _ in range(n_rows)) for _ in range(22)))
    tracemalloc.start()
    try:
        table = rep.rank_table_fast()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table is not None and peak < TABLE_BUDGET
    oracle = rep.matroid()._rank_mask
    for mask in (rng.getrandbits(22) for _ in range(3000)):
        assert table[mask] == oracle(mask)


@pytest.mark.parametrize("n_rows,n_cols,rank", [(65, 20, 10), (70, 20, 20),
                                                 (70, 22, 11)])
def test_tall_gf2_tables_build_from_supports(n_rows, n_cols, rank):
    # columns of more than 64 bits pack into no unsigned int, and the
    # uint8 DP over them would need 1 + 3 * n_rows bytes per subset
    rng = random.Random(n_rows * n_cols + rank)
    basis = [[rng.randrange(2) for _ in range(n_cols)] for _ in range(rank)]
    rows = []
    for _ in range(n_rows):
        picked = [b for b in basis if rng.randrange(2)]
        rows.append([sum(b[j] for b in picked) % 2 for j in range(n_cols)])
    rep = from_matrix(rows, 2).provenance
    tracemalloc.start()
    try:
        table = rep.rank_table_fast()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table is not None and peak < TABLE_BUDGET
    oracle = rep.matroid()._rank_mask
    for mask in [0, (1 << n_cols) - 1] + [rng.getrandbits(n_cols)
                                          for _ in range(3000)]:
        assert table[mask] == oracle(mask)


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


@pytest.mark.parametrize("n", range(13))
def test_reversed_bytes_match_the_reversed_view(n):
    t = np.random.default_rng(n).integers(0, 256, 1 << n, dtype=np.uint8)
    t.setflags(write=False)  # as a cached rank table is
    out = reversed_bytes(t)
    assert out.dtype == np.uint8 and out.flags.writeable
    assert np.array_equal(out, t[::-1])
    assert not np.shares_memory(out, t)


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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((np.uint8, np.uint16, np.uint32)), st.integers(0, 8),
       st.data())
def test_subset_sums_match_the_sum_over_subsets(dtype, n, data):
    # n = 8 reaches every pass kind at every dtype: wide ints, uint64
    # columns and plain rows; the counts stay small enough not to overflow
    g = np.array(data.draw(st.lists(st.integers(0, 255 >> n), min_size=1 << n,
                                    max_size=1 << n)), dtype=dtype)
    expected = [sum(int(g[s]) for s in range(t + 1) if s & ~t == 0)
                for t in range(1 << n)]
    assert subset_sums(g).tolist() == expected


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
