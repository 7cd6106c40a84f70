"""Differential tests of core's rank reads against the plain oracle.

A matroid's ranks are read three ways: rank_reader (one mask: a byte of
its rank table, else Matroid.r), rank_gather (an array of masks: a gather
of the table, else oracle_view) and oracle_view (an array of masks from the
oracle itself, by its batch form from BATCH_MIN masks on). Each is compared
with m._rank_mask mask by mask, on matrices, graphs, decorated graphs,
their duals, recipes and bare twins, before and after the table is built.
The memory pins show that no read copies a table and that a bare target's
search keeps its reads out of the memo.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from matroidkit import (Matroid, clique, dual, from_matrix, has_minor,
                        is_isomorphic, rank_table)
from matroidkit import core, representations
from matroidkit.core import (BATCH_MIN, oracle_view, rank_gather,
                             rank_reader)

from strategies import graph_reps, linear_reps
from test_minor_reps import decorated_reps
from test_tables import recipes


@st.composite
def read_cases(draw):
    """A matroid, up to two duals of it, and perhaps a bare twin: its
    oracle function with no provenance, so no table builder, or a plain
    function around that oracle, with no batch form either."""
    reps = st.one_of(linear_reps(max_cols=9, primes=(2, 3, 5)),
                     graph_reps(max_edges=9), decorated_reps())
    m = draw(st.one_of(reps.map(lambda rep: rep.matroid()), recipes()))
    for _ in range(draw(st.integers(0, 2))):
        m = dual(m)
    twin = draw(st.sampled_from(("none", "bare", "plain")))
    if twin == "bare":
        m = Matroid(m.size, m._rank_mask)
    elif twin == "plain":
        m = Matroid(m.size, lambda mask, oracle=m._rank_mask: oracle(mask))
    order = np.random.default_rng(draw(st.integers(0, 99))).permutation(
        1 << m.size)
    return m, order.astype(draw(st.sampled_from((np.int32, np.uint64))))


def _check_reads(m, order, expected):
    r = rank_reader(m)
    assert [r(x) for x in range(1 << m.size)] == expected.tolist()
    assert np.array_equal(rank_gather(m, order), expected[order])
    # one mask at a time, then in batch from BATCH_MIN masks on
    for size in (BATCH_MIN - 1, BATCH_MIN, len(order)):
        cached = len(m._cache)
        for lo in range(0, len(order), size):
            block = order[lo:lo + size]
            assert np.array_equal(oracle_view(m, block), expected[block])
        assert len(m._cache) == cached  # the oracle view skips the memo


@settings(max_examples=120, deadline=None)
@given(read_cases())
def test_every_read_agrees_with_the_oracle(case):
    m, order = case
    expected = np.fromiter(map(m._rank_mask, range(1 << m.size)), np.uint8)
    _check_reads(m, order, expected)  # before rank_table, perhaps built
    assert np.array_equal(rank_table(m), expected)
    _check_reads(m, order, expected)  # after, from the cached table


def test_a_declined_build_walks_the_batch_form_by_blocks():
    # with no budget the DP declines, so rank_table walks the oracle, and
    # its batch form reads each READ_BLOCK of masks; the last block of 16
    # masks, under BATCH_MIN, goes one mask at a time
    m = from_matrix([[1, 0, 0, 1, 2, 3, 4, 1], [0, 1, 0, 1, 1, 2, 0, 3],
                     [0, 0, 1, 1, 4, 1, 2, 2]], 5)
    batch = m._rank_mask.batch
    calls = []
    m._rank_mask.batch = lambda masks: calls.append(len(masks)) or batch(
        masks)
    with mock.patch.object(representations, "TABLE_BUDGET", 0), \
            mock.patch.object(core, "READ_BLOCK", 48):
        table = rank_table(m)
    expected = np.fromiter(map(m._rank_mask, range(1 << m.size)), np.uint8)
    assert np.array_equal(table, expected)
    assert calls == [48] * 5
    assert not table.flags.writeable
    assert len(m._cache) == 0


def _allocated(call):
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_a_second_reader_copies_no_table():
    m = clique(7)  # a 2 MiB table
    r = rank_reader(m)
    again, peak = _allocated(lambda: rank_reader(m))
    assert peak < 64 << 10
    assert again(m.full_mask) == r(m.full_mask) == 6


def test_a_second_minor_search_copies_no_table():
    host, target = clique(7), clique(5)
    assert has_minor(host, target)
    found, peak = _allocated(lambda: has_minor(host, target))
    assert found
    assert peak < 64 << 10


def test_a_bare_target_is_searched_around_its_memo():
    # the target's prefix reads go through its oracle view, not Matroid.r
    host = clique(6)
    rank_table(host)
    twin = Matroid(host.size, lambda mask: host._rank_mask(mask))
    found, peak = _allocated(lambda: is_isomorphic(host, twin))
    assert found is not None
    assert peak < 1 << 19
