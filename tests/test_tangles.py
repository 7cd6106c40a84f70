"""Tangle families, axiom checking, tangle matroids, induced tangles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroidkit import (
    DomainError,
    MinorCertificate,
    PreconditionError,
    ResourceLimitError,
    Tangle,
    clique,
    clique_minor_tangle,
    direct_sum,
    find_clique_minor,
    induced_tangle,
    is_tangle,
    minor_with_map,
    rank_table,
    tangle_matroid,
    tangle_tk,
    uniform,
    validate_rank_axioms,
)
from matroidkit._bits import elements_of, pack, spread
from matroidkit.core import Matroid, lambda_of
from matroidkit.tangles import TangleCheck, _lift
from conftest import random_graph, random_linear
from oracles import (
    induced_tangle_flags,
    is_tangle_flags,
    lambda_flags,
    lift_by_spread,
    rank_axioms_hold,
    small_flags,
    tangle_matroid_flags,
    tangle_rank_walk,
    tangle_tk_flags,
    trace_shift,
)
from strategies import graph_reps, linear_reps, planted_reps


# maximal-member counts of T_k(M(K_n)) at the clique tangle order
# k = ceil(2(n-1)/3); frozen from an exhaustive 2^|E| sweep.
TK_MAXIMAL_COUNTS = {
    (4, 2): 1,
    (5, 3): 10,
    (6, 4): 65,
}


@pytest.mark.parametrize("n,k", sorted(TK_MAXIMAL_COUNTS))
def test_tk_clique_maximal_counts(n, k):
    t = tangle_tk(clique(n), k)
    assert isinstance(t, Tangle)
    assert t.theta == k
    assert len(t.maximal) == TK_MAXIMAL_COUNTS[(n, k)]
    # re-verify the axioms through the public checker
    assert is_tangle(clique_t := t.matroid, t, k).ok
    assert clique_t.size == n * (n - 1) // 2


def test_t3_of_k4_is_the_six_singletons():
    t = tangle_tk(clique(4), 3)
    assert isinstance(t, Tangle)
    assert t.maximal == tuple(1 << e for e in range(6))
    assert t.is_small(1 << 2)
    assert not t.is_small(0b11)  # a pair of edges is 2-separating


def test_tk_can_fail_axiom_two():
    # three disjoint parallel pairs: the 0-separating block unions give
    # three members covering the ground set
    m = direct_sum(direct_sum(uniform(1, 2), uniform(1, 2)), uniform(1, 2))
    verdict = tangle_tk(m, 2)
    assert isinstance(verdict, TangleCheck)
    assert not verdict.ok
    assert verdict.axiom == 2
    a, b, c = verdict.witness
    assert a | b | c == m.full_mask


def test_is_tangle_axiom_three_witness():
    m = clique(4)
    t = tangle_tk(m, 3)
    members = [x for x in range(1 << m.size) if t.is_small(x)]
    bad = m.full_mask ^ 1  # E minus one element is 1-separating here
    verdict = is_tangle(m, members + [bad], 3)
    assert verdict.axiom == 3
    assert verdict.witness == (bad,)


def test_is_tangle_axiom_one_witnesses():
    m = clique(4)
    triangle = 0b1011  # lambda = 2, so not small at order 3
    verdict = is_tangle(m, [0, triangle], 3)
    assert (verdict.ok, verdict.axiom, verdict.witness) == (False, 1, (triangle,))
    # the empty family misses the empty set (or its complement)
    verdict = is_tangle(m, [], 3)
    assert (verdict.axiom, verdict.witness) == (1, (0,))


def test_is_tangle_rejects_foreign_tangle_and_bad_masks():
    m = clique(4)
    t = tangle_tk(m, 2)
    with pytest.raises(DomainError):
        is_tangle(clique(4), t, 2)  # fresh object, not t.matroid
    with pytest.raises(DomainError):
        is_tangle(m, [1 << 10], 2)


def test_tangle_order_and_size_limits():
    with pytest.raises(DomainError):
        tangle_tk(clique(4), 0)
    with pytest.raises(ResourceLimitError):
        tangle_tk(clique(8), 4)  # 28 elements, above the sweep cap
    with pytest.raises(ResourceLimitError):
        is_tangle(clique(8), [], 2)


def test_tangle_rank_endpoints_and_matroid():
    t = tangle_tk(clique(5), 3)
    m = t.matroid
    tm = tangle_matroid(t)  # n = 10 <= 12, validated on construction
    assert tm.r(0) == 0
    assert tm.r(m.full_mask) == t.theta - 1
    assert tm.rank([0]) <= t.theta - 1

    assert tm.size == m.size
    assert tm.rank() == t.theta - 1
    validate_rank_axioms(tm)


def test_clique_minor_tangle_on_host():
    host = clique(5)
    cert = find_clique_minor(host, 3)
    assert cert is not None
    t = clique_minor_tangle(host, cert, 3)
    assert t.matroid is host
    assert t.theta == 2
    assert is_tangle(host, t, t.theta).ok
    with pytest.raises(DomainError):
        clique_minor_tangle(host, cert, 1)


def _random_matroid(rng, linear, max_elements):
    if linear:
        return random_linear(rng, max_rows=4, max_cols=max_elements,
                             min_cols=max_elements // 2)
    return random_graph(rng, max_vertices=6, max_edges=max_elements)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_tangle_matroid_table_matches_the_submask_walk(rng, linear):
    m = _random_matroid(rng, linear, 12)
    tangles = [t for k in range(1, 6)
               if isinstance(t := tangle_tk(m, k), Tangle)]
    # a subset of a member of T_k is never more connected than the member,
    # so only a tangle like this induced one, whose members include
    # components off its clique minor, needs the superset minimum
    host = direct_sum(clique(4), _random_matroid(rng, linear, 6))
    tangles.append(clique_minor_tangle(host, find_clique_minor(host, 3), 3))
    for t in tangles:
        walk = [tangle_rank_walk(t, x) for x in range(1 << t.matroid.size)]
        assert rank_table(tangle_matroid(t)).tolist() == walk


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.integers(0, n))))
def test_host_trace_matches_the_shift_form(case):
    n, hosts, k = case
    mapping = list(enumerate(hosts[:k]))
    weights = [0] * n
    for t_elem, h_elem in mapping:
        weights[h_elem] = 1 << t_elem
    trace = spread(0, weights)
    assert trace.dtype == np.int32
    assert np.array_equal(trace, trace_shift(n, mapping))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.integers(0, n),
    st.integers(0, 2**32 - 1))))
def test_lifted_flags_match_the_spread_gather(case):
    n, hosts, k, seed = case
    mapping = list(enumerate(hosts[:k]))
    flags = np.random.default_rng(seed).random(1 << k) < 0.5
    assert np.array_equal(_lift(flags, n, mapping),
                          pack(lift_by_spread(flags, n, mapping)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, max(n - 1, 0)), unique=True,
                         max_size=n),
    st.booleans(), st.integers(0, 2**32 - 1))))
def test_lifted_runs_match_the_spread_gather(case):
    """Sorted images make runs of consecutive host elements mapped to
    consecutive target elements, and runs of unmapped ones between them,
    which the lift merges into one axis each."""
    n, hosts, ascending, seed = case
    mapping = list(enumerate(sorted(hosts, reverse=not ascending)))
    flags = np.random.default_rng(seed).random(1 << len(mapping)) < 0.5
    assert np.array_equal(_lift(flags, n, mapping),
                          pack(lift_by_spread(flags, n, mapping)))


def test_clique7_induced_tangle_fits_in_6_mib():
    """A clique(5) tangle lifted onto clique(7) takes no per-subset index:
    the host's lambda is built beforehand, and the lift is one byte per
    subset before packing."""
    host = clique(7)
    cert = find_clique_minor(host, 4)
    t_n = tangle_tk(clique(5), 3)
    lambda_of(host)
    lambda_of(t_n.matroid)
    tracemalloc.start()
    try:
        t = induced_tangle(host, cert, t_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(t.maximal) == 21
    assert peak < 6 << 20


def _verdict(check: TangleCheck):
    return check.ok, check.axiom, check.witness


def _same_tangle_matroid(t):
    """tangle_matroid's table is the flag reference's, or both fail the rank
    axioms."""
    want = tangle_matroid_flags(t)
    try:
        got = rank_table(tangle_matroid(t))
    except PreconditionError:
        n = t.matroid.size
        assert not rank_axioms_hold(Matroid(n, lambda x: int(want[x])))
    else:
        assert got.tolist() == want.tolist()


@settings(max_examples=120, deadline=None)
@given(st.one_of(linear_reps(), planted_reps(), graph_reps()),
       st.integers(0, 5), st.data())
def test_packed_tangles_match_the_flag_reference(rep, theta, data):
    """Verdicts, axioms, witnesses and maximal members of the packed
    families against one-byte flags with lambda in int16, at every order
    from 0 (nothing separates) up."""
    m = rep.matroid()
    n, full = m.size, m.full_mask
    tangles = []
    for k in range(1, 6):
        got = tangle_tk(m, k)
        want, maximal = tangle_tk_flags(m, k)
        if isinstance(got, Tangle):
            assert want == (True, None, ()) and got.maximal == maximal
            tangles.append(got)
        else:
            assert (_verdict(got), ()) == (want, maximal)

    # mask lists: random ones fail axiom 1; one set of each separating pair
    # passes it, and adding the separating E - e fails axiom 3
    rnd = data.draw(st.randoms(use_true_random=False), label="rnd")
    sep = lambda_flags(m) < theta - 1
    pick = [rnd.random() < 0.5 for _ in range(1 << n)]
    halves = [x for x in range(1 << n)
              if sep[x] and (pick[x] or not pick[full ^ x])]
    lists = [[x for x in range(1 << n) if rnd.random() < 0.3], halves,
             halves + [full ^ (1 << e) for e in range(n)
                       if sep[full ^ (1 << e)]]]
    for fam in lists:
        assert _verdict(is_tangle(m, fam, theta)) == is_tangle_flags(
            m, fam, theta)

    maximal = data.draw(st.lists(st.integers(0, full), max_size=6),
                        label="maximal")
    tangles.append(Tangle(m, data.draw(st.integers(0, 5), label="order"),
                          maximal))
    for t in tangles:
        assert _verdict(is_tangle(m, t, theta)) == is_tangle_flags(m, t, theta)
        _same_tangle_matroid(t)

    # tangles of a minor N = m / C \ D, induced back onto m
    c = data.draw(st.integers(0, full), label="contract")
    d = data.draw(st.integers(0, full), label="delete") & ~c
    target, keep = minor_with_map(m, elements_of(c), elements_of(d))
    cert = MinorCertificate(frozenset(elements_of(c)),
                            frozenset(elements_of(d)), tuple(enumerate(keep)))
    minor_tangles = [t for k in range(1, 4)
                     if isinstance(t := tangle_tk(target, k), Tangle)]
    minor_tangles.append(Tangle(target, theta, [
        mx & target.full_mask for mx in maximal]))
    for t_n in minor_tangles:
        want, want_max = induced_tangle_flags(m, cert, t_n)
        try:
            got = induced_tangle(m, cert, t_n)
        except PreconditionError as err:
            assert not want[0] and f"axiom {want[1]}" in str(err)
        else:
            assert want[0] and got.maximal == want_max
            assert got.theta == t_n.theta


def test_known_axiom_failures_match_the_flag_reference():
    k4 = clique(4)
    members = np.flatnonzero(small_flags(tangle_tk(k4, 3))).tolist()
    for family, axiom in (([0, 0b1011], 1), ([], 1),
                          (members + [k4.full_mask ^ 1], 3)):
        got = is_tangle(k4, family, 3)
        assert got.axiom == axiom
        assert _verdict(got) == is_tangle_flags(k4, family, 3)
    pairs = direct_sum(direct_sum(uniform(1, 2), uniform(1, 2)), uniform(1, 2))
    got = tangle_tk(pairs, 2)
    assert got.axiom == 2
    assert (_verdict(got), ()) == tangle_tk_flags(pairs, 2)


def test_clique7_tangle_check_fits_in_8_mib():
    """The families of T_4(clique(7)) are packed 2^21-bit sets: lambda and
    the rank comparisons take one byte per subset, each family 256 KiB."""
    m = clique(7)
    rank_table(m)
    tracemalloc.start()
    try:
        t = tangle_tk(m, 4)
        assert is_tangle(m, t, 4).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(t.maximal) == 140
    assert peak < 8 << 20
