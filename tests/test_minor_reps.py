"""Differential tests: minors of represented matroids and certificate checks.

A minor of a represented matroid is the matroid of the minor's
representation; its ranks must equal the contracted host's, read through
the host's own oracle, and building it must not touch that oracle.
validate_certificate compares rank and bases; the subset walk in
oracles.certificate_walk is the reference it must agree with.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matroidkit._bits import mask_of, spread_choose
from matroidkit.constructions import free_extension, truncation, uniform
from matroidkit.core import (
    Matroid,
    MinorCertificate,
    Recipe,
    dual,
    minor_with_map,
    rank_table,
    validate_certificate,
)
from matroidkit.representations import (
    EvenCycleRep,
    GraphRep,
    LinearRep,
    SignedGraphRep,
    from_matrix,
)

from oracles import certificate_walk, minor_ranks_walk
from strategies import graph_reps, linear_reps, planted_reps


@st.composite
def decorated_reps(draw, max_vertices=5):
    g = draw(graph_reps(max_vertices=max_vertices))
    odd = draw(st.sets(st.integers(0, len(g.edges) - 1)))
    cls = draw(st.sampled_from((EvenCycleRep, SignedGraphRep)))
    return cls(g.n_vertices, g.edges, frozenset(odd))


@st.composite
def splits(draw, n):
    """Disjoint (contract, delete) element tuples of range(n); the contract
    set may be dependent and may hold loops."""
    roles = draw(st.lists(st.sampled_from("ckd"), min_size=n, max_size=n))
    return (tuple(e for e in range(n) if roles[e] == "c"),
            tuple(e for e in range(n) if roles[e] == "d"))


def _size(rep):
    return len(rep.columns if isinstance(rep, LinearRep) else rep.edges)


def with_split(reps):
    return reps.flatmap(lambda rep: st.tuples(st.just(rep),
                                              splits(_size(rep))))


def _check_minor(host, contract, delete):
    """The minor's ranks against the host oracle; returns the minor."""
    minor, _ = minor_with_map(host, contract, delete)
    ranks = [minor.r(mask) for mask in range(1 << minor.size)]
    assert ranks == minor_ranks_walk(host, contract, delete)
    return minor


@settings(max_examples=120, deadline=None)
@given(with_split(st.one_of(linear_reps(), graph_reps())))
def test_minor_of_linear_or_graph_rep_is_its_representation(case):
    rep, (contract, delete) = case
    host = rep.matroid()
    minor, _ = minor_with_map(host, contract, delete)
    assert type(minor.provenance) is type(rep)
    for mask in range(1 << minor.size):
        minor.r(mask)
    assert len(host._cache) == 0  # the minor never asked the host
    _check_minor(host, contract, delete)


@settings(max_examples=80, deadline=None)
@given(with_split(decorated_reps()))
def test_decorated_graph_minors(case):
    rep, (contract, delete) = case
    host = rep.matroid()
    minor = _check_minor(host, contract, delete)
    if contract:  # contraction leaves the class but not its matrix
        assert isinstance(minor.provenance, LinearRep)
    else:
        assert type(minor.provenance) is type(rep)
    fresh = rep.matroid()
    again, _ = minor_with_map(fresh, contract, delete)
    for mask in range(1 << again.size):
        again.r(mask)
    assert len(fresh._cache) == 0  # the minor never asked the host


# operands with no elements, and of rank 0 with and without rows
EDGE_OPERANDS = [LinearRep(2, 3, ()), LinearRep(5, 0, ()), GraphRep(1, ()),
                 EvenCycleRep(2, (), frozenset()), LinearRep(7, 0, ((),) * 3),
                 LinearRep(3, 2, ((0, 0),) * 4), GraphRep(2, ((0, 0), (1, 1))),
                 SignedGraphRep(2, ((1, 1),), frozenset())]


@st.composite
def represented_duals(draw):
    """dual(X) or dual(dual(X)) for X a GF(2), GF(3), GF(5) or GF(7)
    matrix, a graph, a decorated graph or an edge case, with the operand
    of the outer dual."""
    rep = draw(st.one_of(linear_reps(), graph_reps(), decorated_reps(),
                         st.sampled_from(EDGE_OPERANDS)))
    operand = rep.matroid()
    if draw(st.booleans()):
        operand = dual(operand)
    return dual(operand), operand


@settings(max_examples=200, deadline=None)
@given(represented_duals().flatmap(
    lambda pair: st.tuples(st.just(pair), splits(pair[0].size))))
def test_minor_of_a_represented_dual_is_the_duals_matrix(case):
    (host, operand), (contract, delete) = case
    assert host.provenance == Recipe("dual", args=(operand,))
    minor, _ = minor_with_map(host, contract, delete)
    assert isinstance(minor.provenance, LinearRep)
    assert rank_table(minor).tolist() == minor_ranks_walk(host, contract,
                                                          delete)
    assert host._table is None  # no host table was built


def _perturb(cert, rng):
    """A certificate that is usually, but not always, wrong."""
    mapping = list(cert.mapping)
    contract, delete = set(cert.contract), set(cert.delete)
    how = rng.randrange(6)
    if how == 0 and len(mapping) >= 2:
        i, j = rng.sample(range(len(mapping)), 2)
        (ti, hi), (tj, hj) = mapping[i], mapping[j]
        mapping[i], mapping[j] = (ti, hj), (tj, hi)
    elif how == 1 and contract:
        e = rng.choice(sorted(contract))
        contract.remove(e)
        delete.add(e)
    elif how == 2 and delete:
        e = rng.choice(sorted(delete))
        delete.remove(e)
        contract.add(e)
    elif how == 3 and mapping:
        mapping.pop(rng.randrange(len(mapping)))
    elif how == 4 and mapping and (contract or delete):
        e = rng.choice(sorted(contract | delete))
        mapping[0] = (mapping[0][0], e)
    elif how == 5 and mapping and (contract or delete):
        # a second pair for one target element, ahead of its own pair
        i = rng.randrange(len(mapping))
        e = rng.choice(sorted(contract | delete))
        mapping.insert(i, (mapping[i][0], e))
    return MinorCertificate(frozenset(contract), frozenset(delete),
                            tuple(mapping))


RECIPES = {"none": lambda m: m, "dual": dual, "truncation": truncation,
           "free-extension": free_extension}


@st.composite
def certificate_hosts(draw):
    """A represented matroid or a recipe over one, as built, as its
    bare-oracle twin, or as its plain-function twin, with a split of its
    elements. The bare twin keeps the oracle function, and with it the
    batch form a representation's oracle carries; the plain twin reads
    the same ranks one call at a time."""
    rep = draw(st.one_of(linear_reps(), graph_reps(), decorated_reps()))
    host = rep.matroid()
    recipe = draw(st.sampled_from(sorted(RECIPES)))
    assume(recipe != "truncation" or host.full_rank() > 0)
    host = RECIPES[recipe](host)
    twin = draw(st.sampled_from(("built", "bare", "plain")))
    if twin == "bare":
        host = Matroid(host.size, host._rank_mask)
    elif twin == "plain":
        oracle = host._rank_mask
        host = Matroid(host.size, lambda mask: oracle(mask))
    return host, draw(splits(host.size))


@settings(max_examples=200, deadline=None)
@given(certificate_hosts(), st.integers(0, 2 ** 32))
def test_validate_certificate_agrees_with_subset_walk(case, seed):
    host, (contract, delete) = case
    rng = random.Random(seed)
    target, keep = minor_with_map(host, contract, delete)
    cert = MinorCertificate(frozenset(contract), frozenset(delete),
                            tuple(enumerate(keep)))
    assert validate_certificate(cert, host, target)
    assert certificate_walk(cert, host, target)
    for _ in range(4):
        bad = _perturb(cert, rng)
        assert validate_certificate(bad, host, target) == \
            certificate_walk(bad, host, target)


def test_a_target_element_mapped_twice_is_rejected():
    # host element 1 is deleted and also named as the image of 0
    host, target = uniform(1, 2), uniform(1, 1)
    cert = MinorCertificate(frozenset(), frozenset({1}), ((0, 1), (0, 0)))
    assert not validate_certificate(cert, host, target)
    assert not certificate_walk(cert, host, target)


@settings(max_examples=150, deadline=None)
@given(with_split(st.one_of(linear_reps(), planted_reps(), graph_reps(),
                            decorated_reps())))
def test_validation_on_a_represented_host_reads_its_bases_in_batch(case):
    # host.r is called for r(C) and r(C + image) only; the bases go to
    # the host's oracle around the memo, to its batch form from BATCH_MIN
    # of them on
    rep, (contract, delete) = case
    host = rep.matroid()
    target, keep = minor_with_map(host, contract, delete)
    cert = MinorCertificate(frozenset(contract), frozenset(delete),
                            tuple(enumerate(keep)))
    assert validate_certificate(cert, host, target)
    cmask = mask_of(contract)
    assert set(host._cache) <= {cmask, cmask | mask_of(keep)}


@pytest.mark.parametrize("rows, prime, delete, batches", [
    # U(2,4) in a 6-element GF(3) host: 6 bases, one scalar read each
    ([[1, 0, 1, 1, 1, 0], [0, 1, 1, 2, 0, 1]], 3, (4, 5), []),
    # F7 in a 10-element binary host: 35 bases, one batch
    ([[1, 0, 0, 1, 1, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1, 0, 1, 1],
      [0, 0, 1, 0, 1, 1, 1, 1, 1, 0]], 2, (7, 8, 9), [35]),
])
def test_blocks_under_batch_min_skip_the_batch_form(rows, prime, delete,
                                                     batches):
    host = from_matrix(rows, prime)
    batch = host._rank_mask.batch
    calls = []
    host._rank_mask.batch = lambda masks: calls.append(len(masks)) or batch(
        masks)
    target, keep = minor_with_map(host, (), delete)
    cert = MinorCertificate(frozenset(), frozenset(delete),
                            tuple(enumerate(keep)))
    assert validate_certificate(cert, host, target)
    assert calls == batches
    assert set(host._cache) <= {0, mask_of(keep)}
    assert certificate_walk(cert, host, target)


def _batch_agrees(m, masks):
    got = m._rank_mask.batch(masks)
    assert got.tolist() == [m._rank_mask(x) for x in masks.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.one_of(linear_reps(), planted_reps(primes=(3,)), graph_reps(),
                 decorated_reps()), st.data())
def test_batch_rank_agrees_with_the_scalar_oracle(rep, data):
    # every mask of one popcount, as validate_certificate reads them; a
    # dual's batch form is its operand's on the complements
    m = rep.matroid()
    for _ in range(data.draw(st.integers(0, 2))):
        m = dual(m)
    k = data.draw(st.integers(0, m.size))
    _batch_agrees(m, spread_choose(0, [1 << e for e in range(m.size)], k))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_batch_rank_of_a_matrix_with_no_rows(p):
    m = LinearRep(p, 0, ((),) * 6).matroid()
    masks = spread_choose(0, [1 << e for e in range(6)], 3)
    assert not m._rank_mask.batch(masks).any()
    _batch_agrees(m, masks)


def _graph_40():
    # clique(9) (36 edges) plus four edges at a tenth vertex, one of them a
    # loop: 40 elements
    return tuple((u, v) for u in range(9) for v in range(u + 1, 9)) + \
        ((0, 9), (3, 9), (9, 9), (5, 9))


def _random_rep(p, rows, seed):
    rng = random.Random(seed)
    return LinearRep(p, rows, tuple(tuple(rng.randrange(p) for _ in range(rows))
                                    for _ in range(40)))


@pytest.mark.parametrize("rep", [
    _random_rep(2, 7, 1),
    _random_rep(3, 6, 2),
    GraphRep(10, _graph_40()),
    EvenCycleRep(10, _graph_40(), frozenset(range(0, 40, 3))),
    SignedGraphRep(10, _graph_40(), frozenset(range(0, 40, 3))),
    # 26 disjoint edges and 14 loops touch 66 vertices, so no uint64
    # holds a column
    GraphRep(80, tuple((2 * i, 2 * i + (i % 3 > 0)) for i in range(40))),
], ids=["gf2", "gf3", "graph", "even-cycle", "signed", "matching"])
def test_batch_rank_on_a_host_over_31_elements(rep):
    # masks of one popcount that reach past bit 31, as uint64
    rng = random.Random(7)
    masks = np.array([mask_of(rng.sample(range(40), 7)) for _ in range(500)],
                     dtype=np.uint64)
    assert int(masks.max()) >> 31
    _batch_agrees(rep.matroid(), masks)
    _batch_agrees(dual(rep.matroid()), masks)
    _batch_agrees(dual(rep.matroid()), masks.astype(np.int64))


def test_validation_reads_the_hosts_own_oracle():
    # The provenance claims a triangle; the oracle is the rank-1 uniform
    # matroid. A certificate that holds for the claimed representation must
    # fail against the oracle.
    triangle = GraphRep(3, ((0, 1), (1, 2), (0, 2)))
    liar = Matroid(3, lambda mask: min(mask, 1), provenance=triangle)
    target, keep = minor_with_map(liar, (), ())
    cert = MinorCertificate(frozenset(), frozenset(), tuple(enumerate(keep)))
    assert validate_certificate(cert, triangle.matroid(), target)
    assert not validate_certificate(cert, liar, target)
    assert not certificate_walk(cert, liar, target)
