import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from matroidkit import clique, direct_sum, rank_table, uniform
from matroidkit._bits import elements_of, mask_of
from matroidkit.connectivity import (
    SeparationCertificate,
    connectivity,
    flats,
    is_modular_flat,
    is_modular_pair,
    is_vertically_k_connected,
    kappa,
    linking_minor,
    local_conn,
)
from matroidkit.core import Matroid, closure_mask, validate_certificate
from matroidkit.errors import DomainError
from conftest import random_linear
from oracles import flats_bfs, kappa_brute, lam
from strategies import graph_reps, linear_reps, planted_reps
from test_minor_reps import decorated_reps


def test_lambda_zero_exactly_on_sum_separators():
    s = direct_sum(uniform(2, 3), uniform(2, 3))
    assert connectivity(s, [0, 1, 2]) == 0
    assert connectivity(s, [0, 1]) == 1
    assert connectivity(s, []) == 0


def test_local_conn_skew_and_overlap():
    m = clique(4)
    assert local_conn(m, [0], [5]) == 0          # disjoint edges are skew
    assert local_conn(m, [0, 1], [1, 3]) >= 1


def test_kappa_frozen_triangles_of_k6():
    # triangles on {0,1,2} and {3,4,5}: three vertex-disjoint paths exist,
    # but lambda of any separating side is pinned at 2
    m = clique(6)
    value, cert = kappa(m, [0, 1, 5], [12, 13, 14])
    assert value == 2
    assert kappa_brute(m, [0, 1, 5], [12, 13, 14]) == 2
    side = m.mask(cert.side)
    assert side & m.mask([12, 13, 14]) == 0
    assert side | m.mask([0, 1, 5]) == side
    assert lam(m, side) == 2


def test_kappa_matches_brute_on_random_linear(rng: random.Random):
    for _ in range(25):
        m = random_linear(rng, max_rows=3, max_cols=7, min_cols=5)
        els = list(range(m.size))
        xs = sorted(rng.sample(els, 2))
        rest = [e for e in els if e not in xs]
        ys = sorted(rng.sample(rest, 2))
        value, cert = kappa(m, xs, ys)
        assert value == kappa_brute(m, xs, ys)
        assert lam(m, m.mask(cert.side)) == value


def test_kappa_rejects_overlap():
    with pytest.raises(DomainError):
        kappa(clique(4), [0, 1], [1, 2])


def test_linking_minor_certifies_kappa(rng: random.Random):
    for _ in range(10):
        m = random_linear(rng, max_rows=3, max_cols=7, min_cols=5)
        els = list(range(m.size))
        xs = sorted(rng.sample(els, 2))
        rest = [e for e in els if e not in xs]
        ys = sorted(rng.sample(rest, 2))
        value, _ = kappa(m, xs, ys)
        n, cert = linking_minor(m, xs, ys)
        assert validate_certificate(cert, m, n)
        inv = {h: t for t, h in cert.mapping}
        ximg = 0
        for e in xs:
            ximg |= 1 << inv[e]
        assert lam(n, ximg) == value
        for e in xs + ys:  # restrictions survive on both sides
            assert n.r(1 << inv[e]) == m.r(1 << e)


@st.composite
def linking_cases(draw):
    """A GF(2), GF(3) or GF(5) matrix, one with F7, F7* or U(2,4) planted,
    or a multigraph (loops and parallel edges occur), as given or as its
    bare oracle, with disjoint X and Y; either may be empty."""
    rep = draw(st.one_of(linear_reps(max_cols=9, primes=(2, 3, 5)),
                         planted_reps(max_cols=9), graph_reps(max_edges=9)))
    m = rep.matroid()
    if draw(st.booleans()):
        m = Matroid(m.size, m._rank_mask)
    roles = draw(st.lists(st.sampled_from("xyf"), min_size=m.size,
                          max_size=m.size))
    return (m, [e for e, r in enumerate(roles) if r == "x"],
            [e for e, r in enumerate(roles) if r == "y"])


def _assert_linking_contract(m, xs, ys):
    """N lives on X | Y, N|X = M|X, N|Y = M|Y, lambda_N(X) = kappa, and the
    certificate names N as a minor of M."""
    value, _ = kappa(m, xs, ys)
    n, cert = linking_minor(m, xs, ys)
    assert validate_certificate(cert, m, n)
    assert n.size == len(xs) + len(ys)
    image = {h: t for t, h in cert.mapping}
    for side in (xs, ys):
        for k in range(len(side) + 1):
            for sub in itertools.combinations(side, k):
                assert n.r(mask_of(image[e] for e in sub)) == m.rank(sub)
    assert lam(n, mask_of(image[e] for e in xs)) == value


@settings(max_examples=150, deadline=None)
@given(linking_cases())
def test_linking_minor_keeps_both_restrictions_and_kappa(case):
    _assert_linking_contract(*case)


def _lattice_minimum(m, xs, ys):
    """X plus every free e with kappa(X, Y + e) > kappa(X, Y): the side
    that lies inside every minimizing side."""
    value, _ = kappa(m, xs, ys)
    return m.mask(xs) | mask_of(
        e for e in range(m.size) if e not in xs and e not in ys
        and kappa(m, xs, ys + [e])[0] > value)


@settings(max_examples=150, deadline=None)
@given(linking_cases())
def test_kappa_witness_is_the_lattice_minimum(case):
    m, xs, ys = case
    _, cert = kappa(m, xs, ys)
    assert m.mask(cert.side) == _lattice_minimum(m, xs, ys)


def _edge(n, u, v):
    return list(itertools.combinations(range(n), 2)).index((u, v))


@pytest.mark.parametrize("n", [9, 11])
def test_triangles_of_cliques_past_the_old_sweep(n):
    # 30 and 49 free elements: no brute walk or table sweep reaches these
    m = clique(n)
    xs = [_edge(n, 0, 1), _edge(n, 0, 2), _edge(n, 1, 2)]
    ys = [_edge(n, 3, 4), _edge(n, 3, 5), _edge(n, 4, 5)]
    value, cert = kappa(m, xs, ys)
    assert value == 2
    assert m.mask(cert.side) == _lattice_minimum(m, xs, ys)
    _assert_linking_contract(m, xs, ys)


def test_flats_of_small_cliques_count_vertex_partitions():
    # flats of a graphic clique correspond to vertex partitions
    bell = {3: 5, 4: 15, 7: 877}
    for n, count in bell.items():
        fs = flats(clique(n))
        assert len(fs) == count
        for f in fs:
            assert closure_mask(clique(n), f) == f


def test_modular_flats_in_clique():
    m = clique(4)
    triangle = [0, 1, 3]   # edges 01, 02, 12
    matching = [0, 5]      # edges 01, 23
    assert is_modular_flat(m, triangle)
    assert not is_modular_flat(m, matching)
    assert is_modular_pair(m, triangle, [5])
    with pytest.raises(DomainError):
        is_modular_flat(m, [0, 1])  # not closed


def test_vertical_connectivity_verdicts():
    assert is_vertically_k_connected(clique(5), 4) is True
    refuted = is_vertically_k_connected(direct_sum(clique(3), clique(3)), 2)
    assert isinstance(refuted, SeparationCertificate)
    assert refuted.value == 0
    assert refuted.kind == "vertical-separation"
    with pytest.raises(DomainError):
        is_vertically_k_connected(clique(4), 1)


def test_vertical_sweep_of_2_20_flats_fits_in_16_mib():
    """Every subset of uniform(20, 20) is a flat: the sweep indexes them as
    int32 and reads lambda off the uint8 lambda table."""
    m = uniform(20, 20)
    rank_table(m)
    tracemalloc.start()
    try:
        cert = is_vertically_k_connected(m, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.side, cert.value, cert.kind) == ((0,), 0, "vertical-separation")
    assert type(cert.value) is int and all(type(e) is int for e in cert.side)
    assert peak < 16 << 20


@st.composite
def twinned_matroids(draw):
    """A GF(p) matrix, one with a plant outside the other prime's class, a
    multigraph or a decorated graph; as given, or as its bare oracle,
    whose rank table is built by walking the oracle."""
    rep = draw(st.one_of(linear_reps(), planted_reps(), graph_reps(),
                         decorated_reps()))
    m = rep.matroid()
    if draw(st.booleans()):
        m = Matroid(m.size, m._rank_mask)
    return m


@settings(max_examples=150, deadline=None)
@given(twinned_matroids())
def test_flat_sweeps_match_the_closure_search(m):
    fs = flats_bfs(m)
    assert flats(m) == fs
    r = [m.r(x) for x in range(1 << m.size)]
    for f in fs:
        assert is_modular_flat(m, elements_of(f)) == all(
            r[f] + r[g] == r[f | g] + r[f & g] for g in fs)
    # lambda of each flat whose side and complement both have rank < r(M)
    lams = {f: r[f] + r[m.full_mask ^ f] - r[-1] for f in fs
            if r[f] < r[-1] and r[m.full_mask ^ f] < r[-1]}
    for k in (2, 3, 4):
        best = min(((v, f) for f, v in lams.items() if v < k - 1),
                   default=None)
        cert = is_vertically_k_connected(m, k)
        if best is None:
            assert cert is True
        else:
            assert (cert.value, m.mask(cert.side)) == best
            assert type(cert.value) is int
            assert all(type(e) is int for e in cert.side)
