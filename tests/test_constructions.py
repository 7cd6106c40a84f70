import tracemalloc
from math import comb

import pytest

from matroidkit import (
    clique,
    epsilon,
    fano,
    is_isomorphic,
    simplify,
    uniform,
)
from matroidkit.constructions import (
    biclique,
    free_ext_clique,
    free_extension,
    is_spike,
    n_square,
    n_triangle,
    pg32,
    principal_extension,
    spike,
    square_ext,
    triangle_ext,
    truncation,
    whirl,
)
from matroidkit.core import validate_rank_axioms
from matroidkit.errors import DomainError, PreconditionError, ResourceLimitError
from oracles import eps_oracle


def _line_sizes(m):
    out = set()
    for a in range(m.size):
        for b in range(a + 1, m.size):
            pair = (1 << a) | (1 << b)
            if m.r(pair) != 2:
                continue
            cl = 0
            for f in range(m.size):
                if m.r(pair | (1 << f)) == 2:
                    cl |= 1 << f
            out.add(cl)
    return sorted(bin(x).count("1") for x in out)


def test_clique_shape():
    for n in range(2, 7):
        m = clique(n)
        assert m.size == comb(n, 2)
        assert m.full_rank() == n - 1
        assert epsilon(m) == m.size


def test_biclique_shape():
    m = biclique(3, 4)
    assert m.size == 12
    assert m.full_rank() == 6
    assert epsilon(m) == 12


@pytest.mark.parametrize("build", [lambda: clique(1000),
                                   lambda: biclique(300, 400)],
                         ids=["clique1000", "biclique300x400"])
def test_edge_cap_refuses_before_listing_edges(build):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_uniform_and_whirl():
    u = uniform(2, 5)
    assert [u.r(mask) for mask in (0, 1, 3, 7)] == [0, 1, 2, 2]
    w = whirl(2)
    assert is_isomorphic(w, uniform(2, 4)) is not None
    assert whirl(3).size == 6 and whirl(3).full_rank() == 3
    validate_rank_axioms(whirl(3))


def test_projective_planes_frozen_geometry():
    f = fano()
    assert (f.size, f.full_rank(), epsilon(f)) == (7, 3, 7)
    lines = _line_sizes(f)
    assert lines == [3] * 7

    p = pg32()
    assert (p.size, p.full_rank(), epsilon(p)) == (15, 4, 15)
    assert _line_sizes(p) == [3] * 35


def test_square_ext_shape_and_fano_coincidence():
    for n in range(4, 7):
        m = square_ext(n)
        assert m.size == comb(n, 2) + 1
        assert m.full_rank() == n - 1
    assert is_isomorphic(square_ext(4), fano()) is not None
    with pytest.raises(DomainError):
        square_ext(3)


def test_square_ext_point_sits_on_the_three_matchings():
    m = square_ext(5)
    e = m.size - 1
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    idx = {p: i for i, p in enumerate(pairs)}
    matchings = ([(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)])
    for pair in matchings:
        mask = (1 << idx[pair[0]]) | (1 << idx[pair[1]])
        assert m.r(mask) == 2
        assert m.r(mask | (1 << e)) == 2


def test_triangle_ext_shape_and_u24_coincidence():
    for n in range(3, 7):
        m = triangle_ext(n)
        assert m.size == comb(n, 2) + 1
        assert m.full_rank() == n - 1
    assert is_isomorphic(triangle_ext(3), uniform(2, 4)) is not None


def test_triangle_ext_point_sits_on_one_triangle():
    m = triangle_ext(5)
    e = m.size - 1
    # triangle on vertices {0,1,2}: edges 01, 02, 12 are columns 0, 1, 4
    tri = (1 << 0) | (1 << 1) | (1 << 4)
    assert m.r(tri) == 2
    assert m.r(tri | (1 << e)) == 2


def test_contracted_families_frozen_point_counts():
    for n in range(2, 7):
        assert epsilon(n_square(n)) == comb(n + 2, 2) - 3
        assert epsilon(n_triangle(n)) == comb(n + 2, 2) - 2
    # independent recount on the small members
    assert eps_oracle(n_square(3)) == 7
    assert eps_oracle(n_triangle(3)) == 8
    assert n_square(4).full_rank() == 4
    assert n_triangle(4).full_rank() == 4


def test_truncation_drops_rank_keeps_small_sets():
    t = truncation(clique(5))
    assert t.full_rank() == 3
    assert t.size == 10
    assert epsilon(t) == 10  # stays simple
    for mask in range(1 << 10):
        assert t.r(mask) == min(clique(5).r(mask), 3)
    with pytest.raises(DomainError):
        truncation(uniform(0, 2))


def test_free_extension_point_is_free():
    m = free_extension(uniform(2, 3))
    assert m.size == 4
    assert is_isomorphic(m, uniform(2, 4)) is not None
    f = free_ext_clique(4)
    assert f.size == 7
    e = 6
    for a in range(6):
        assert f.r((1 << a) | (1 << e)) == 2  # on no line of the clique


def test_principal_extension_rank_law():
    base = clique(4)
    flat = [0, 5]  # disjoint edges 01 and 23: a rank-2 flat
    m = principal_extension(base, flat)
    e = m.size - 1
    fmask = m.mask(flat)
    assert m.r(fmask | (1 << e)) == 2
    assert m.r((1 << 1) | (1 << e)) == 2  # free over other sets
    validate_rank_axioms(m)
    with pytest.raises(PreconditionError):
        principal_extension(base, [0, 1])  # closure adds edge 12


def test_spike_decomposition_by_construction():
    for r in range(3, 7):
        s = spike(r)
        assert s.size == 2 * r + 1
        assert s.full_rank() == r
        decomp = is_spike(s)
        assert decomp is not None
        assert decomp.tips == (0,)
        assert decomp.rank == r
        assert len(decomp.legs) == r
        legs = sorted(x for pair in decomp.legs for x in pair)
        assert legs == list(range(1, 2 * r + 1))


def test_is_spike_builds_no_rank_table():
    # O(n^2) reads: a 2^21-entry table would cost megabytes for nothing
    s = spike(10)
    tracemalloc.start()
    try:
        decomp = is_spike(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decomp is not None and decomp.rank == 10
    assert s._table is None
    assert peak < 1 << 20


def test_spike_lines_through_tip():
    s = spike(3)
    for i in range(3):
        leg = (1 << (2 * i + 1)) | (1 << (2 * i + 2))
        assert s.r(leg | 1) == 2  # tip plus a leg pair is a line


def test_is_spike_rejects_clique():
    assert is_spike(clique(5)) is None
    assert is_spike(uniform(3, 7)) is None


def test_spike_needs_rank_three():
    with pytest.raises(DomainError):
        spike(2)
