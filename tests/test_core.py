import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from matroidkit import (
    Matroid,
    clique,
    direct_sum,
    dual,
    epsilon,
    fano,
    has_minor,
    kung_bound_check,
    minor_with_map,
    simplify,
    uniform,
)
from matroidkit.core import (
    MinorCertificate,
    check_size,
    circuits,
    closure,
    loops_mask,
    parallel_classes,
    rank_table,
    same_rank_function,
    validate_certificate,
    validate_rank_axioms,
)
from matroidkit.errors import (
    DomainError,
    GroundSetError,
    PreconditionError,
    ResourceLimitError,
)
from matroidkit._bits import mask_of, spread_choose
from conftest import random_graph, random_linear
from oracles import circuits_walk, eps_oracle, rank_axioms_hold
from strategies import graph_reps, linear_reps

from matroidkit.constructions import (free_ext_clique, n_square, spike,
                                       triangle_ext)


def popcount_rank(cap):
    # free matroid: rank is cardinality
    return lambda mask: bin(mask).count("1")


def test_matroid_basics():
    m = Matroid(3, popcount_rank(3))
    validate_rank_axioms(m)
    assert m.size == 3
    assert m.full_mask == 0b111
    assert m.full_rank() == 3
    assert m.rank([0, 2]) == 2
    assert m.rank() == 3
    with pytest.raises(GroundSetError):
        m.mask([5])


@pytest.mark.parametrize("n", [-1, True, 2.0, "3"])
def test_check_size_rejects_what_is_not_a_size(n):
    with pytest.raises(GroundSetError):
        check_size(n)
    with pytest.raises(GroundSetError):
        Matroid(n, popcount_rank(0))


def test_check_size_cap_message():
    assert check_size(64) == 64
    with pytest.raises(ResourceLimitError) as info:
        Matroid(65, popcount_rank(65))
    assert str(info.value) == "ground set size 65 exceeds cap 64"


def test_rank_is_memoized_and_method_not_attribute():
    calls = []

    def fn(mask):
        calls.append(mask)
        return bin(mask).count("1")

    m = Matroid(4, fn)
    m.r(0b1010)
    m.r(0b1010)
    assert calls.count(0b1010) == 1
    assert callable(m.full_rank)


def test_loops_and_parallel_classes():
    # rank table of U_{1,2} plus a loop: element 2 is the loop
    def fn(mask):
        return 1 if mask & 0b011 else 0

    m = Matroid(3, fn)
    assert loops_mask(m) == 0b100
    assert parallel_classes(m) == [(0, 1)]


def test_simplify_keeps_one_per_class():
    m = uniform(1, 3)
    si, mapping = simplify(m)
    assert si.size == 1
    assert si.full_rank() == 1
    assert mapping[0] == 0 and mapping[1] == 0 and mapping[2] == 0


def test_epsilon_matches_rank_one_flat_count():
    for m in (fano(), clique(4), uniform(2, 5), n_square(3), spike(3)):
        assert epsilon(m) == eps_oracle(m)


def test_closure_and_circuits_on_triangle():
    m = clique(3)
    assert closure(m, [0, 1]) == frozenset({0, 1, 2})
    assert circuits(m) == [frozenset({0, 1, 2})]


@settings(max_examples=100, deadline=None)
@given(st.one_of(linear_reps(max_cols=9, primes=(2, 3)),
                 graph_reps(max_edges=9)),
       st.none() | st.integers(0, 9))
def test_circuits_match_the_subset_walk(rep, bound):
    m = rep.matroid()
    assert circuits(m, bound) == circuits_walk(m, bound)


def test_bounded_circuit_enumeration_is_refused_before_any_read():
    # sum of C(55, k) for k <= 8 is about 1.45e9 subsets
    m = clique(11)

    def no_read(mask):
        raise AssertionError(f"read mask {mask}")

    m._rank_mask = no_read
    with pytest.raises(ResourceLimitError):
        circuits(m, bound=8)


def test_unbounded_circuit_enumeration_stops_at_18_elements():
    assert len(circuits(uniform(1, 18))) == 153  # the pairs of parallels
    with pytest.raises(ResourceLimitError):
        circuits(uniform(1, 19))


def test_circuits_read_the_rank_table_not_the_memo():
    m = uniform(1, 18)
    tracemalloc.start()
    try:
        assert len(circuits(m)) == 153
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(m._cache) == 0
    assert peak < 1 << 20  # the 256 KiB table and its bytes, no memo


def test_minor_with_map_contract_then_delete():
    m = clique(4)  # edges 01,02,03,12,13,23
    n, keep = minor_with_map(m, [0], [5])
    assert n.size == 4
    assert keep == (1, 2, 3, 4)
    # contracting edge 01 makes edges 02 and 12 parallel
    assert n.r((1 << 0) | (1 << 2)) == 1


def test_dual_rank_formula_and_involution():
    m = fano()
    d = dual(m)
    assert d.full_rank() == m.size - m.full_rank()
    assert same_rank_function(dual(d), m)


def test_direct_sum_adds_ranks():
    s = direct_sum(uniform(2, 3), uniform(1, 2))
    assert s.size == 5
    assert s.full_rank() == 3
    assert s.r(s.mask([0, 1, 3])) == 3


def test_same_rank_function_detects_difference():
    assert same_rank_function(uniform(2, 4), uniform(2, 4))
    assert not same_rank_function(uniform(2, 4), clique(4))


def test_validate_rank_axioms_rejects_bad_oracle():
    validate_rank_axioms(uniform(2, 4))

    def not_submodular(mask):
        # rank 2 only on the full set: violates unit increase pattern
        return 2 if mask == 0b111 else (1 if mask else 0)

    with pytest.raises(PreconditionError):
        validate_rank_axioms(Matroid(3, not_submodular))
    with pytest.raises(ResourceLimitError):
        validate_rank_axioms(clique(8))  # 28 elements, over the table cap
    validate_rank_axioms(clique(7))  # 21 elements, within it


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.data())
def test_validate_rank_axioms_agrees_with_the_pairwise_loop(rng, linear, data):
    m = random_linear(rng) if linear else random_graph(rng)
    ranks = rank_table(m).tolist()
    if data.draw(st.booleans(), label="perturb"):
        i = data.draw(st.integers(0, len(ranks) - 1), label="subset")
        ranks[i] += data.draw(st.sampled_from((-1, 1)), label="shift")
        assume(ranks[i] >= 0)
    bare = Matroid(len(ranks).bit_length() - 1, ranks.__getitem__)
    try:
        validate_rank_axioms(bare)
        accepted = True
    except PreconditionError:
        accepted = False
    assert accepted == rank_axioms_hold(bare)


def test_rank_table_agrees_with_oracle():
    m = fano()
    table = rank_table(m)
    assert len(table) == 1 << 7
    assert all(int(table[mask]) == m.r(mask) for mask in range(1 << 7))


def test_certificate_validation_and_tampering():
    host = clique(4)
    cert = has_minor(host, uniform(2, 3))
    assert cert is not None
    assert validate_certificate(cert, host, uniform(2, 3))
    # same data against the wrong target must fail
    assert not validate_certificate(cert, host, uniform(1, 3))
    bad = MinorCertificate(cert.contract, cert.delete,
                           tuple((t, h) for t, h in cert.mapping)[:-1])
    assert not validate_certificate(bad, host, uniform(2, 3))


def _identity(m):
    return MinorCertificate(frozenset(), frozenset(),
                            tuple((i, i) for i in range(m.size)))


def test_certificate_exhaustive_limit():
    host = clique(8)  # 28 elements: the target's rank table refuses them
    with pytest.raises(ResourceLimitError):
        validate_certificate(_identity(host), host, host)
    host = clique(7)  # 21 elements, read on its C(21, 6) bases
    assert validate_certificate(_identity(host), host, host)


def test_certificate_reads_only_the_rank_and_the_bases():
    # clique(6): 15 elements of rank 5, on a host with no provenance whose
    # oracle counts its calls; a subset walk would make 2^15 of them
    table = rank_table(clique(6))
    calls = []

    def rank_mask(mask):
        calls.append(mask)
        return int(table[mask])

    host = Matroid(15, rank_mask)
    assert validate_certificate(_identity(host), host, clique(6))
    assert len(calls) == len(set(calls)) <= 3003 + 2  # C(15, 5) + 2


@pytest.mark.parametrize("target,size,image", [
    (clique(5), 40, [3, 33, 7, 39, 12, 31, 35, 0, 20, 36]),  # masks past 2^31
    (clique(6), 20, [19, 2, 5, 11, 0, 17, 8, 14, 1, 9, 3, 16, 12, 6, 18]),
])
def test_certificate_reads_the_masks_of_one_spread_per_side(target, size,
                                                            image):
    """The host reads C + image(X) for the target's r-subsets X in the
    order of spread_choose over the host's own bits, as when both sides
    were built by a spread_choose call each. Target element i sits at host
    element image[i]; every other host element is a loop, the odd ones
    contracted."""
    table = rank_table(target)
    calls = []

    def rank_mask(mask):
        calls.append(mask)
        return int(table[sum(1 << i for i, h in enumerate(image)
                             if mask >> h & 1)])

    host = Matroid(size, rank_mask)
    rest = set(range(size)) - set(image)
    contract = frozenset(e for e in rest if e % 2)
    cert = MinorCertificate(contract, frozenset(rest - contract),
                            tuple(enumerate(image)))
    assert validate_certificate(cert, host, target)
    cmask = mask_of(contract)
    bases = spread_choose(cmask, [1 << h for h in image], int(table[-1]))
    assert calls == [cmask, cmask | mask_of(image)] + bases.tolist()


def test_certificate_workspace_grows_with_the_bases_not_the_subsets():
    # free_ext_clique(7): 22 elements of rank 6, C(22, 6) = 74,613 bases;
    # a mask per subset would take 2^22 entries (16 MiB as int32)
    host, target = free_ext_clique(7), free_ext_clique(7)
    rank_table(target)
    cert = _identity(host)
    # the first call fills host.r's memo (7.5 MiB), which the second reads
    assert validate_certificate(cert, host, target)
    tracemalloc.start()
    try:
        assert validate_certificate(cert, host, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_certificate_on_a_scalar_oracle_keeps_no_list_of_its_bases():
    # clique(7) through a plain function has no batch form, so its
    # C(21, 6) = 54,264 bases go to host.r one call each; a Python list of
    # them all would take about 2 MiB on its own
    inner = clique(7)
    host = Matroid(21, lambda mask: inner._rank_mask(mask))
    target = clique(7)
    rank_table(target)
    cert = _identity(host)
    assert validate_certificate(cert, host, target)  # fills host.r's memo
    tracemalloc.start()
    try:
        assert validate_certificate(cert, host, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 19


def test_certificate_on_a_represented_host_reads_only_two_ranks_one_by_one():
    # the bases of clique(7) go to the batch form of the host's oracle
    host = clique(7)
    assert validate_certificate(_identity(host), host, clique(7))
    assert sorted(host._cache) == [0, host.full_mask]


def test_certificate_on_a_dual_host_reads_its_bases_in_batch():
    # the dual's batch form ranks the complements of its C(21, 15) bases
    # by clique(7)'s batch form, so clique(7)'s memo keeps r(E) and r(0)
    inner = clique(7)
    host = dual(inner)
    assert validate_certificate(_identity(host), host, dual(clique(7)))
    assert sorted(host._cache) == [0, host.full_mask]
    assert sorted(inner._cache) == [0, inner.full_mask]


@pytest.mark.parametrize("bad", [-1, 3, 64])
def test_certificate_naming_a_host_element_out_of_range_is_rejected(bad):
    cert = MinorCertificate(frozenset(), frozenset(),
                            ((0, bad), (1, 1), (2, 2)))
    assert not validate_certificate(cert, clique(3), clique(3))


def _k9_edge(u, v):
    # clique(n) lists its edges (u, v), u < v, in lexicographic order
    return sum(8 - i for i in range(u)) + v - u - 1


def test_certificate_on_a_host_over_31_elements():
    # clique(5) as the restriction of clique(9) to vertices 4..8, whose
    # edges are host elements 26..35: their subset masks need 36 bits
    host, target = clique(9), clique(5)
    pairs = [(i, _k9_edge(u + 4, v + 4)) for i, (u, v) in
             enumerate((u, v) for u in range(5) for v in range(u + 1, 5))]
    assert max(h for _, h in pairs) == 35 == host.size - 1
    image = {h for _, h in pairs}
    delete = frozenset(range(host.size)) - image
    cert = MinorCertificate(frozenset(), delete, tuple(pairs))
    assert validate_certificate(cert, host, target)
    # contracting a deleted edge with one end off the clique changes nothing
    moved = MinorCertificate(frozenset({_k9_edge(3, 4)}),
                             delete - {_k9_edge(3, 4)}, tuple(pairs))
    assert validate_certificate(moved, host, target)
    # swapping the images of two disjoint edges is no isomorphism
    swapped = dict(pairs)
    swapped[0], swapped[9] = swapped[9], swapped[0]
    bad = MinorCertificate(frozenset(), delete, tuple(swapped.items()))
    assert not validate_certificate(bad, host, target)


def test_kung_bound_tight_on_fano():
    rep = kung_bound_check(fano(), 2, check_minor=True)
    assert rep.holds and rep.tight
    assert rep.bound == 7 and rep.epsilon == 7


def test_kung_bound_strict_on_graphic():
    rep = kung_bound_check(clique(5), 2)
    assert rep.holds and not rep.tight
    assert rep.bound == 2 ** 4 - 1


def test_kung_check_minor_rejects_long_line():
    with pytest.raises(PreconditionError):
        kung_bound_check(triangle_ext(4), 2, check_minor=True)


def test_kung_line_bound_domain():
    with pytest.raises(DomainError):
        kung_bound_check(fano(), 1)
