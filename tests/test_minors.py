"""Minor search, graphicness testing, extension dichotomy, spike splitting."""

import itertools
import random
import time
from typing import Optional

import pytest
from hypothesis import (Phase, example, find, given, settings,
                        strategies as st)

from matroidkit import (
    DomainError,
    GroundSetError,
    Matroid,
    PreconditionError,
    ResourceLimitError,
    biclique,
    classify_clique_extension,
    clique,
    direct_sum,
    dual,
    even_cycle,
    fano,
    find_clique_minor,
    free_ext_clique,
    free_extension,
    from_graph,
    from_matrix,
    has_minor,
    is_graphic,
    is_spike,
    membership_suite,
    minor_with_map,
    parallel_classes,
    principal_extension,
    rank_table,
    restriction,
    signed_graphic,
    spike,
    spike_split_witness,
    triangle_ext,
    truncation,
    uniform,
    validate_certificate,
    whirl,
)

from matroidkit import minors
from matroidkit._bits import elements_of, mask_of
from matroidkit.core import same_rank_function
from matroidkit.minors import _clique_realization
from matroidkit.representations import GraphRep, LinearRep
from oracles import (certificate_walk, clique_labels_by_triangles,
                     graph_rank, graphic_tree_search, is_clique,
                     is_spike_minors, minor_brute, spike_split_minors)
from strategies import graph_reps, linear_reps, planted_reps


# every host here is small enough for the unpruned oracle
MINOR_CASES = [
    ("clique4-u23", clique(4), uniform(2, 3), True),
    ("clique4-u24", clique(4), uniform(2, 4), False),
    ("fano-u24", fano(), uniform(2, 4), False),
    ("triangle-ext4-whirl3", triangle_ext(4), whirl(3), True),
    ("triangle-ext4-u24", triangle_ext(4), uniform(2, 4), True),
    ("uniform36-u24", uniform(3, 6), uniform(2, 4), True),
    ("circuit4-u23", biclique(2, 2), uniform(2, 3), True),
    ("whirl3-u24", whirl(3), uniform(2, 4), True),
]


@pytest.mark.parametrize("name,host,target,expect",
                         MINOR_CASES, ids=[c[0] for c in MINOR_CASES])
def test_has_minor_matches_brute_oracle(name, host, target, expect):
    cert = has_minor(host, target)
    assert (cert is not None) == expect
    assert minor_brute(host, target) == expect
    if cert is not None:
        assert validate_certificate(cert, host, target)


def test_find_clique_minor():
    cert = find_clique_minor(triangle_ext(4), 3)
    assert cert is not None
    assert validate_certificate(cert, triangle_ext(4), clique(4))
    assert find_clique_minor(uniform(2, 4), 3) is None


def test_a_clique6_search_builds_one_table_per_side(monkeypatch):
    """A relabelled clique(6) host and the clique(6) target are simple, so
    the search builds no identity minor of either: one table build each,
    and the target's classes are read off its table, not its oracle."""
    rep = clique(6).provenance
    edges = list(rep.edges)
    random.Random(3).shuffle(edges)
    builds = []
    fast = LinearRep.rank_table_fast
    monkeypatch.setattr(LinearRep, "rank_table_fast",
                        lambda self: builds.append(self) or fast(self))
    assert find_clique_minor(from_graph(rep.n_vertices, edges), 5) is not None
    assert len(builds) == 2
    target = clique(6)
    oracle, calls = target._rank_mask, []
    target._rank_mask = lambda mask: calls.append(mask) or oracle(mask)
    assert has_minor(from_graph(rep.n_vertices, edges), target) is not None
    assert len(calls) <= 1  # its full rank


def test_minor_size_cap():
    with pytest.raises(ResourceLimitError):
        has_minor(clique(8), clique(3))  # 28 elements over the default cap


# ---------------------------------------------------------------------------
# the search reads the host's rank table

TERNARY = [[1, 0, 0, 1, 1, 1, 0], [0, 1, 0, 1, 2, 0, 1], [0, 0, 1, 0, 0, 1, 2]]
BINARY = [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]]
# its dual has rank 4 on 8 elements, so F7 fits after one contraction
TERNARY_4X8 = [[1, 0, 0, 0, 1, 1, 2, 0], [0, 1, 0, 0, 1, 2, 0, 1],
               [0, 0, 1, 0, 0, 1, 1, 2], [0, 0, 0, 1, 2, 0, 1, 1]]

# the last five are outside the graphic or the binary or the ternary class
SMALL_TARGETS = [uniform(1, 2), uniform(2, 3), uniform(2, 4), uniform(3, 4),
                 fano(), dual(fano()), whirl(3), uniform(2, 5), uniform(3, 5)]


def small_targets():
    return st.one_of(
        st.sampled_from(SMALL_TARGETS),
        linear_reps(max_rows=3, max_cols=4, primes=(2, 3)).map(
            lambda rep: rep.matroid()),
        graph_reps(max_edges=4).map(lambda rep: rep.matroid()))


def small_hosts():
    """GF(2), GF(3) and graph representations of at most 7 elements."""
    return st.one_of(linear_reps(max_cols=7, primes=(2, 3)),
                     graph_reps(max_edges=7))


@st.composite
def spanning_hosts(draw):
    """GF(2), GF(3) and graph representations of rank 2 or 3 on 4 to 7
    elements: unit vectors or a spanning path, plus random columns or
    edges, shuffled."""
    r = draw(st.integers(2, 3))
    extra = draw(st.integers(max(2, 4 - r), 7 - r))
    p = draw(st.sampled_from((2, 3, None)))
    if p is None:
        edge = st.tuples(st.integers(0, r), st.integers(0, r))
        edges = [(v, v + 1) for v in range(r)]
        edges += draw(st.lists(edge, min_size=extra, max_size=extra))
        return GraphRep(r + 1, tuple(draw(st.permutations(edges))))
    cols = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    cols += draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * r),
                          min_size=extra, max_size=extra))
    return LinearRep(p, r, tuple(draw(st.permutations(cols))))


def _agrees_with_brute_and_its_twin(host, target):
    # the twin has no provenance, so no class test: it always searches
    twin = Matroid(host.size, host._rank_mask)
    cert = has_minor(host, target)
    assert (cert is not None) == minor_brute(host, target)
    assert cert == has_minor(twin, target)
    if cert is not None:
        assert certificate_walk(cert, host, target)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_hosts(), spanning_hosts()), small_targets())
def test_has_minor_on_the_host_table_matches_brute_and_its_twin(rep, target):
    _agrees_with_brute_and_its_twin(rep.matroid(), target)


@settings(max_examples=100, deadline=None)
@given(spanning_hosts(), st.data())
def test_has_minor_on_targets_over_the_other_prime(rep, data):
    # a graph host is binary, and the class test of a graph host is
    # graphicness, so a graph host takes targets over either prime
    primes = (5 - rep.prime,) if isinstance(rep, LinearRep) else (2, 3)
    target = data.draw(st.one_of(
        planted_reps(primes, max_rows=3, max_cols=7),
        linear_reps(max_rows=3, max_cols=5, primes=primes)).map(
            lambda r: r.matroid()))
    _agrees_with_brute_and_its_twin(rep.matroid(), target)


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
CLASS_NEGATIVES = [
    ("binary-u24", lambda: from_matrix(BINARY, 2), uniform(2, 4)),
    ("ternary-f7", lambda: from_matrix(TERNARY, 3), fano()),
    ("ternary-f7*", lambda: from_matrix(TERNARY + [[1] * 7], 3), dual(fano())),
    ("graph-f7", lambda: from_graph(4, K4_EDGES + [(0, 1)]), fano()),
    ("graph-u24", lambda: clique(4), uniform(2, 4)),
    ("even-cycle-u24", lambda: even_cycle(4, [(0, 1), (1, 2), (2, 3), (0, 3),
                                              (0, 2)], [0, 2]), uniform(2, 4)),
    ("signed-f7", lambda: signed_graphic(3, [(0, 1), (1, 2), (0, 2), (0, 0),
                                             (1, 1), (2, 2), (0, 1)], [3, 6]),
     fano()),
    ("cographic-u24", lambda: dual(clique(4)), uniform(2, 4)),
    ("ternary-dual-f7", lambda: dual(from_matrix(TERNARY_4X8, 3)), fano()),
]


@pytest.mark.parametrize("host,target", [c[1:] for c in CLASS_NEGATIVES],
                         ids=[c[0] for c in CLASS_NEGATIVES])
def test_a_class_negative_reads_no_host_oracle_and_searches_nothing(
        host, target, monkeypatch):
    host = host()
    oracle, calls = host._rank_mask, []
    host._rank_mask = lambda mask: calls.append(mask) or oracle(mask)

    def no_search(*args):
        raise AssertionError("a class negative searched")

    monkeypatch.setattr(minors, "_embed_restriction", no_search)
    assert has_minor(host, target) is None
    assert calls == []
    assert not minor_brute(Matroid(host.size, oracle), target)


def test_a_cographic_host_turns_away_u24_before_any_search(monkeypatch):
    # M*(K5) is binary through the dual's matrix and U(2,4) is not, so no
    # contraction set is tried and find_embedding is never called
    calls = []
    for name in ("find_embedding", "_embed_restriction"):
        monkeypatch.setattr(minors, name, lambda *args, name=name, **kwargs:
                            calls.append(name))
    assert has_minor(dual(clique(5)), uniform(2, 4)) is None
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_hosts(), spanning_hosts()), small_targets())
def test_has_minor_on_a_represented_dual_matches_brute_and_its_twin(rep,
                                                                    target):
    _agrees_with_brute_and_its_twin(dual(rep.matroid()), target)


CLASS_SKIPS = [
    ("gf5-host", from_matrix([[1, 0, 1, 1, 1], [0, 1, 1, 2, 3]], 5),
     uniform(2, 4), True),
    ("recipe-host", uniform(3, 6), fano(), False),
    ("bare-host", Matroid(7, fano()._rank_mask), uniform(2, 4), False),
    ("graph-target", from_matrix(BINARY, 2), clique(3), True),
    ("same-field-target", from_matrix(BINARY, 2), fano(), True),
    ("same-field-decorated-target", from_matrix(TERNARY, 3),
     signed_graphic(2, [(0, 1), (0, 1)], [1]), True),
    ("graph-host-graph-target", clique(5), clique(4), True),
]


@pytest.mark.parametrize("host,target,found", [c[1:] for c in CLASS_SKIPS],
                         ids=[c[0] for c in CLASS_SKIPS])
def test_the_class_test_is_skipped_where_it_cannot_say_no(host, target, found,
                                                          monkeypatch):
    def no_class_test(*args):
        raise AssertionError("the class test ran")

    monkeypatch.setattr(minors, "standard_rep", no_class_test)
    monkeypatch.setattr(minors, "is_graphic", no_class_test)
    assert (has_minor(host, target) is not None) == found


def test_a_clique_has_no_dual_fano_minor_within_a_second():
    # a search over the 210 contraction pairs of K7 took 23 s
    start = time.perf_counter()
    assert has_minor(clique(7), dual(fano())) is None
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("rows,p,found", [(TERNARY, 3, True),
                                          (BINARY, 2, False)],
                         ids=["ternary", "binary"])
def test_search_on_a_linear_host_never_calls_its_oracle(rows, p, found,
                                                       monkeypatch):
    host = from_matrix(rows, p)
    oracle, calls = host._rank_mask, []
    host._rank_mask = lambda mask: calls.append(mask) or oracle(mask)
    # the search alone: its certificate's check is the only oracle reader
    monkeypatch.setattr(minors, "validate_certificate", lambda *args: True)
    cert = has_minor(host, uniform(2, 4))
    assert (cert is not None) == found
    assert calls == []
    if found:
        assert validate_certificate(cert, host, uniform(2, 4))
        assert calls  # validation reads the host's own oracle


@pytest.mark.parametrize("target,found", [(uniform(2, 3), True),
                                          (uniform(2, 4), False)],
                         ids=["triangle", "four-point-line"])
def test_every_returned_certificate_is_validated(target, found, monkeypatch):
    seen = []

    def counted(cert, host, tgt):
        seen.append(cert)
        return validate_certificate(cert, host, tgt)

    monkeypatch.setattr(minors, "validate_certificate", counted)
    cert = has_minor(clique(5), target)
    assert (cert is not None) == found
    assert seen == ([cert] if found else [])


def test_a_lying_host_raises_rather_than_return_a_failing_certificate(
        monkeypatch):
    # the provenance claims a triangle (U(2,3)); the oracle is U(1,3)
    triangle = GraphRep(3, ((0, 1), (1, 2), (0, 2)))
    liar = Matroid(3, lambda mask: min(mask, 1), provenance=triangle)
    with monkeypatch.context() as patch:  # the search finds a certificate
        patch.setattr(minors, "validate_certificate", lambda *args: True)
        assert has_minor(liar, uniform(2, 3)) is not None
    with pytest.raises(RuntimeError):
        has_minor(liar, uniform(2, 3))


@settings(max_examples=60, deadline=None)
@given(small_hosts(), small_targets(), st.data())
def test_a_lying_host_never_returns_a_failing_certificate(rep, target, data):
    # the oracle is the provenance's matroid with its elements relabeled
    truth = rep.matroid()
    n = truth.size
    perm = data.draw(st.permutations(range(n)))

    def relabeled(mask):
        return truth.r(sum(1 << perm[i] for i in range(n) if (mask >> i) & 1))

    liar = Matroid(n, relabeled, provenance=rep)
    try:
        cert = has_minor(liar, target)
    except RuntimeError:
        return
    if cert is not None:
        assert validate_certificate(cert, liar, target)
        assert certificate_walk(cert, liar, target)


# ---------------------------------------------------------------------------
# graphicness


@pytest.mark.parametrize("m", [clique(4), biclique(2, 3)],
                         ids=["clique4", "biclique23"])
def test_is_graphic_realization_agrees_everywhere(m):
    rep = is_graphic(m)
    assert rep is not None
    for s in range(1 << m.size):
        assert graph_rank(rep.n_vertices, rep.edges, s) == m.r(s)


def test_is_graphic_handles_loops_and_parallel_edges():
    m = from_graph(4, [(0, 1), (0, 1), (2, 2), (1, 2), (2, 3)])
    rep = is_graphic(m)
    assert rep is not None
    for s in range(1 << m.size):
        assert graph_rank(rep.n_vertices, rep.edges, s) == m.r(s)


@pytest.mark.parametrize("m", [fano(), spike(3)], ids=["fano", "spike3"])
def test_is_graphic_rejects(m):
    assert is_graphic(m) is None


def test_is_graphic_size_cap():
    with pytest.raises(ResourceLimitError):
        is_graphic(clique(8))  # 28 elements, over the rank table's cap


def test_is_graphic_counts_points_before_the_table():
    # a rank-3 graph has at most 6 points; a table walk would take 2^18 calls
    inner, calls = uniform(3, 18), []
    bare = Matroid(18, lambda mask: calls.append(mask) or inner.r(mask))
    assert is_graphic(bare) is None
    assert len(calls) < 200


def test_is_graphic_reads_a_21_element_clique():
    rep = is_graphic(clique(7))
    assert rep is not None and rep.n_vertices == 7


# the excluded minors for graphicness, and two non-binary whirls
NONGRAPHIC = [uniform(2, 4), fano(), dual(fano()), dual(clique(5)),
              dual(biclique(3, 3)), whirl(3), whirl(4)]


def graphicness_inputs():
    """Matroids of at most 10 elements, graphic and not."""
    graphs = graph_reps(max_vertices=6, max_edges=10).map(
        lambda rep: rep.matroid())
    sums = st.tuples(st.sampled_from(NONGRAPHIC[:3] + NONGRAPHIC[5:6]),
                     graph_reps(max_vertices=3, max_edges=3), st.booleans())
    return st.one_of(
        graphs,
        graphs.map(lambda m: Matroid(m.size, m._rank_mask)),
        graph_reps(max_edges=8).map(lambda rep: dual(rep.matroid())),
        linear_reps(max_rows=5, max_cols=10, primes=(2, 3)).map(
            lambda rep: rep.matroid()),
        st.sampled_from(NONGRAPHIC),
        sums.map(lambda s: direct_sum(s[0], s[1].matroid()) if s[2]
                 else direct_sum(s[1].matroid(), s[0])))


@settings(max_examples=300, deadline=None)
@given(graphicness_inputs())
def test_is_graphic_matches_the_tree_search(m):
    rep = is_graphic(m)
    assert (rep is not None) == (graphic_tree_search(m) is not None)
    if rep is not None:
        n_vertices, edges = rep.n_vertices, rep.edges
        assert n_vertices == m.full_rank() + 1
        assert graph_rank(n_vertices, edges, m.full_mask) == n_vertices - 1
        assert all(graph_rank(n_vertices, edges, s) == m.r(s)
                   for s in range(1 << m.size))


def _tree_plus_edges(seed: int, n_vertices: int, n_edges: int) -> Matroid:
    """A random spanning tree plus random non-loop edges, shuffled."""
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v)) for v in range(1, n_vertices)]
    edges += [tuple(rng.sample(range(n_vertices), 2))
              for _ in range(n_edges - n_vertices + 1)]
    rng.shuffle(edges)
    return from_graph(n_vertices, edges)


def test_is_graphic_on_dense_random_graphs_is_fast():
    # a basis-tree search took seconds on each of these
    graphs = [_tree_plus_edges(seed, nv, ne)
              for nv, ne in ((10, 16), (12, 18)) for seed in range(5)]
    start = time.perf_counter()
    reps = [is_graphic(m) for m in graphs]
    assert time.perf_counter() - start < 1.0
    assert all(rep is not None for rep in reps)


# ---------------------------------------------------------------------------
# the one-element dichotomy over a clique


def test_classify_clique_extension_reasons():
    out = classify_clique_extension(direct_sum(clique(4), uniform(0, 1)), 6)
    assert (out.graphic, out.reason) == (True, "loop")

    out = classify_clique_extension(direct_sum(clique(4), uniform(1, 1)), 6)
    assert (out.graphic, out.reason) == (True, "coloop")

    doubled = from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (0, 1)])
    out = classify_clique_extension(doubled, 6)
    assert (out.graphic, out.reason, out.witness) == (True, "parallel", 0)

    out = classify_clique_extension(free_ext_clique(4), 6)
    assert (out.graphic, out.reason, out.witness) == (False, "none-of-these",
                                                      None)


def test_classify_clique_extension_guards():
    with pytest.raises(DomainError):
        classify_clique_extension(clique(4), 99)
    with pytest.raises(DomainError):
        classify_clique_extension(uniform(2, 5), 4)  # base is not a clique
    with pytest.raises(DomainError):  # a clique's size and rank, not a clique
        classify_clique_extension(direct_sum(uniform(3, 6), uniform(1, 1)), 6)


# K1 and K2 bases have no triangle to label from; K7 and K8 bases are past
# the graphic search's element cap, which the clique labelling does not use
CLIQUE_BASES = [
    ("k1-loop", uniform(0, 1), 0, "loop", None),
    ("k1-coloop", direct_sum(clique(1), uniform(1, 1)), 0, "coloop", None),
    ("k2-parallel", from_graph(2, [(0, 1), (0, 1)]), 1, "parallel", 0),
    ("k2-coloop", direct_sum(clique(2), uniform(1, 1)), 1, "coloop", None),
    ("k7-free", free_ext_clique(7), 21, "none-of-these", None),
    ("k7-coloop", direct_sum(clique(7), uniform(1, 1)), 21, "coloop", None),
    ("k8-free", free_ext_clique(8), 28, "none-of-these", None),
    ("k8-coloop", direct_sum(clique(8), uniform(1, 1)), 28, "coloop", None),
]


@pytest.mark.parametrize("name,m,e,reason,witness", CLIQUE_BASES,
                         ids=[c[0] for c in CLIQUE_BASES])
def test_classify_clique_extension_small_and_large_bases(name, m, e, reason,
                                                         witness):
    out = classify_clique_extension(m, e)
    assert (out.reason, out.witness) == (reason, witness)
    assert out.graphic == (reason != "none-of-these")


@st.composite
def clique_shaped_bases(draw):
    """Matroids of at most 10 elements with the size of a clique: relabelled
    cliques, cliques with an edge doubled or moved, uniform matroids,
    truncations, random GF(2)/GF(3) matrices of a clique's rank, and simple
    ones (distinct projective columns), which reach the labelling's late
    checks: star split, label collision and open triangle."""
    k = draw(st.integers(1, 5))
    edges = list(itertools.combinations(range(k), 2))
    n, r = len(edges), k - 1
    kind = draw(st.sampled_from(("clique", "doubled", "moved", "uniform",
                                 "truncation", "matrix", "simple")))
    p = draw(st.sampled_from((2, 3)))
    if kind == "clique":
        perm = draw(st.permutations(range(k)))
        return from_graph(k, [(perm[u], perm[v])
                              for u, v in draw(st.permutations(edges))])
    if kind == "doubled" and 0 < n < 10:
        return from_graph(k, edges + [draw(st.sampled_from(edges))])
    if kind == "moved" and n:
        i = draw(st.integers(0, n - 1))
        edges[i] = draw(st.tuples(st.integers(0, k), st.integers(0, k)))
        return from_graph(k + 1, edges)
    if kind == "uniform" and n:
        return uniform(r, n)
    if kind == "simple" and n:
        points = [v for v in itertools.product(range(p), repeat=r)
                  if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
        columns = draw(st.lists(st.sampled_from(points), min_size=n,
                                max_size=n, unique=True))
        return from_matrix([list(row) for row in zip(*columns)], p)
    rows = k if kind == "truncation" else r
    matrix = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n,
                                    max_size=n), min_size=rows, max_size=rows))
    m = from_matrix(matrix, p) if n else uniform(0, 0)
    return truncation(m) if kind == "truncation" and m.full_rank() else m


@settings(max_examples=200, deadline=None)
@given(clique_shaped_bases())
def test_clique_labelling_matches_reference(base):
    m = direct_sum(base, uniform(1, 1))
    try:
        k, pairs = _clique_realization(m, base.size)
    except PreconditionError:
        assert not is_clique(base)
        with pytest.raises(DomainError):
            classify_clique_extension(m, base.size)
    else:
        assert is_clique(base)
        assert same_rank_function(base, from_graph(k, pairs[:base.size]))
        assert classify_clique_extension(m, base.size).reason == "coloop"


def _refusal(base) -> Optional[str]:
    """Why _clique_realization refuses base as a clique, or None."""
    try:
        _clique_realization(direct_sum(base, uniform(1, 1)), base.size)
    except PreconditionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("check", ["bad star split", "edge labels collide",
                                   "open triangle"])
def test_clique_shaped_bases_reach_the_late_checks(check):
    # the simple matrices pass the size and simplicity checks, so the
    # strategy draws bases that only the later checks refuse
    find(clique_shaped_bases(), lambda base: check in (_refusal(base) or ""),
         settings=settings(max_examples=2000, database=None,
                           derandomize=True, phases=[Phase.generate]))


def _relabelled_clique_point(k: int):
    """(m, e): a clique on shuffled vertices and edges, plus a coloop e."""
    rng = random.Random(k)
    edges = list(itertools.combinations(rng.sample(range(k), k), 2))
    rng.shuffle(edges)
    return direct_sum(from_graph(k, edges), uniform(1, 1)), len(edges)


@settings(max_examples=200, deadline=None)
@given(clique_shaped_bases().map(
    lambda base: (direct_sum(base, uniform(1, 1)), base.size)))
@example(_relabelled_clique_point(6))
@example(_relabelled_clique_point(7))
@example(_relabelled_clique_point(8))
@example((free_ext_clique(8), 28))
@example((direct_sum(whirl(3), uniform(1, 1)), 6))  # refused by triangles alone
def test_clique_labels_match_the_triangle_labelling(case):
    # reductions branch on vertex order, so the labels themselves must agree
    m, e = case
    try:
        expected = clique_labels_by_triangles(m, e)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            _clique_realization(m, e)
    else:
        assert _clique_realization(m, e) == expected


def _simplified_view(m, e: int, contract: tuple[int, ...]):
    """(m, e, C, K): C the given elements and K the least element of each
    parallel class of m / C."""
    mc, keep = minor_with_map(m, contract, ())
    return (m, e, mask_of(contract),
            mask_of(keep[cls[0]] for cls in parallel_classes(mc)))


@st.composite
def clique_views(draw):
    """(m, e, C, K): a clique-shaped base or a relabelled K4-K6 plus a
    coloop e, C a drawn set of base elements, and K with e either the least
    element of each parallel class of m / C or a drawn set outside C."""
    base = draw(st.one_of(clique_shaped_bases(), st.integers(4, 6).flatmap(
        lambda k: st.permutations(list(itertools.combinations(range(k), 2)))
        .map(lambda edges: from_graph(k, edges)))))
    m, e = direct_sum(base, uniform(1, 1)), base.size
    cmask = mask_of(draw(st.lists(st.integers(0, e - 1), max_size=2))
                    if e else ())
    rest = [x for x in range(e) if not cmask >> x & 1]
    if draw(st.booleans()):
        kmask = _simplified_view(m, e, elements_of(cmask))[3]
    else:
        kmask = mask_of(draw(st.lists(st.sampled_from(rest), unique=True))
                        if rest else ())
    return m, e, cmask, kmask | 1 << e


@settings(max_examples=200, deadline=None)
@given(clique_views())
@example(_simplified_view(*_relabelled_clique_point(6), (0,)))
@example(_simplified_view(*_relabelled_clique_point(7), (0, 1)))
@example(_simplified_view(free_ext_clique(6), 15, (0,)))  # e no coloop
def test_clique_labels_of_a_view_match_the_minor(case):
    # (m / C) | K read in m's labels gives the minor's labels carried back
    m, e, cmask, kmask = case
    mc, keep = minor_with_map(m, elements_of(cmask),
                              elements_of(m.full_mask & ~(cmask | kmask)))
    try:
        k, pairs = _clique_realization(mc, keep.index(e))
    except PreconditionError:
        with pytest.raises(PreconditionError):
            _clique_realization(m, e, cmask, kmask)
    else:
        expected = [None] * m.size
        for i, uv in enumerate(pairs):
            expected[keep[i]] = uv
        assert _clique_realization(m, e, cmask, kmask) == (k, expected)


def test_clique_labelling_reads_few_masks_on_a_k8_base():
    host = free_ext_clique(8)
    seen = set()

    def rank(mask):
        seen.add(mask)
        return host.r(mask)

    k, pairs = _clique_realization(Matroid(host.size, rank), 28)
    assert k == 8 and pairs == clique_labels_by_triangles(host, 28)[1]
    # 1,654 masks from contraction classes; triangle adjacency read 3,683
    assert len(seen) <= 2000


# ---------------------------------------------------------------------------
# spike splitting


def test_spike_split_witness_covers_after_contraction():
    m = spike(4)
    e = 1
    parts = spike_split_witness(m, range(9), e)
    assert parts is not None
    s1, s2 = parts
    assert set(s1) | set(s2) == set(range(9)) - {e}
    mc, keep = minor_with_map(m, [e], ())
    fwd = {h: i for i, h in enumerate(keep)}
    for part in parts:
        sub = restriction(mc, [fwd[x] for x in part])
        assert is_spike(sub) is not None


def test_spike_split_witness_with_outside_element():
    m = direct_sum(spike(4), uniform(1, 1))
    parts = spike_split_witness(m, range(9), 9)
    assert parts is not None
    assert set(parts[0]) | set(parts[1]) == set(range(9))


def test_spike_split_witness_preconditions():
    with pytest.raises(PreconditionError):
        spike_split_witness(clique(4), range(6), 0)  # not a spike
    with pytest.raises(PreconditionError):
        spike_split_witness(spike(4), range(9), 0)  # e is the tip
    loopy = direct_sum(spike(4), uniform(0, 1))
    with pytest.raises(PreconditionError):
        spike_split_witness(loopy, range(9), 9)  # e is a loop
    tip_twin = principal_extension(spike(4), [0])
    with pytest.raises(PreconditionError):
        spike_split_witness(tip_twin, range(9), 9)  # e parallel to the tip
    for e in (9, 99, -1):  # e outside the ground set
        with pytest.raises(GroundSetError):
            spike_split_witness(spike(4), range(9), e)


@st.composite
def leg_reps(draw):
    """(rep, leg elements): over GF(2) or GF(3), a tip t = e_k and k leg
    pairs x_i, x_i + t, where x_1..x_{k-1} are unit vectors modulo t and
    x_k is random, so the legs form a spike exactly when x_k has no zero
    among its first k - 1 entries; plus up to two random columns off the
    legs, all shuffled."""
    p = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(3, 4))
    entry = st.integers(0, p - 1)
    xs = [tuple(int(i == j) for j in range(k - 1)) + (draw(entry),)
          for i in range(k - 1)]
    xs.append(draw(st.tuples(*[entry] * k)))
    tip = (0,) * (k - 1) + (1,)
    cols = [tip] + [c for x in xs for c in (x, x[:-1] + ((x[-1] + 1) % p,))]
    cols += draw(st.lists(st.tuples(*[entry] * k), max_size=2))
    order = draw(st.permutations(range(len(cols))))
    rep = LinearRep(p, k, tuple(cols[i] for i in order))
    return rep, [j for j, i in enumerate(order) if i <= 2 * k]


@st.composite
def spike_hosts(draw):
    """(host, spike elements): spikes of rank 3-5, alone, summed with a
    coloop or a parallel pair, or freely extended (a point on no leg's
    line), the non-spikes clique(5) and U(3,7), and planted GF(2)/GF(3)
    matrices, whose whole ground set is offered."""
    kind = draw(st.sampled_from(("spike", "coloop", "pair", "free", "clique",
                                 "uniform", "planted")))
    if kind in ("spike", "coloop", "pair", "free"):
        s = spike(draw(st.integers(3, 4 if kind == "free" else 5)))
        host = {"spike": s, "coloop": direct_sum(s, uniform(1, 1)),
                "pair": direct_sum(s, uniform(1, 2)),
                "free": free_extension(s)}[kind]
        return host, range(s.size)
    if kind == "planted":
        host = draw(planted_reps(max_cols=9)).matroid()
    else:
        host = clique(5) if kind == "clique" else uniform(3, 7)
    return host, range(host.size)


def _outcome(f, *args):
    try:
        return f(*args)
    except PreconditionError:
        return PreconditionError


@settings(max_examples=150, deadline=None)
@given(st.one_of(spike_hosts(),
                 leg_reps().map(lambda rl: (rl[0].matroid(), rl[1]))),
       st.data())
def test_spike_reads_match_the_restriction_walk(host_elements, data):
    host, elements = host_elements
    e = data.draw(st.integers(0, host.size - 1), label="e")
    assert is_spike(host) == is_spike_minors(host)
    assert is_spike(restriction(host, elements)) == \
        is_spike_minors(restriction(host, elements))
    assert _outcome(spike_split_witness, host, elements, e) == \
        _outcome(spike_split_minors, host, elements, e)


def test_spike_split_on_a_tabled_host_never_calls_its_oracle():
    host = direct_sum(spike(4), uniform(1, 1))
    rank_table(host)
    oracle, calls = host._rank_mask, []
    host._rank_mask = lambda mask: calls.append(mask) or oracle(mask)
    assert is_spike(host) is None  # the coloop lies on no leg
    assert spike_split_witness(host, range(9), 9) is not None
    assert spike_split_witness(host, range(9), 1) is not None
    assert calls == []


# ---------------------------------------------------------------------------
# membership records


@pytest.mark.parametrize("family", ["square-family", "triangle-family",
                                    "circle-family"])
def test_membership_suite_all_claims_hold(family):
    records = membership_suite(family)
    assert records
    for rec in records:
        assert rec.ok, f"{rec.claim}: {rec.host} vs {rec.target}"
        assert rec.certificate is not None


def test_membership_suite_rejects_unknown_family():
    with pytest.raises(DomainError):
        membership_suite("square")
    with pytest.raises(DomainError):
        membership_suite("pentagon-family")
