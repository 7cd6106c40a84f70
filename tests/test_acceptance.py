"""Acceptance gate: ten criteria, each one test, each with a wall-clock cap.

Every test prints a single "criterion NN: PASS" line (visible in captured
output) and enforces its runtime limit; pytest's own PASSED/FAILED verdict
per test is the per-criterion pass/fail record.
"""

import itertools
import random
from math import comb
from time import perf_counter

from matroidkit import (
    clique,
    connectivity_mask,
    dual,
    epsilon,
    fano,
    from_graph,
    from_matrix,
    has_minor,
    is_isomorphic,
    kappa,
    loops_mask,
    minor_with_map,
    n_square,
    n_triangle,
    parallel_classes,
    pg32,
    run_suite,
    same_rank_function,
    simplify,
    square_ext,
    triangle_ext,
    truncation,
    uniform,
    validate_rank_axioms,
)

from oracles import kappa_brute, minor_brute


def _stamp(num: int, t0: float, limit: float, claim: str) -> None:
    dt = perf_counter() - t0
    assert dt < limit, f"criterion {num:02d} exceeded {limit:.0f}s ({dt:.1f}s)"
    print(f"criterion {num:02d}: PASS ({dt:.2f}s, limit {limit:.0f}s) "
          f"- {claim}")


def _bijection_agrees_everywhere(a, b, phi) -> bool:
    images = [1 << phi[e] for e in range(a.size)]
    for mask in range(1 << a.size):
        img, mm = 0, mask
        while mm:
            low = mm & -mm
            img |= images[low.bit_length() - 1]
            mm ^= low
        if a.r(mask) != b.r(img):
            return False
    return True


def test_criterion_01_growth_values():
    t0 = perf_counter()
    for n in range(2, 7):
        want_sq = comb(n + 2, 2) - 3
        si_sq, _ = simplify(n_square(n))
        assert epsilon(n_square(n)) == want_sq
        assert si_sq.size == want_sq

        want_tr = comb(n + 2, 2) - 2
        si_tr, _ = simplify(n_triangle(n))
        assert epsilon(n_triangle(n)) == want_tr
        assert si_tr.size == want_tr
    for n in range(2, 6):
        t = truncation(clique(n + 2))
        assert t.full_rank() == n
        assert t.size == comb(n + 2, 2)
        assert loops_mask(t) == 0
        assert all(len(c) == 1 for c in parallel_classes(t))
    _stamp(1, t0, 10.0, "exact point counts for both contracted families "
           "(n = 2..6) and simple truncated cliques (n = 2..5)")


def test_criterion_02_named_isomorphisms():
    t0 = perf_counter()
    for a, b in ((triangle_ext(3), uniform(2, 4)),
                 (square_ext(4), fano())):
        phi = is_isomorphic(a, b)
        assert phi is not None
        assert _bijection_agrees_everywhere(a, b, phi)
    _stamp(2, t0, 5.0, "triangle_ext(3) = U_{2,4} and square_ext(4) = "
           "the binary plane, bijections rechecked on all subsets")


def test_criterion_03_contracted_square_member_is_punctured_pg32():
    t0 = perf_counter()
    a, _ = simplify(n_square(4))
    assert (a.size, a.full_rank()) == (12, 4)
    pg = pg32()
    triple = next(c for c in itertools.combinations(range(pg.size), 3)
                  if pg.r((1 << c[0]) | (1 << c[1]) | (1 << c[2])) == 3)
    b, _ = minor_with_map(pg, (), triple)
    phi = is_isomorphic(a, b)
    assert phi is not None
    assert _bijection_agrees_everywhere(a, b, phi)
    _stamp(3, t0, 60.0, "si(n_square(4)) = rank-4 binary projective "
           "geometry minus an independent triple")


def test_criterion_04_point_count_bound():
    t0 = perf_counter()
    report = run_suite("kung")
    assert report.status == "pass"
    eq = [r for r in report.records if r.claim == "kung.equality.pg22"]
    strict = [r for r in report.records if r.claim.startswith("kung.strict.")]
    assert len(eq) == 1 and eq[0].status == "pass"
    assert len(strict) == 20
    assert all(r.status == "pass" for r in strict)
    _stamp(4, t0, 60.0, "bound tight on the binary plane, strict on a "
           "20-matroid corpus with line numbers certified by minor search")


def test_criterion_05_spikes():
    t0 = perf_counter()
    report = run_suite("spikes")
    assert report.status == "pass"
    split = [r for r in report.records if r.claim.startswith("spike.split.")]
    assert len(split) >= 20
    assert any(r.claim == "spike.rank3.epsilon" for r in report.records)
    assert any(r.claim == "spike.rank3.nongraphic" for r in report.records)
    assert sum(r.claim.startswith("spike.contract-leg.")
               for r in report.records) == 3
    _stamp(5, t0, 300.0, "rank-3 point count and nongraphicness, leg "
           f"contractions r = 4..6, splitting on {len(split)} instances")


def test_criterion_06_tangles():
    t0 = perf_counter()
    report = run_suite("tangles")
    assert report.status == "pass"
    tk = [r for r in report.records if r.claim.startswith("tangle.tk.")]
    assert {r.claim for r in tk} == {f"tangle.tk.clique{n}"
                                     for n in (4, 5, 6, 7)}
    axioms = [r for r in report.records
              if r.claim.startswith("tangle.matroid-axioms.")]
    assert len(axioms) == 2  # both hosts have at most 12 elements
    induced = [r for r in report.records
               if r.claim.startswith("tangle.induced.")]
    assert len(induced) >= 10
    _stamp(6, t0, 300.0, "clique tangles at the clique order for 4..7 "
           f"vertices, tangle-matroid axioms, {len(induced)} induced tangles")


def test_criterion_07_linking():
    t0 = perf_counter()
    report = run_suite("linking")
    assert report.status == "pass"
    cases = [r for r in report.records if r.claim.startswith("linking.random.")]
    assert len(cases) == 50
    _stamp(7, t0, 600.0, "linking minors restrict correctly and realize "
           "kappa on 50 random linear instances, kappa cross-checked "
           "exhaustively")


def test_criterion_08_memberships():
    t0 = perf_counter()
    report = run_suite("memberships")
    assert report.status == "pass"
    fams = {r.claim for r in report.records
            if r.claim.startswith("membership.family.")}
    assert fams == {"membership.family.square", "membership.family.triangle",
                    "membership.family.circle"}
    spikes = {r.claim for r in report.records
              if r.claim.startswith("membership.spike-biclique.")}
    assert spikes == {f"membership.spike-biclique.r{r}" for r in (3, 4, 5)}
    _stamp(8, t0, 900.0, "certified family memberships plus truncated "
           "biclique spikes for r = 3..5")


def test_criterion_09_extension_dichotomy():
    t0 = perf_counter()
    report = run_suite("extension-reduction")
    assert report.status == "pass"
    classify = [r for r in report.records
                if r.claim.startswith("extension.classify.")]
    reductions = [r for r in report.records
                  if r.claim.startswith("reduction.")]
    assert len(classify) == 20
    assert len(reductions) == 3
    _stamp(9, t0, 600.0, f"classification agrees with the graphicness "
           f"search on {len(classify)} fixtures; all three reductions close")


def test_criterion_10_property_batteries():
    t0 = perf_counter()
    rng = random.Random(20260814)

    def draw_linear(max_rows=4, max_cols=8, min_cols=1):
        p = rng.choice((2, 3))
        r = rng.randint(1, max_rows)
        n = rng.randint(max(r, min_cols), max_cols)
        return from_matrix([[rng.randrange(p) for _ in range(n)]
                            for _ in range(r)], p)

    def draw_graph():
        nv = rng.randint(2, 5)
        return from_graph(nv, [(rng.randrange(nv), rng.randrange(nv))
                               for _ in range(rng.randint(1, 8))])

    # rank axioms
    for i in range(40):
        m = draw_linear() if i % 2 else draw_graph()
        validate_rank_axioms(m)

    # duality involution
    for _ in range(25):
        m = draw_linear(max_cols=10)
        assert same_rank_function(m, dual(dual(m)))

    # connectivity submodularity
    for _ in range(20):
        m = draw_linear()
        for _ in range(30):
            x = rng.randrange(m.full_mask + 1)
            y = rng.randrange(m.full_mask + 1)
            lhs = connectivity_mask(m, x | y) + connectivity_mask(m, x & y)
            assert lhs <= connectivity_mask(m, x) + connectivity_mask(m, y)

    # kappa against the unpruned minimum
    for _ in range(20):
        m = draw_linear(max_rows=3, max_cols=7, min_cols=4)
        els = list(range(m.size))
        xs = rng.sample(els, 4)
        a, b = sorted(xs[:2]), sorted(xs[2:])
        value, _ = kappa(m, a, b)
        assert value == kappa_brute(m, a, b)

    # pruned minor search against the unpruned oracle
    targets = [uniform(1, 2), uniform(2, 3), uniform(2, 4), uniform(3, 4)]
    for i in range(15):
        m = draw_linear(max_rows=3, max_cols=7)
        target = targets[i % len(targets)]
        assert (has_minor(m, target) is not None) == minor_brute(m, target)

    _stamp(10, t0, 600.0, "rank axioms, duality involution, submodularity, "
           "kappa agreement, and minor-search agreement: zero failures on "
           "the seeded battery")
