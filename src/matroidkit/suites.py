"""Named verification suites, their corpora, and the growth-rate table.

Each suite reproduces a batch of desk-scale checks as machine-readable
records. Reports are deterministic for fixed inputs and caps: records are
sorted by claim id, random corpora are built from pinned seeds, and the
canonical JSON form strips runtimes. Checks that would exceed a size cap
report "skipped (resource)" rather than disappearing.
"""

from __future__ import annotations

import itertools
import json
import platform
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import metadata
from math import comb
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from ._bits import bits, mask_of, spread
from .connectivity import is_modular_flat, kappa, linking_minor
from .constructions import (
    biclique,
    clique,
    fano,
    free_ext_clique,
    is_spike,
    n_square,
    n_triangle,
    pg32,
    principal_extension,
    spike,
    square_ext,
    triangle_ext,
    truncation,
    uniform,
    whirl,
)
from .core import (
    Matroid,
    MinorCertificate,
    direct_sum,
    epsilon,
    lambda_of,
    minor_with_map,
    rank_table,
    simplify,
    validate_rank_axioms,
    validate_certificate,
)
from .errors import DomainError, ResourceLimitError
from .isomorphism import is_isomorphic
from .minors import (
    classify_clique_extension,
    find_clique_minor,
    has_minor,
    is_graphic,
    kung_bound_check,
    membership_suite,
    spike_split_witness,
)
from .reduction import reduce_clique_extension
from .representations import from_graph, from_matrix
from .tangles import Tangle, clique_minor_tangle, is_tangle, tangle_matroid, tangle_tk

_LINKING_SEED = 271828


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class CheckRecord:
    """One executed check. ``tag`` names the claim area ("plumbing" for
    infrastructure-only checks); expected/computed are JSON-able."""

    claim: str
    tag: str
    params: dict
    expected: object
    computed: object
    status: str
    runtime: float


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    records: tuple[CheckRecord, ...]
    status: str  # pass | fail | resource-limited
    fingerprint: dict

    def to_json(self, *, runtimes: bool = False) -> str:
        """Canonical form: sorted keys, runtimes stripped unless asked for,
        byte-identical across runs and worker counts."""
        checks = []
        for rec in self.records:
            d = {"claim": rec.claim, "tag": rec.tag, "params": rec.params,
                 "expected": rec.expected, "computed": rec.computed,
                 "status": rec.status}
            if runtimes:
                d["runtime"] = round(rec.runtime, 3)
            checks.append(d)
        return json.dumps({"suite": self.suite, "status": self.status,
                           "fingerprint": self.fingerprint, "checks": checks},
                          sort_keys=True, indent=2)

    def table(self) -> str:
        if not self.records:
            return f"suite {self.suite}: {self.status} (no checks)"
        width = max(len(rec.claim) for rec in self.records)
        lines = [f"suite {self.suite}: {self.status}"]
        for rec in self.records:
            lines.append(
                f"  {rec.claim:<{width}}  {rec.status:<18}{rec.runtime:8.2f}s"
                f"  computed={rec.computed!r}")
        return "\n".join(lines)


@dataclass(frozen=True)
class _Check:
    claim: str
    tag: str
    params: dict
    thunk: Callable[[], tuple[object, object, bool]]


def _run_check(chk: _Check) -> CheckRecord:
    t0 = perf_counter()
    try:
        expected, computed, ok = chk.thunk()
        status = "pass" if ok else "fail"
    except ResourceLimitError as exc:
        expected, computed, status = None, str(exc), "skipped (resource)"
    except Exception as exc:  # a failing check must not kill the suite
        expected, computed = None, f"{type(exc).__name__}: {exc}"
        status = "fail"
    return CheckRecord(chk.claim, chk.tag, chk.params, expected, computed,
                       status, perf_counter() - t0)


def _fingerprint() -> dict:
    try:
        version = metadata.version("matroidkit")
    except metadata.PackageNotFoundError:
        version = "unknown"
    return {"matroidkit": version, "numpy": np.__version__,
            "python": platform.python_version()}


def run_suite(name: str, workers: int = 1) -> SuiteReport:
    """Run one named suite; records come back sorted by claim id.

    ``workers`` (default 1) runs checks on that many threads. Reports are
    identical for any worker count.
    """
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    checks = SUITES[name]()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_check, checks))
    else:
        records = [_run_check(chk) for chk in checks]
    records.sort(key=lambda rec: rec.claim)
    if any(rec.status == "fail" for rec in records):
        status = "fail"
    elif any(rec.status.startswith("skipped") for rec in records):
        status = "resource-limited"
    else:
        status = "pass"
    return SuiteReport(name, tuple(records), status, _fingerprint())


def suite_names() -> list[str]:
    return sorted(SUITES)


# ---------------------------------------------------------------------------
# growth table


@dataclass(frozen=True)
class GrowthRow:
    n: int
    points: int
    value: int
    formula: str
    match: bool


def _circle_points(n: int) -> tuple[int, bool]:
    """Points of the truncated clique, and whether truncation kept it simple."""
    t = truncation(clique(n + 2))
    pts = epsilon(t)
    return pts, pts == t.size


# family -> (points fn, closed form fn, formula text, default n range)
_GROWTH_FAMILIES = {
    "square": (lambda n: (epsilon(n_square(n)), True),
               lambda n: comb(n + 2, 2) - 3, "C(n+2,2)-3", (2, 6)),
    "triangle": (lambda n: (epsilon(n_triangle(n)), True),
                 lambda n: comb(n + 2, 2) - 2, "C(n+2,2)-2", (2, 6)),
    "circle": (_circle_points,
               lambda n: comb(n + 2, 2), "C(n+2,2)", (2, 5)),
    "graphic": (lambda n: (epsilon(clique(n + 1)), True),
                lambda n: comb(n + 1, 2), "C(n+1,2)", (2, 6)),
}


def growth_table(family: str, n_lo: Optional[int] = None,
                 n_hi: Optional[int] = None) -> list[GrowthRow]:
    """Point counts of the extremal family members against the closed form."""
    if family not in _GROWTH_FAMILIES:
        raise DomainError(
            f"unknown family {family!r}; choose from "
            f"{', '.join(sorted(_GROWTH_FAMILIES))}")
    pts_fn, val_fn, formula, (dlo, dhi) = _GROWTH_FAMILIES[family]
    lo = dlo if n_lo is None else n_lo
    hi = dhi if n_hi is None else n_hi
    if lo < 2 or hi < lo:
        raise DomainError("growth table needs 2 <= n_lo <= n_hi")
    rows = []
    for n in range(lo, hi + 1):
        points, extra = pts_fn(n)
        value = val_fn(n)
        rows.append(GrowthRow(n, points, value, formula,
                              extra and points == value))
    return rows


def _suite_growth() -> list[_Check]:
    checks = []
    for family in ("square", "triangle", "circle"):
        lo, hi = _GROWTH_FAMILIES[family][3]
        for n in range(lo, hi + 1):
            checks.append(_Check(
                f"growth.{family}.n{n}", "growth", {"family": family, "n": n},
                _growth_thunk(family, n)))
    return checks


def _growth_thunk(family: str, n: int):
    def thunk():
        row = growth_table(family, n, n)[0]
        return row.value, row.points, row.match
    return thunk


# ---------------------------------------------------------------------------
# isomorphisms


def _iso_thunk(build_a, build_b):
    def thunk():
        a, b = build_a(), build_b()
        phi = is_isomorphic(a, b)
        if phi is None:
            return "isomorphic", "no isomorphism found", False
        bijection = MinorCertificate(frozenset(), frozenset(),
                                     tuple(phi.items()))
        if not validate_certificate(bijection, b, a):
            return "isomorphic", "bijection failed subset revalidation", False
        return "isomorphic", "isomorphic (bijection checked on all subsets)", True
    return thunk


def _pg_minus_independent_triple() -> Matroid:
    pg = pg32()
    triple = next(c for c in itertools.combinations(range(pg.size), 3)
                  if pg.r((1 << c[0]) | (1 << c[1]) | (1 << c[2])) == 3)
    out, _ = minor_with_map(pg, (), triple)
    return out


def _suite_isomorphisms() -> list[_Check]:
    return [
        _Check("iso.triangle-ext3.u24", "isomorphism",
               {"a": "triangle_ext(3)", "b": "uniform(2,4)"},
               _iso_thunk(lambda: triangle_ext(3), lambda: uniform(2, 4))),
        _Check("iso.square-ext4.fano", "isomorphism",
               {"a": "square_ext(4)", "b": "fano"},
               _iso_thunk(lambda: square_ext(4), fano)),
        _Check("iso.si-n-square4.pg32-minus-triple", "isomorphism",
               {"a": "si(n_square(4))", "b": "pg32 minus independent triple"},
               _iso_thunk(lambda: simplify(n_square(4))[0],
                          _pg_minus_independent_triple)),
    ]


# ---------------------------------------------------------------------------
# point-count bound


_KUNG_CORPUS: tuple[tuple[str, Callable[[], Matroid]], ...] = (
    ("clique4", lambda: clique(4)),
    ("clique5", lambda: clique(5)),
    ("clique6", lambda: clique(6)),
    ("clique7", lambda: clique(7)),
    ("biclique22", lambda: biclique(2, 2)),
    ("biclique23", lambda: biclique(2, 3)),
    ("biclique24", lambda: biclique(2, 4)),
    ("biclique33", lambda: biclique(3, 3)),
    ("square-ext5", lambda: square_ext(5)),
    ("square-ext6", lambda: square_ext(6)),
    ("si-n-square4", lambda: simplify(n_square(4))[0]),
    ("si-n-square5", lambda: simplify(n_square(5))[0]),
    ("triangle-ext4", lambda: triangle_ext(4)),
    ("triangle-ext5", lambda: triangle_ext(5)),
    ("triangle-ext6", lambda: triangle_ext(6)),
    ("si-n-triangle3", lambda: simplify(n_triangle(3))[0]),
    ("si-n-triangle4", lambda: simplify(n_triangle(4))[0]),
    ("whirl3", lambda: whirl(3)),
    ("whirl4", lambda: whirl(4)),
    ("uniform35", lambda: uniform(3, 5)),
)


def _kung_equality_thunk():
    rep = kung_bound_check(fano(), 2, check_minor=True)
    computed = {"epsilon": rep.epsilon, "bound": rep.bound,
                "holds": rep.holds, "tight": rep.tight}
    return {"holds": True, "tight": True}, computed, rep.holds and rep.tight


def _kung_strict_thunk(build: Callable[[], Matroid]):
    def thunk():
        m = build()
        # corpus membership established by minor search, not by assumption
        if has_minor(m, uniform(2, 4)) is None:
            ell = 2
        elif has_minor(m, uniform(2, 5)) is None:
            ell = 3
        else:
            return ({"holds": True, "tight": False},
                    "matroid has a 5-point-line minor", False)
        rep = kung_bound_check(m, ell)
        computed = {"line-bound": ell, "epsilon": rep.epsilon,
                    "bound": rep.bound, "holds": rep.holds,
                    "tight": rep.tight}
        return {"holds": True, "tight": False}, computed, \
            rep.holds and not rep.tight
    return thunk


def _suite_kung() -> list[_Check]:
    checks = [_Check("kung.equality.pg22", "bound", {"line-bound": 2},
                     _kung_equality_thunk)]
    for name, build in _KUNG_CORPUS:
        checks.append(_Check(f"kung.strict.{name}", "bound",
                             {"matroid": name}, _kung_strict_thunk(build)))
    return checks


# ---------------------------------------------------------------------------
# spikes


def _spike_epsilon_thunk():
    eps = epsilon(spike(3))
    return 7, eps, eps == 7


def _spike_nongraphic_thunk():
    rep = is_graphic(spike(3))
    return "nongraphic", "nongraphic" if rep is None else "graphic", rep is None


def _spike_contract_thunk(r: int):
    def thunk():
        mc, _ = minor_with_map(spike(r), (1,), ())
        si, _ = simplify(mc)
        decomp = is_spike(si)
        computed = {"spike": decomp is not None,
                    "rank": decomp.rank if decomp else None}
        return {"spike": True, "rank": r - 1}, computed, \
            decomp is not None and decomp.rank == r - 1
    return thunk


def _spike_split_thunk(build: Callable[[], Matroid], spike_els: tuple, e: int):
    def thunk():
        m = build()
        wit = spike_split_witness(m, spike_els, e)
        if wit is None:
            return "split covers E(S) - e", "no covering pair", False
        s1, s2 = wit
        goal = set(spike_els) - {e}
        if set(s1) | set(s2) != goal:
            return "split covers E(S) - e", "union misses elements", False
        mc, keep = minor_with_map(m, (e,), ())
        for part in (s1, s2):
            sub, _ = minor_with_map(
                mc, (), [x for x in range(mc.size)
                         if keep[x] not in part])
            if is_spike(sub) is None:
                return "split covers E(S) - e", "piece is not a spike", False
        return ("split covers E(S) - e",
                {"sizes": [len(s1), len(s2)]}, True)
    return thunk


# splitting corpus: contracted element inside the spike needs |E(S)| - 1 >= 7
# for rank-3 pieces to fit, hence r >= 4 there; rank-3 hosts appear with the
# contracted element outside E(S).
_SPLIT_OUTSIDE: tuple[tuple[str, Callable[[], Matroid], int, int], ...] = (
    ("r3-coloop", lambda: direct_sum(spike(3), uniform(1, 1)), 3, 7),
    ("r4-parallel-pair", lambda: direct_sum(spike(4), uniform(1, 2)), 4, 9),
    ("r5-coloop", lambda: direct_sum(spike(5), uniform(1, 1)), 5, 11),
    ("r4-inside-with-extra", lambda: direct_sum(spike(4), uniform(1, 1)), 4, 3),
)


def _suite_spikes() -> list[_Check]:
    checks = [
        _Check("spike.rank3.epsilon", "spike", {"r": 3}, _spike_epsilon_thunk),
        _Check("spike.rank3.nongraphic", "spike", {"r": 3},
               _spike_nongraphic_thunk),
    ]
    for r in (4, 5, 6):
        checks.append(_Check(f"spike.contract-leg.r{r}", "spike", {"r": r},
                             _spike_contract_thunk(r)))
    for r in (4, 5):
        els = tuple(range(2 * r + 1))
        for e in range(1, 2 * r + 1):
            checks.append(_Check(
                f"spike.split.r{r}.e{e:02d}", "spike", {"r": r, "e": e},
                _spike_split_thunk(lambda r=r: spike(r), els, e)))
    for name, build, r, e in _SPLIT_OUTSIDE:
        checks.append(_Check(
            f"spike.split.{name}", "spike", {"r": r, "e": e},
            _spike_split_thunk(build, tuple(range(2 * r + 1)), e)))
    return checks


# ---------------------------------------------------------------------------
# tangles


_INDUCED_TANGLE_HOSTS: tuple[tuple[str, Callable[[], Matroid], int], ...] = (
    ("clique5-c4", lambda: clique(5), 3),
    ("clique5-c5", lambda: clique(5), 4),
    ("clique6-c5", lambda: clique(6), 4),
    ("clique6-c6", lambda: clique(6), 5),
    ("clique7-c5", lambda: clique(7), 4),
    ("clique7-c6", lambda: clique(7), 5),
    ("square-ext5-c5", lambda: square_ext(5), 4),
    ("triangle-ext5-c5", lambda: triangle_ext(5), 4),
    ("free-ext5-c5", lambda: free_ext_clique(5), 4),
    ("biclique33-c4", lambda: biclique(3, 3), 3),
)


def _tk_thunk(n: int, k: int):
    def thunk():
        m = clique(n + 1)
        t = tangle_tk(m, k)
        if not isinstance(t, Tangle):
            return "tangle", {"failed-axiom": t.axiom}, False
        chk = is_tangle(m, t, k)
        return "tangle", {"order": k, "ok": chk.ok, "axiom": chk.axiom}, chk.ok
    return thunk


def _tangle_matroid_thunk(n: int, k: int):
    def thunk():
        t = tangle_tk(clique(n + 1), k)
        if not isinstance(t, Tangle):
            return "rank axioms hold", {"failed-axiom": t.axiom}, False
        tm = tangle_matroid(t)
        validate_rank_axioms(tm)  # raises on violation
        return ("rank axioms hold",
                {"rank": tm.full_rank(), "elements": tm.size}, True)
    return thunk


def _induced_tangle_thunk(build: Callable[[], Matroid], n: int):
    def thunk():
        m = build()
        cert = find_clique_minor(m, n)
        if cert is None:
            return "induced tangle valid", "no clique minor found", False
        t = clique_minor_tangle(m, cert, n)
        chk = is_tangle(m, t, t.theta)
        return ("induced tangle valid",
                {"order": t.theta, "ok": chk.ok, "axiom": chk.axiom}, chk.ok)
    return thunk


def _suite_tangles() -> list[_Check]:
    checks = []
    for n in range(3, 7):
        k = (2 * n + 2) // 3
        checks.append(_Check(f"tangle.tk.clique{n + 1}", "tangle",
                             {"n": n, "order": k}, _tk_thunk(n, k)))
    for n in (3, 4):  # tangle matroid axiom sweep within the table cap
        k = (2 * n + 2) // 3
        checks.append(_Check(f"tangle.matroid-axioms.clique{n + 1}", "tangle",
                             {"n": n, "order": k}, _tangle_matroid_thunk(n, k)))
    for name, build, n in _INDUCED_TANGLE_HOSTS:
        checks.append(_Check(f"tangle.induced.{name}", "tangle",
                             {"clique": n + 1}, _induced_tangle_thunk(build, n)))
    return checks


# ---------------------------------------------------------------------------
# linking


def _linking_instances() -> list[dict]:
    rng = random.Random(_LINKING_SEED)
    out = []
    while len(out) < 50:
        prime = rng.choice((2, 3))
        r = rng.randint(3, 5)
        n = rng.randint(9, 12)
        rows = [[rng.randrange(prime) for _ in range(n)] for _ in range(r)]
        xs = sorted(rng.sample(range(n), rng.randint(2, 3)))
        rest = [e for e in range(n) if e not in xs]
        ys = sorted(rng.sample(rest, rng.randint(2, 3)))
        out.append({"prime": prime, "rows": rows, "x": xs, "y": ys})
    return out


def _linking_thunk(inst: dict):
    def thunk():
        m = from_matrix(inst["rows"], inst["prime"])
        xs, ys = inst["x"], inst["y"]
        xmask, ymask = m.mask(xs), m.mask(ys)
        kap, _wit = kappa(m, xs, ys)
        # independent exhaustive minimization over all separations
        free = m.full_mask & ~(xmask | ymask)
        brute = int(lambda_of(m)[spread(xmask, [1 << e for e in bits(free)])]
                    .min())
        n2, cert = linking_minor(m, xs, ys)
        inv = {h: i for i, h in cert.mapping}
        for side in (xs, ys):
            host = spread(0, [1 << el for el in side])
            minor = spread(0, [1 << inv[el] for el in side])
            if not np.array_equal(rank_table(m)[host], rank_table(n2)[minor]):
                return ("restrictions and lambda agree",
                        "restriction rank drifted", False)
        lam_minor = int(lambda_of(n2)[mask_of(inv[el] for el in xs)])
        computed = {"kappa": kap, "exhaustive": brute,
                    "lambda-in-minor": lam_minor}
        ok = kap == brute == lam_minor
        return "restrictions and lambda agree", computed, ok
    return thunk


def _suite_linking() -> list[_Check]:
    checks = []
    for i, inst in enumerate(_linking_instances()):
        params = {"prime": inst["prime"], "elements": len(inst["rows"][0]),
                  "x": inst["x"], "y": inst["y"]}
        checks.append(_Check(f"linking.random.{i:02d}", "linking", params,
                             _linking_thunk(inst)))
    return checks


# ---------------------------------------------------------------------------
# memberships


def _membership_family_thunk(family: str):
    def thunk():
        records = membership_suite(f"{family}-family")
        computed = [{"claim": rec.claim, "host": rec.host, "ok": rec.ok}
                    for rec in records]
        return "all memberships certified", computed, all(r.ok for r in records)
    return thunk


def _spike_biclique_thunk(r: int):
    def thunk():
        s = spike(r)
        decomp = is_spike(s)
        tipless, _ = minor_with_map(s, (), (0,))
        lam = truncation(biclique(2, r))
        phi = is_isomorphic(tipless, lam)
        ok = (decomp is not None and phi is not None
              and validate_certificate(
                  MinorCertificate(frozenset(), frozenset(),
                                   tuple(phi.items())), lam, tipless))
        computed = {"spike": decomp is not None,
                    "tipless-is-truncated-biclique": phi is not None}
        return {"spike": True, "tipless-is-truncated-biclique": True}, \
            computed, ok
    return thunk


def _suite_memberships() -> list[_Check]:
    checks = []
    for family in ("square", "triangle", "circle"):
        checks.append(_Check(f"membership.family.{family}", "membership",
                             {"family": family},
                             _membership_family_thunk(family)))
    for r in (3, 4, 5):
        checks.append(_Check(f"membership.spike-biclique.r{r}", "membership",
                             {"r": r}, _spike_biclique_thunk(r)))
    return checks


# ---------------------------------------------------------------------------
# extension classification and reduction


def extension_fixtures() -> list[tuple[str, int, Matroid]]:
    """Deterministic single-element extensions of small cliques.

    Covers the graphic trio (loop, parallel, coloop) and nongraphic
    positions (free point, triangle point, four-point binary position,
    point on a two-edge matching flat, point free over a proper plane).
    """
    out = []
    for n in (2, 3, 4):
        k = n + 1
        prs = list(itertools.combinations(range(k), 2))
        base = clique(k)
        e = len(prs)
        out.append((f"n{n}.loop", e, from_graph(k, prs + [(0, 0)])))
        out.append((f"n{n}.parallel", e, from_graph(k, prs + [(0, 1)])))
        out.append((f"n{n}.coloop", e, from_graph(k + 1, prs + [(0, k)])))
        out.append((f"n{n}.free-point", e, free_ext_clique(k)))
        out.append((f"n{n}.triangle-point", e, triangle_ext(k)))
        if k >= 4:
            out.append((f"n{n}.square-point", e, square_ext(k)))
            matching = [prs.index((0, 1)), prs.index((2, 3))]
            out.append((f"n{n}.matching-point", e,
                        principal_extension(base, matching)))
        if k >= 5:
            plane = [i for i, (u, v) in enumerate(prs) if u < 4 and v < 4]
            out.append((f"n{n}.plane-point", e,
                        principal_extension(base, plane)))
    return out


def _classify_thunk(m: Matroid, e: int):
    def thunk():
        cls = classify_clique_extension(m, e)
        rep = is_graphic(m)
        computed = {"reason": cls.reason, "graphic-search": rep is not None}
        return "classification agrees with graph search", computed, \
            cls.graphic == (rep is not None)
    return thunk


def _reduction_case_thunk(name: str):
    def thunk():
        if name == "triangle":
            host, want = triangle_ext(6), "triangle_ext(4)"
        elif name == "free":
            host, want = free_ext_clique(8), "free_ext_clique(4)"
        else:
            host, want = square_ext(6), "square_ext(5)"
        res = reduce_clique_extension(host, host.size - 1, 4)
        ok = (res.target.name == want
              and validate_certificate(res.certificate, host, res.target))
        extra = {}
        if name == "square" and ok:
            # the certified target carries the binary plane on a modular flat
            # (the six inner-clique edges together with the extension point)
            prs = list(itertools.combinations(range(5), 2))
            flat = [i for i, (u, v) in enumerate(prs)
                    if u < 4 and v < 4] + [10]
            ok = (has_minor(res.target, fano()) is not None
                  and is_modular_flat(res.target, flat)
                  and res.target.r(res.target.mask(flat)) == 3)
            extra = {"fano-on-modular-flat": ok}
        computed = {"kind": res.kind, "target": res.target.name,
                    "events": len(res.transcript), **extra}
        return {"target": want}, computed, ok
    return thunk


def _suite_extension_reduction() -> list[_Check]:
    checks = []
    for name, e, m in extension_fixtures():
        checks.append(_Check(f"extension.classify.{name}", "dichotomy",
                             {"fixture": name}, _classify_thunk(m, e)))
    for name in ("triangle", "free", "square"):
        checks.append(_Check(f"reduction.{name}-case", "reduction",
                             {"m": 4}, _reduction_case_thunk(name)))
    return checks


SUITES: dict[str, Callable[[], list[_Check]]] = {
    "growth-rates": _suite_growth,
    "isomorphisms": _suite_isomorphisms,
    "kung": _suite_kung,
    "spikes": _suite_spikes,
    "tangles": _suite_tangles,
    "linking": _suite_linking,
    "memberships": _suite_memberships,
    "extension-reduction": _suite_extension_reduction,
}
