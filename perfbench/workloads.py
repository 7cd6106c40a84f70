"""The operations of each workload: calls into matroidkit and their checks.

Traced library functions are looked up on their modules at call time, so
that a tracer that rebinds module attributes sees every call the benchmark
makes.
Each operation builds its matroids inside the call, so no memo or cache
carries over from one pass to the next.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from matroidkit import (cli, constructions, core, exchange, minors,
                        representations, tangles)

import gen

# the package re-exports a function under this module's name
connectivity = importlib.import_module("matroidkit.connectivity")


@dataclass
class Op:
    """One closed-loop operation. check(out) returns (ok, verdict): whether
    the output matches the known answer, and a JSON-able summary that must
    be the same on traced and untraced passes. An untraced pass k runs the
    operation `repeat` times, on successive input variants, when k is a
    multiple of `every`."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, object]]
    every: int = 1
    repeat: int = 1


def build(workload: str, variants: list[list[dict]], workdir: str
          ) -> list[list[Op]]:
    """The operations of each input variant. Minor-search writes its input
    documents into workdir."""
    if workload == "tangle-sweep":
        return [[_tangle_op(s) for s in specs] for specs in variants]
    if workload == "oracle-sweep":
        return [[_oracle_op(i, s) for i, s in enumerate(specs)]
                for specs in variants]
    if workload == "minor-search":
        targets = {}
        for name, spec in gen.TARGETS.items():
            targets[name] = os.path.join(workdir, f"target-{name}.json")
            exchange.dump(_matroid(spec), targets[name])
        return [_minor_search_ops(specs, targets,
                                  os.path.join(workdir, f"v{v:02d}-"))
                for v, specs in enumerate(variants)]
    raise ValueError(f"unknown workload {workload!r}")


def _matroid(spec: dict):
    kind = spec["kind"]
    if kind == "graph":
        return representations.from_graph(spec["n_vertices"], spec["edges"])
    if kind == "linear":
        return representations.from_matrix(spec["rows"], spec["prime"])
    if kind == "free-extension":
        return constructions.free_extension(
            representations.from_graph(spec["n_vertices"], spec["edges"]))
    raise ValueError(f"unknown host kind {kind!r}")


def _expect_equal(expect):
    """Check against a known answer; a None field in a dict answer is not
    known and is not compared."""
    def check(out):
        if isinstance(expect, dict):
            ok = isinstance(out, dict) and all(
                v is None or out.get(k) == v for k, v in expect.items())
        else:
            ok = out == expect
        return ok, out
    return check


# ---------------------------------------------------------------------------
# tangle-sweep


def _tangle_op(spec: dict) -> Op:
    host = spec["host"]
    kind = spec["kind"]

    if kind == "tk":
        k = spec["order"]

        def call():
            m = _matroid(host)
            t = tangles.tangle_tk(m, k)
            if not isinstance(t, tangles.Tangle):
                return {"failed-axiom": t.axiom}
            chk = tangles.is_tangle(m, t, k)
            return {"ok": chk.ok, "order": t.theta, "maximal": len(t.maximal)}

    elif kind == "tangle-matroid":
        k = spec["order"]

        def call():
            t = tangles.tangle_tk(_matroid(host), k)
            if not isinstance(t, tangles.Tangle):
                return {"failed-axiom": t.axiom}
            tm = tangles.tangle_matroid(t)
            core.validate_rank_axioms(tm)  # raises on violation
            return {"rank": tm.full_rank(), "elements": tm.size}

    else:
        n = spec["n"]

        def call():
            m = _matroid(host)
            cert = minors.find_clique_minor(m, n)
            if cert is None:
                return {"clique-minor": None}
            t = tangles.clique_minor_tangle(m, cert, n)
            chk = tangles.is_tangle(m, t, t.theta)
            return {"ok": chk.ok, "order": t.theta}

    return Op(spec["op"], call, _expect_equal(spec["expect"]),
              spec.get("every", 1), spec.get("repeat", 1))


# ---------------------------------------------------------------------------
# oracle-sweep


def _spot_check(rng: random.Random, rank_of, reference, n: int) -> bool:
    """Compare 64 random subsets against a reference rank."""
    for _ in range(64):
        subset = [e for e in range(n) if rng.random() < 0.5]
        if rank_of(subset) != reference(subset):
            return False
    return True


def same(a, b) -> bool:
    return core.same_rank_function(a, b)


def _oracle_op(index: int, spec: dict) -> Op:
    kind = spec["kind"]
    p = spec.get("prime")
    lin = representations.from_matrix
    check = _expect_equal(spec["expect"])

    if kind == "rank-table":
        def call():
            return (core.rank_table(lin(spec["rows"], p)),
                    core.rank_table(lin(spec["twin"], p)))

        def check(out):
            a, b = out
            n = len(spec["rows"][0])
            rng = random.Random(index)
            ok = (bool(np.array_equal(a, b))
                  and int(a[-1]) == spec["expect"]["rank"]
                  and _spot_check(
                      rng, lambda s: int(a[sum(1 << e for e in s)]),
                      lambda s: gen.matrix_rank_of(p, spec["rows"], s), n))
            return ok, {"equal": bool(np.array_equal(a, b)),
                        "rank": int(a[-1])}

    elif kind == "same-rank":
        def call():
            return same(lin(spec["rows"], p), lin(spec["twin"], p))

    elif kind in ("even-cycle", "signed-graph"):
        build = (representations.even_cycle if kind == "even-cycle"
                 else representations.signed_graphic)

        def call():
            m = build(spec["n_vertices"], spec["edges"], spec["odd"])
            return same(m, m.provenance.to_linear().matroid())

    elif kind == "dual":
        def call():
            return same(core.dual(lin(spec["rows"], p)), lin(spec["dual"], p))

    elif kind == "truncation":
        def call():
            return same(constructions.truncation(lin(spec["rows"], p)),
                        constructions.truncation(lin(spec["twin"], p)))

    elif kind == "principal-extension":
        def call():
            m = lin(spec["rows"], p)
            return same(constructions.principal_extension(m, range(m.size)),
                        constructions.free_extension(lin(spec["twin"], p)))

    elif kind == "direct-sum":
        def call():
            return same(core.direct_sum(lin(spec["a"], p), lin(spec["b"], p)),
                        lin(spec["sum_twin"], p))

    elif kind == "minor-chain":
        def call():
            # (M / C \ D)* = M* \ C / D, step by step
            m = lin(spec["rows"], p)
            d = core.dual(m)
            for step in spec["steps"]:
                m, _ = core.minor_with_map(m, step["contract"], step["delete"])
                d, _ = core.minor_with_map(d, step["delete"], step["contract"])
            return same(core.dual(m), d)

    elif kind == "validate-certificate":
        def call():
            host = lin(spec["rows"], p)
            target, keep = core.minor_with_map(
                lin(spec["twin"], p), spec["contract"], spec["delete"])
            cert = core.MinorCertificate(frozenset(spec["contract"]),
                                         frozenset(spec["delete"]),
                                         tuple(enumerate(keep)))
            return core.validate_certificate(cert, host, target)

    elif kind == "kappa":
        def call():
            value, wit = connectivity.kappa(lin(spec["rows"], p), spec["x"],
                                            spec["y"])
            return value, list(wit.side), wit.value

        def check(out):
            value, side, wit_value = out
            rows = spec["rows"]
            rest = [e for e in range(len(rows[0])) if e not in side]
            lam = (gen.matrix_rank_of(p, rows, side)
                   + gen.matrix_rank_of(p, rows, rest)
                   - gen.matrix_rank_of(p, rows, range(len(rows[0]))))
            verdict = {"value": value, "side": side}
            return (verdict == spec["expect"] and wit_value == value
                    and lam == value), verdict

    elif kind == "is-graphic":
        def call():
            return minors.is_graphic(lin(spec["rows"], p))

        def check(rep):
            if rep is None:
                return False, None
            rows = spec["rows"]
            n = len(rows[0])
            ok = (len(rep.edges) == n and _spot_check(
                random.Random(index),
                lambda s: gen.graph_rank_of(rep.n_vertices, rep.edges, s),
                lambda s: gen.matrix_rank_of(p, rows, s), n)
                and gen.graph_rank_of(rep.n_vertices, rep.edges, range(n))
                == gen.matrix_rank_of(p, rows, range(n)))
            return ok, True

    else:
        raise ValueError(f"unknown oracle op {kind!r}")

    return Op(spec["op"], call, check)


# ---------------------------------------------------------------------------
# minor-search


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_out(path: str):
    """The --out document of a query, removed so the next call must write
    its own."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    os.remove(path)
    return doc


def _minor_search_ops(specs: list[dict], targets: dict, prefix: str
                      ) -> list[Op]:
    ops = []
    for i, spec in enumerate(specs):
        host = None
        if "host" in spec:
            host = f"{prefix}host-{i:02d}.json"
            exchange.dump(_matroid(spec["host"]), host)
        out = f"{prefix}out-{i:02d}.json"
        ops.append(_query_op(spec, host, targets.get(spec.get("target")), out))
    return ops


def _query_op(spec: dict, host: str, target: str, out: str) -> Op:
    kind = spec["kind"]
    expect = spec["expect"]
    if kind == "minor-test":
        argv = ["minor-test", "--host", host, "--target", target, "--out", out]
    elif kind == "graphic-test":
        argv = ["graphic-test", "--matroid", host, "--out", out]
    elif kind == "construct":
        argv = ["construct", *spec["argv"], "--out", out, "--json"]
    else:
        argv = (["query", spec["argv"][0], "--matroid", host]
                + spec["argv"][1:] + ["--json"])

    def call():
        return _cli(argv)

    def check(result):
        code, stdout = result
        if code != expect["exit"]:
            return False, {"exit": code}
        if kind in ("query", "construct"):
            doc = json.loads(stdout)
            verdict = {k: doc.get(k) for k in expect if k != "exit"}
            ok = verdict == {k: v for k, v in expect.items() if k != "exit"}
            if kind == "construct":  # the written document must read back
                m = exchange.load(out)
                os.remove(out)
                ok = ok and (m.full_rank(), m.size) == (expect["rank"],
                                                        expect["elements"])
            return ok, verdict
        doc = _read_out(out)
        if doc is None:
            return False, {"exit": code, "out": None}
        found = code == 0
        m = exchange.load(host)
        if kind == "minor-test":
            if doc["found"] != found:
                return False, {"exit": code, "found": doc["found"]}
            if found:
                c = doc["certificate"]
                cert = core.MinorCertificate(
                    frozenset(c["contract"]), frozenset(c["delete"]),
                    tuple(tuple(pair) for pair in c["mapping"]))
                if not core.validate_certificate(cert, m,
                                                 exchange.load(target)):
                    return False, {"exit": code, "certificate": "invalid"}
            return True, {"exit": code, "found": found}
        if doc["graphic"] != found:
            return False, {"exit": code, "graphic": doc["graphic"]}
        if found:
            g = representations.from_graph(doc["n_vertices"], doc["edges"])
            cert = core.MinorCertificate(frozenset(), frozenset(),
                                         tuple((e, e) for e in range(m.size)))
            if not core.validate_certificate(cert, m, g):
                return False, {"exit": code, "graph": "invalid"}
        return True, {"exit": code, "graphic": found}

    return Op(spec["op"], call, check)
