"""Command-line workbench: construct, query, verify, search.

Exit codes: 0 pass, 1 fail (a test answered "no" or a suite failed),
2 usage or input-format problems, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .connectivity import (
    connectivity,
    is_modular_flat,
    is_vertically_k_connected,
    kappa,
    local_conn,
)
from .constructions import (
    biclique,
    clique,
    fano,
    free_ext_clique,
    n_square,
    n_triangle,
    pg32,
    spike,
    square_ext,
    triangle_ext,
    truncation,
    uniform,
    whirl,
)
from .core import Matroid, epsilon
from .errors import (
    DomainError,
    FormatError,
    GroundSetError,
    MatroidError,
    PreconditionError,
    ReductionDidNotClose,
    ResourceLimitError,
    SerializationError,
)
from .exchange import dump, load
from .minors import (
    classify_clique_extension,
    has_minor,
    is_graphic,
    membership_suite,
)
from .reduction import reduce_clique_extension
from .representations import has_blocking_pair
from .suites import growth_table, run_suite, suite_names
from .tangles import Tangle, tangle_tk

_USAGE, _RESOURCE = 2, 3


def _elements(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise DomainError(f"expected comma-separated integers, got {text!r}")


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit(args, doc: dict, text: str) -> None:
    """Write doc to --out, then print it (--json) or the text summary."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if args.json:
        _print_json(doc)
    else:
        print(text)


def _jsonable(v):
    if isinstance(v, (set, frozenset)):
        return [_jsonable(x) for x in sorted(v)]
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _cert_doc(cert) -> dict:
    return {"contract": sorted(cert.contract), "delete": sorted(cert.delete),
            "mapping": [[t, h] for t, h in cert.mapping]}


# ---------------------------------------------------------------------------
# construct


def _build_family(args) -> Matroid:
    fam = args.family

    def need(attr: str) -> int:
        v = getattr(args, attr)
        if v is None:
            raise DomainError(f"family {fam!r} needs --{attr}")
        return v

    if fam == "square":
        return square_ext(need("n"))
    if fam == "triangle":
        return triangle_ext(need("n"))
    if fam == "free":
        return free_ext_clique(need("n"))
    if fam == "n-square":
        return n_square(need("n"))
    if fam == "n-triangle":
        return n_triangle(need("n"))
    if fam == "clique":
        return clique(need("n"))
    if fam == "truncated-clique":
        return truncation(clique(need("n")))
    if fam == "biclique":
        return biclique(need("m"), need("n"))
    if fam == "uniform":
        return uniform(need("rank"), need("n"))
    if fam == "whirl":
        return whirl(need("rank"))
    if fam == "spike":
        return spike(need("r"))
    if fam == "fano":
        return fano()
    if fam == "pg32":
        return pg32()
    raise DomainError(f"unknown family {fam!r}")


def cmd_construct(args) -> int:
    m = _build_family(args)
    info = {"name": m.name or args.family, "rank": m.full_rank(),
            "elements": m.size, "epsilon": epsilon(m)}
    if args.out:
        dump(m, args.out)
        info["out"] = args.out
    if args.json:
        _print_json(info)
    else:
        print(f"{info['name']}: rank {info['rank']}, "
              f"{info['elements']} elements, epsilon {info['epsilon']}")
        if args.out:
            print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# query


def cmd_query(args) -> int:
    m = load(args.matroid)
    q = args.query
    out: dict = {"query": q, "matroid": m.name or args.matroid}

    if q == "rank":
        if args.set is None:
            out["value"] = m.full_rank()
        else:
            out["set"] = _elements(args.set)
            out["value"] = m.r(m.mask(out["set"]))
    elif q == "epsilon":
        out["value"] = epsilon(m)
    elif q == "lambda":
        if args.set is None:
            raise DomainError("query lambda needs --set")
        out["set"] = _elements(args.set)
        out["value"] = connectivity(m, out["set"])
    elif q == "kappa":
        if args.x is None or args.y is None:
            raise DomainError("query kappa needs --x and --y")
        value, wit = kappa(m, _elements(args.x), _elements(args.y))
        out["value"] = value
        out["witness-side"] = list(wit.side)
    elif q == "local-conn":
        if args.x is None or args.y is None:
            raise DomainError("query local-conn needs --x and --y")
        out["value"] = local_conn(m, _elements(args.x), _elements(args.y))
    elif q == "vertical":
        if args.k is None:
            raise DomainError("query vertical needs --k")
        verdict = is_vertically_k_connected(m, args.k)
        out["value"] = verdict is True
        if verdict is not True:
            out["refuting-side"] = list(verdict.side)
            out["lambda"] = verdict.value
    elif q == "tangle":
        if args.order is None:
            raise DomainError("query tangle needs --order")
        t = tangle_tk(m, args.order)
        if isinstance(t, Tangle):
            out["value"] = "valid tangle"
            out["maximal-members"] = len(t.maximal)
        else:
            out["value"] = "not a tangle"
            out["failed-axiom"] = t.axiom
    elif q == "modular-flat":
        if args.set is None:
            raise DomainError("query modular-flat needs --set")
        out["set"] = _elements(args.set)
        out["value"] = is_modular_flat(m, out["set"])
    elif q == "blocking-pair":
        pair = has_blocking_pair(m.provenance)
        out["value"] = list(pair) if pair is not None else None
    else:
        raise DomainError(f"unknown query {q!r}")

    if args.json:
        _print_json(out)
    else:
        extras = {k: v for k, v in out.items()
                  if k not in ("query", "matroid", "value")}
        tail = f"  {extras}" if extras else ""
        print(f"{q}: {out['value']}{tail}")
    return 0


# ---------------------------------------------------------------------------
# verify and growth-table


def cmd_verify(args) -> int:
    report = run_suite(args.suite)
    text = report.to_json(runtimes=args.runtimes) if args.json \
        else report.table()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json(runtimes=args.runtimes))
            fh.write("\n")
    if report.status == "fail":
        return 1
    if report.status == "resource-limited":
        return _RESOURCE
    return 0


def cmd_growth_table(args) -> int:
    rows = growth_table(args.family, args.n_min, args.n_max)
    bad = [row for row in rows if not row.match]
    if args.json:
        _print_json({"family": args.family,
                     "rows": [{"n": r.n, "points": r.points, "value": r.value,
                               "formula": r.formula, "match": r.match}
                              for r in rows]})
    else:
        print(f"family {args.family}  (closed form {rows[0].formula})")
        print("  n  points  value  match")
        for r in rows:
            flag = "yes" if r.match else "MISMATCH"
            print(f"  {r.n}  {r.points:6d}  {r.value:5d}  {flag}")
        print("errors: none" if not bad else f"errors: {len(bad)} mismatches")
    return 0 if not bad else 1


# ---------------------------------------------------------------------------
# searches


def cmd_minor_test(args) -> int:
    host = load(args.host)
    target = load(args.target)
    cert = has_minor(host, target)
    found = cert is not None
    doc = {"host": host.name or args.host, "target": target.name or args.target,
           "found": found,
           "certificate": _cert_doc(cert) if found else None}
    text = "no minor"
    if found:
        text = (f"minor found: contract {sorted(cert.contract)}, "
                f"delete {sorted(cert.delete)}")
    _emit(args, doc, text)
    return 0 if found else 1


def cmd_graphic_test(args) -> int:
    m = load(args.matroid)
    rep = is_graphic(m)
    doc = {"matroid": m.name or args.matroid, "graphic": rep is not None}
    text = "nongraphic"
    if rep is not None:
        doc["n_vertices"] = rep.n_vertices
        doc["edges"] = [list(e) for e in rep.edges]
        text = f"graphic: {rep.n_vertices} vertices, edges {list(rep.edges)}"
    _emit(args, doc, text)
    return 0 if rep is not None else 1


def cmd_classify_extension(args) -> int:
    m = load(args.matroid)
    cls = classify_clique_extension(m, args.element)
    doc = {"matroid": m.name or args.matroid, "element": args.element,
           "graphic": cls.graphic, "reason": cls.reason,
           "witness": cls.witness}
    tail = f" (witness element {cls.witness})" \
        if cls.witness is not None else ""
    kind = "graphic" if cls.graphic else "nongraphic"
    _emit(args, doc, f"element {args.element}: {kind}, reason {cls.reason}{tail}")
    return 0


def cmd_reduce_extension(args) -> int:
    m = load(args.matroid)
    try:
        res = reduce_clique_extension(m, args.element, args.m)
    except ReductionDidNotClose as exc:
        doc = {"closed": False, "reason": str(exc),
               "transcript": _jsonable(list(exc.transcript))}
        _emit(args, doc, f"reduction did not close ({len(exc.transcript)} "
                         "transcript events)")
        return 1
    doc = {"closed": True, "kind": res.kind, "m": res.m,
           "target": res.target.name,
           "certificate": _cert_doc(res.certificate),
           "transcript": _jsonable(list(res.transcript))}
    _emit(args, doc, f"reduced to {res.target.name} ({res.kind} leaf, "
                     f"{len(res.transcript)} transcript events)\n"
                     f"contract {sorted(res.certificate.contract)}, "
                     f"delete {sorted(res.certificate.delete)}")
    return 0


def cmd_membership_suite(args) -> int:
    records = membership_suite(f"{args.family}-family")
    ok = all(rec.ok for rec in records)
    doc = {"family": args.family, "ok": ok,
           "records": [{"claim": rec.claim, "host": rec.host,
                        "target": rec.target, "ok": rec.ok,
                        "certificate": _cert_doc(rec.certificate)
                        if rec.certificate else None}
                       for rec in records]}
    _emit(args, doc, "\n".join(
        f"[{'ok ' if rec.ok else 'FAIL'}] {rec.target} inside {rec.host}: "
        f"{rec.claim}" for rec in records))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache  # argparse keeps no state between parse_args calls
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="matroidkit",
        description="matroid workbench: constructions, queries, verification")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named family member")
    c.add_argument("--family", required=True)
    c.add_argument("--n", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--rank", type=int)
    c.add_argument("--r", type=int)
    c.add_argument("--out")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_construct)

    q = sub.add_parser("query", help="evaluate one query on a matroid file")
    q.add_argument("query", choices=["rank", "epsilon", "lambda", "kappa",
                                     "local-conn", "vertical", "tangle",
                                     "modular-flat", "blocking-pair"])
    q.add_argument("--matroid", required=True)
    q.add_argument("--set")
    q.add_argument("--x")
    q.add_argument("--y")
    q.add_argument("--k", type=int)
    q.add_argument("--order", type=int)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", choices=suite_names())
    v.add_argument("--json", action="store_true")
    v.add_argument("--runtimes", action="store_true")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("growth-table", help="extremal point counts by rank")
    g.add_argument("--family", required=True,
                   choices=["square", "triangle", "circle", "graphic"])
    g.add_argument("--n-min", type=int, default=None)
    g.add_argument("--n-max", type=int, default=None)
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_growth_table)

    mt = sub.add_parser("minor-test", help="search for a target minor")
    mt.add_argument("--host", required=True)
    mt.add_argument("--target", required=True)
    mt.add_argument("--out")
    mt.add_argument("--json", action="store_true")
    mt.set_defaults(func=cmd_minor_test)

    gt = sub.add_parser("graphic-test", help="find a graph realization")
    gt.add_argument("--matroid", required=True)
    gt.add_argument("--out")
    gt.add_argument("--json", action="store_true")
    gt.set_defaults(func=cmd_graphic_test)

    ce = sub.add_parser("classify-extension",
                        help="graphic/nongraphic dichotomy over a clique")
    ce.add_argument("--matroid", required=True)
    ce.add_argument("--element", type=int, required=True)
    ce.add_argument("--out")
    ce.add_argument("--json", action="store_true")
    ce.set_defaults(func=cmd_classify_extension)

    re_ = sub.add_parser("reduce-extension",
                         help="reduce a nongraphic extension to a canonical "
                              "small target")
    re_.add_argument("--matroid", required=True)
    re_.add_argument("--element", type=int, required=True)
    re_.add_argument("--m", type=int, required=True)
    re_.add_argument("--out")
    re_.add_argument("--json", action="store_true")
    re_.set_defaults(func=cmd_reduce_extension)

    ms = sub.add_parser("membership-suite",
                        help="certified minor memberships for one family")
    ms.add_argument("family", choices=["square", "triangle", "circle"])
    ms.add_argument("--out")
    ms.add_argument("--json", action="store_true")
    ms.set_defaults(func=cmd_membership_suite)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return _RESOURCE
    except (DomainError, GroundSetError, PreconditionError, FormatError,
            SerializationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE
    except MatroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
