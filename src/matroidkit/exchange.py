"""On-disk matroid format: canonical JSON documents that round-trip bit-exactly.

Document grammar (all kinds share the three header fields):

    {"format": "matroid-exchange", "version": 1, "kind": <kind>, ...}

    kind "linear":       prime, n_columns, rows (matrix rows, entries mod p)
    kind "graph":        n_vertices, edges ([[u, v], ...])
    kind "even-cycle":   n_vertices, edges, odd (sorted edge indices)
    kind "signed-graph": n_vertices, edges, odd
    kind "recipe":       op, args (nested documents sans header), params

Canonical form: keys sorted, two-space indent, single trailing newline.
serialize(deserialize(text)) == text for any document this module emits.
"""

from __future__ import annotations

import json
from typing import Any

from .constructions import (free_extension, principal_extension, truncation,
                            uniform, whirl)
from .core import (Matroid, Recipe, check_size, direct_sum, dual,
                   minor_with_map)
from .errors import FormatError, ResourceLimitError, SerializationError
from .representations import (
    EvenCycleRep,
    GraphRep,
    LinearRep,
    SignedGraphRep,
    _DecoratedGraphRep,
)

FORMAT_TAG = "matroid-exchange"
FORMAT_VERSION = 1

# Recipe documents may nest their args at most this deep.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# serialization


def _rep_payload(prov: Any, name: str) -> dict:
    out: dict[str, Any] = {}
    if isinstance(prov, LinearRep):
        rows = [[col[i] for col in prov.columns] for i in range(prov.n_rows)]
        out = {"kind": "linear", "prime": prov.prime,
               "n_columns": len(prov.columns), "rows": rows}
    elif isinstance(prov, GraphRep):
        out = {"kind": "graph", "n_vertices": prov.n_vertices,
               "edges": [[u, v] for u, v in prov.edges]}
    elif isinstance(prov, _DecoratedGraphRep):
        out = {"kind": "even-cycle" if isinstance(prov, EvenCycleRep)
               else "signed-graph", "n_vertices": prov.n_vertices,
               "edges": [[u, v] for u, v in prov.edges],
               "odd": sorted(prov.odd)}
    elif isinstance(prov, Recipe):
        out = {"kind": "recipe", "op": prov.op,
               "args": [_matroid_payload(a) for a in prov.args],
               "params": {k: _plain(v) for k, v in prov.params.items()}}
    else:
        raise SerializationError(
            "matroid has no serializable provenance; rebuild it from a "
            "representation or recipe")
    if name:
        out["name"] = name
    return out


def _plain(v):
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, (int, str)):
        return v
    raise SerializationError(f"recipe parameter {v!r} is not serializable")


def _matroid_payload(m: Matroid) -> dict:
    return _rep_payload(m.provenance, m.name)


def serialize(m: Matroid) -> str:
    doc = {"format": FORMAT_TAG, "version": FORMAT_VERSION}
    doc.update(_matroid_payload(m))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def dump(m: Matroid, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(m))


# ---------------------------------------------------------------------------
# parsing


def _need(obj: dict, key: str, types, loc: str):
    if key not in obj:
        raise FormatError(f"missing field {key!r}", location=loc)
    v = obj[key]
    if not isinstance(v, types) or types is int and isinstance(v, bool):
        raise FormatError(f"field {key!r} has wrong type", location=f"{loc}.{key}")
    return v


def _int_list(v, loc: str) -> list[int]:
    if not isinstance(v, list) or any(not isinstance(x, int) or
                                      isinstance(x, bool) for x in v):
        raise FormatError("expected a list of integers", location=loc)
    return v


def _edge_list(obj: dict, loc: str) -> list[tuple[int, int]]:
    raw = _need(obj, "edges", list, loc)
    check_size(len(raw))  # before any edge is parsed
    edges = []
    for i, pair in enumerate(raw):
        pair_loc = f"{loc}.edges[{i}]"
        got = _int_list(pair, pair_loc)
        if len(got) != 2:
            raise FormatError("edge must be a pair", location=pair_loc)
        edges.append((got[0], got[1]))
    return edges


def _build(obj, loc: str, depth: int = 0) -> Matroid:
    if depth > MAX_NESTING:
        raise FormatError(f"recipe nested deeper than {MAX_NESTING} levels",
                          location=loc)
    if not isinstance(obj, dict):
        raise FormatError("expected an object", location=loc)
    kind = _need(obj, "kind", str, loc)
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise FormatError("field 'name' has wrong type", location=f"{loc}.name")

    if kind == "linear":
        prime = _need(obj, "prime", int, loc)
        n_cols = _need(obj, "n_columns", int, loc)
        if n_cols < 0:
            raise FormatError("field 'n_columns' is negative",
                              location=f"{loc}.n_columns")
        check_size(n_cols)
        rows = _need(obj, "rows", list, loc)
        matrix = []
        for i, row in enumerate(rows):
            got = _int_list(row, f"{loc}.rows[{i}]")
            if len(got) != n_cols:
                raise FormatError(f"row has {len(got)} entries, expected {n_cols}",
                                  location=f"{loc}.rows[{i}]")
            matrix.append(got)
        cols = tuple(tuple(r[j] for r in matrix) for j in range(n_cols))
        rep = _construct(loc, LinearRep, prime, len(matrix), cols)
        return rep.matroid(name=name)

    if kind in ("graph", "even-cycle", "signed-graph"):
        nv = _need(obj, "n_vertices", int, loc)
        edges = _edge_list(obj, loc)
        if kind == "graph":
            rep = _construct(loc, GraphRep, nv, tuple(edges))
        else:
            odd = frozenset(_int_list(obj.get("odd", []), f"{loc}.odd"))
            cls = EvenCycleRep if kind == "even-cycle" else SignedGraphRep
            rep = _construct(loc, cls, nv, tuple(edges), odd)
        return rep.matroid(name=name)

    if kind == "recipe":
        op = _need(obj, "op", str, loc)
        args_raw = _need(obj, "args", list, loc) if "args" in obj else []
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise FormatError("field 'params' has wrong type",
                              location=f"{loc}.params")
        args = [_build(a, f"{loc}.args[{i}]", depth + 1)
                for i, a in enumerate(args_raw)]
        m = _apply_recipe(op, args, params, loc)
        m.name = name  # constructors attach default names; the document wins
        return m

    raise FormatError(f"unknown kind {kind!r}", location=f"{loc}.kind")


def _construct(loc: str, make, *args):
    """make(*args), with any error it raises reported as a FormatError at
    loc; a FormatError or ResourceLimitError passes unchanged."""
    try:
        return make(*args)
    except (FormatError, ResourceLimitError):
        raise
    except Exception as exc:
        raise FormatError(str(exc), location=loc) from exc


def _apply_recipe(op: str, args: list[Matroid], params: dict, loc: str) -> Matroid:
    def arity(k: int):
        if len(args) != k:
            raise FormatError(f"op {op!r} takes {k} nested matroid(s), "
                              f"got {len(args)}", location=f"{loc}.args")

    def param(key, types=int):
        if key not in params:
            raise FormatError(f"op {op!r} needs param {key!r}",
                              location=f"{loc}.params")
        v = params[key]
        if types is int and (not isinstance(v, int) or isinstance(v, bool)):
            raise FormatError(f"param {key!r} must be an integer",
                              location=f"{loc}.params.{key}")
        return v

    def make() -> Matroid:
        if op == "uniform":
            arity(0)
            return uniform(param("r"), param("n"))
        if op == "whirl":
            arity(0)
            return whirl(param("r"))
        if op == "truncation":
            arity(1)
            return truncation(args[0])
        if op == "free-extension":
            arity(1)
            return free_extension(args[0])
        if op == "principal-extension":
            arity(1)
            flat = _int_list(param("flat", list), f"{loc}.params.flat")
            return principal_extension(args[0], flat)
        if op == "dual":
            arity(1)
            return dual(args[0])
        if op == "direct-sum":
            arity(2)
            return direct_sum(args[0], args[1])
        if op == "minor":
            arity(1)
            contract = _int_list(param("contract", list), f"{loc}.params.contract")
            deleted = _int_list(param("delete", list), f"{loc}.params.delete")
            n, _ = minor_with_map(args[0], contract, deleted)
            return n
        raise FormatError(f"unknown recipe op {op!r}", location=f"{loc}.op")

    return _construct(loc, make)


def deserialize(text: str) -> Matroid:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc.msg}",
                          location=f"line {exc.lineno}") from exc
    except RecursionError as exc:
        raise FormatError("document nested too deeply to parse",
                          location="$") from exc
    if not isinstance(doc, dict):
        raise FormatError("document must be an object", location="$")
    if doc.get("format") != FORMAT_TAG:
        raise FormatError(f"format tag must be {FORMAT_TAG!r}", location="$.format")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version!r}",
                          location="$.version")
    body = {k: v for k, v in doc.items() if k not in ("format", "version")}
    return _build(body, "$")


def load(path) -> Matroid:
    with open(path) as fh:
        return deserialize(fh.read())
