import json

import numpy as np
import pytest

from matroidkit import (Matroid, clique, contract, delete, direct_sum, dual,
                        even_cycle, fano, from_graph, rank_table, uniform,
                        whirl)
from matroidkit.constructions import (
    free_ext_clique,
    n_square,
    n_square_even_cycle_rep,
    n_triangle_signed_rep,
    principal_extension,
    spike,
    truncation,
)
from matroidkit.core import same_rank_function
from matroidkit.errors import FormatError, SerializationError
from matroidkit.exchange import MAX_NESTING, deserialize, dump, load, serialize


ROUND_TRIP = [
    fano(),
    clique(5),
    n_square_even_cycle_rep(3).matroid("ec"),
    n_triangle_signed_rep(3).matroid("sg"),
    uniform(2, 4),
    whirl(3),
    spike(4),
    truncation(clique(5)),
    free_ext_clique(4),
    principal_extension(clique(4), [0, 5]),
    dual(fano()),
    dual(clique(4)),
    dual(n_square_even_cycle_rep(3).matroid("ec")),
    direct_sum(uniform(2, 3), clique(3)),
    n_square(3),
]


@pytest.mark.parametrize("m", ROUND_TRIP, ids=lambda m: m.name or "anon")
def test_round_trip_is_byte_exact(m):
    text = serialize(m)
    again = deserialize(text)
    assert serialize(again) == text
    assert same_rank_function(again, m)
    assert again.name == m.name


DUAL_DOCUMENTS = [
    (lambda: dual(from_graph(3, [(0, 1), (1, 2), (0, 2)], name="C3")),
     {"kind": "recipe", "op": "dual", "params": {}, "name": "C3*",
      "args": [{"kind": "graph", "n_vertices": 3, "name": "C3",
                "edges": [[0, 1], [1, 2], [0, 2]]}]}),
    (lambda: dual(even_cycle(2, [(0, 1), (1, 1)], [1])),
     {"kind": "recipe", "op": "dual", "params": {},
      "args": [{"kind": "even-cycle", "n_vertices": 2, "odd": [1],
                "edges": [[0, 1], [1, 1]]}]}),
]


@pytest.mark.parametrize("build,doc", DUAL_DOCUMENTS, ids=["graph", "even"])
def test_a_represented_dual_is_written_as_its_dual_recipe(build, doc,
                                                          tmp_path):
    # the dual's matrix serves its minors only; its document is unchanged
    path = tmp_path / "d.json"
    dump(build(), path)
    doc = {"format": "matroid-exchange", "version": 1, **doc}
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("m", [dual(clique(4)), dual(dual(fano())),
                               dual(n_triangle_signed_rep(3).matroid())],
                         ids=["graph", "linear", "signed"])
def test_a_minor_of_a_represented_dual_is_written_as_a_matrix(m):
    minor = contract(delete(m, [0]), [1])
    again = deserialize(serialize(minor))
    assert json.loads(serialize(minor))["kind"] == "linear"
    assert serialize(again) == serialize(minor)
    assert np.array_equal(rank_table(again), rank_table(minor))


def test_dump_load(tmp_path):
    path = tmp_path / "m.json"
    dump(whirl(3), path)
    m = load(path)
    assert m.name == "whirl(3)"
    assert m.full_rank() == 3


def test_document_name_wins_over_constructor_default():
    doc = json.loads(serialize(uniform(2, 4)))
    doc["name"] = "renamed"
    m = deserialize(json.dumps(doc))
    assert m.name == "renamed"


def _loc(text):
    with pytest.raises(FormatError) as err:
        deserialize(text)
    return err.value.location


def test_error_locations():
    good = json.loads(serialize(fano()))

    doc = dict(good, format="nope")
    assert _loc(json.dumps(doc)) == "$.format"

    doc = dict(good, version=99)
    assert _loc(json.dumps(doc)) == "$.version"

    doc = dict(good, kind="hologram")
    assert _loc(json.dumps(doc)) == "$.kind"

    doc = dict(good)
    doc["rows"] = [doc["rows"][0], [1, 2]]
    assert _loc(json.dumps(doc)) == "$.rows[1]"

    assert _loc("[1, 2]") == "$"
    assert _loc("{not json") .startswith("line ")


@pytest.mark.parametrize("kind", ["graph", "even-cycle", "signed-graph"])
def test_negative_vertex_count_is_a_format_error(kind):
    doc = {"format": "matroid-exchange", "version": 1, "kind": kind,
           "n_vertices": -1, "edges": []}
    assert _loc(json.dumps(doc)) == "$"


_GRAPH = {"format": "matroid-exchange", "version": 1, "kind": "graph",
          "n_vertices": 2, "edges": [[0, 1]]}
_LINEAR = {"format": "matroid-exchange", "version": 1, "kind": "linear",
           "prime": 2, "n_columns": 1, "rows": [[1]]}


@pytest.mark.parametrize("doc, where", [
    (dict(_GRAPH, version=True), "$.version"),
    (dict(_GRAPH, version=1.0), "$.version"),
    (dict(_GRAPH, n_vertices=True), "$.n_vertices"),
    (dict(_LINEAR, n_columns=True), "$.n_columns"),
    (dict(_LINEAR, n_columns=-3, rows=[]), "$.n_columns"),
    (dict(_LINEAR, prime=True), "$.prime"),
], ids=["version-true", "version-float", "n-vertices-true", "n-columns-true",
        "n-columns-negative", "prime-true"])
def test_malformed_integer_fields_are_format_errors(doc, where):
    assert _loc(json.dumps(doc)) == where


@pytest.mark.parametrize("kind", ["even-cycle", "signed-graph"])
def test_bad_odd_field_reports_its_location_once(kind):
    doc = {"format": "matroid-exchange", "version": 1, "kind": kind,
           "n_vertices": 2, "edges": [[0, 1]], "odd": 3}
    with pytest.raises(FormatError) as err:
        deserialize(json.dumps(doc))
    assert err.value.location == "$.odd"
    assert str(err.value) == "expected a list of integers (at $.odd)"


def _nested_duals(depth):
    """A recipe document with `depth` dual recipes around a one-edge graph,
    built as text: json.dumps itself recurses too deeply at large depths."""
    inner = '{"kind": "graph", "n_vertices": 2, "edges": [[0, 1]]}'
    head = '{"kind": "recipe", "op": "dual", "args": ['
    text = head * depth + inner + "]}" * depth
    return ('{"format": "matroid-exchange", "version": 1, '
            + text[1:])


def test_nesting_depth_is_bounded():
    rank = deserialize(_nested_duals(MAX_NESTING)).full_rank()
    assert rank == 1 - MAX_NESTING % 2  # an even number of duals
    with pytest.raises(FormatError) as err:
        deserialize(_nested_duals(MAX_NESTING + 1))
    assert err.value.location == "$" + ".args[0]" * (MAX_NESTING + 1)
    # deeper than the JSON parser can follow
    assert _loc(_nested_duals(900)) == "$"


def test_recipe_error_locations():
    base = json.loads(serialize(truncation(clique(4))))

    doc = json.loads(json.dumps(base))
    doc["op"] = "teleport"
    assert _loc(json.dumps(doc)) == "$.op"

    doc = json.loads(json.dumps(base))
    doc["args"][0]["kind"] = "hologram"
    assert _loc(json.dumps(doc)) == "$.args[0].kind"

    doc = json.loads(json.dumps(base))
    doc["args"] = []
    assert _loc(json.dumps(doc)) == "$.args"


def test_recipe_param_validation():
    doc = {"format": "matroid-exchange", "version": 1, "kind": "recipe",
           "op": "uniform", "args": [], "params": {"r": 2}}
    assert _loc(json.dumps(doc)) == "$.params"
    doc["params"] = {"r": 2, "n": "four"}
    assert _loc(json.dumps(doc)) == "$.params.n"


def test_minor_recipe_round_trip():
    doc = {"format": "matroid-exchange", "version": 1, "kind": "recipe",
           "op": "minor",
           "args": [json.loads(serialize(clique(4)))
                    | {"format": None, "version": None}],
           "params": {"contract": [0], "delete": [5]}}
    # nested args carry no header fields
    doc["args"][0].pop("format")
    doc["args"][0].pop("version")
    m = deserialize(json.dumps(doc))
    assert m.size == 4
    text = serialize(m)
    assert serialize(deserialize(text)) == text


def test_oracle_only_matroid_is_not_serializable():
    bare = Matroid(3, lambda mask: bin(mask).count("1"))
    with pytest.raises(SerializationError):
        serialize(bare)
