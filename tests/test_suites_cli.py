"""Verification suites (report plumbing) and the command-line workbench."""

import json
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matroidkit import (
    DomainError,
    ResourceLimitError,
    clique,
    direct_sum,
    dual,
    dump,
    fano,
    growth_table,
    minor_with_map,
    n_square_even_cycle_rep,
    n_triangle_signed_rep,
    run_suite,
    square_ext,
    suite_names,
    triangle_ext,
    uniform,
)
from matroidkit.cli import _build_parser, main
from matroidkit.exchange import deserialize, serialize

FROZEN_SUITES = Path(__file__).resolve().parent.parent / "perfbench" / "suites"


# ---------------------------------------------------------------------------
# suite reports


def test_suite_names_and_unknown_suite():
    names = suite_names()
    assert names == sorted(names)
    assert {"growth-rates", "kung", "tangles", "linking",
            "extension-reduction"} <= set(names)
    with pytest.raises(DomainError):
        run_suite("nope")


def test_growth_suite_passes_and_is_sorted():
    report = run_suite("growth-rates")
    assert report.status == "pass"
    claims = [rec.claim for rec in report.records]
    assert claims == sorted(claims)
    assert all(rec.status == "pass" for rec in report.records)
    assert set(report.fingerprint) == {"matroidkit", "numpy", "python"}


def test_report_json_is_worker_invariant():
    a = run_suite("isomorphisms", workers=1).to_json()
    b = run_suite("isomorphisms", workers=4).to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["suite"] == "isomorphisms"
    assert doc["status"] == "pass"
    assert all("runtime" not in chk for chk in doc["checks"])


def _without_fingerprint(text: str) -> str:
    doc = json.loads(text)
    del doc["fingerprint"]  # library and interpreter versions
    return json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("name", suite_names())
def test_suite_json_matches_frozen_copy(name):
    frozen = (FROZEN_SUITES / f"{name}.json").read_text()
    assert _without_fingerprint(run_suite(name).to_json()) == \
        _without_fingerprint(frozen)


def test_report_runtimes_flag_and_table():
    report = run_suite("growth-rates")
    doc = json.loads(report.to_json(runtimes=True))
    assert all(isinstance(chk["runtime"], float) for chk in doc["checks"])
    text = report.table()
    assert text.startswith("suite growth-rates: pass")
    assert len(text.splitlines()) == 1 + len(report.records)


def test_growth_table_function_guards():
    rows = growth_table("triangle", 2, 4)
    assert [r.n for r in rows] == [2, 3, 4]
    assert all(r.match for r in rows)
    with pytest.raises(DomainError):
        growth_table("pentagon")
    with pytest.raises(DomainError):
        growth_table("square", 5, 2)


# ---------------------------------------------------------------------------
# CLI: construction and queries


def test_cli_construct_square(tmp_path, capsys):
    out = tmp_path / "sq5.json"
    assert main(["construct", "--family", "square", "--n", "5",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "square_ext(5): rank 4, 11 elements" in text
    assert f"wrote {out}" in text
    assert out.exists()


def test_cli_construct_epsilon_lines(capsys):
    assert main(["construct", "--family", "n-square", "--n", "4"]) == 0
    assert "epsilon 12" in capsys.readouterr().out
    assert main(["construct", "--family", "spike", "--r", "3"]) == 0
    assert "epsilon 7" in capsys.readouterr().out


def test_cli_construct_usage_errors(capsys):
    assert main(["construct", "--family", "heptagon", "--n", "4"]) == 2
    assert main(["construct", "--family", "square"]) == 2  # missing --n
    err = capsys.readouterr().err
    assert "needs --n" in err


def test_cli_query_tangle_and_kappa(tmp_path, capsys):
    path = tmp_path / "k5.json"
    dump(clique(5), str(path))

    assert main(["query", "tangle", "--matroid", str(path),
                 "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "valid tangle" in out
    assert "'maximal-members': 10" in out

    assert main(["query", "kappa", "--matroid", str(path),
                 "--x", "0,1", "--y", "8,9", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 2
    assert set(doc["witness-side"]) >= {0, 1}


def test_cli_query_kappa_past_the_old_sweep_cap(tmp_path, capsys):
    # K_9 has 36 edges; between the triangles on vertices 0,1,2 and 3,4,5
    # 30 elements are free
    path = tmp_path / "k9.json"
    dump(clique(9), str(path))
    assert main(["query", "kappa", "--matroid", str(path),
                 "--x", "0,1,8", "--y", "21,22,26", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 2
    side = set(doc["witness-side"])
    assert side >= {0, 1, 8} and not side & {21, 22, 26}


def test_cli_query_missing_file(capsys):
    assert main(["query", "rank", "--matroid", "/nonexistent/m.json"]) == 2


def test_cli_query_negative_vertex_count(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "matroid-exchange", "version": 1,
                                "kind": "graph", "n_vertices": -1,
                                "edges": []}))
    assert main(["query", "rank", "--matroid", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_query_rank_ignores_untouched_vertices(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"format": "matroid-exchange", "version": 1,
                                "kind": "graph", "n_vertices": 10**9,
                                "edges": [[0, 1], [1, 2], [2, 0],
                                          [999999999, 0]]}))
    assert main(["query", "rank", "--matroid", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 3


def test_cli_query_blocking_pair_ignores_untouched_vertices(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"format": "matroid-exchange", "version": 1,
                                "kind": "even-cycle", "n_vertices": 10**6,
                                "edges": [[5, 7], [7, 999999], [5, 999999]],
                                "odd": [0, 1, 2]}))
    argv = ["query", "blocking-pair", "--matroid", str(path), "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["value"] == [5, 7]


def test_cli_query_deeply_nested_recipe(tmp_path, capsys):
    inner = '{"kind": "graph", "n_vertices": 2, "edges": [[0, 1]]}'
    head = '{"kind": "recipe", "op": "dual", "args": ['
    doc = head * 900 + inner + "]}" * 900
    path = tmp_path / "deep.json"
    path.write_text('{"format": "matroid-exchange", "version": 1, ' + doc[1:])
    assert main(["query", "rank", "--matroid", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("rows, where", [
    ([[1, 0], [0, 2]], "(at $)"),        # entry not reduced mod p
    ([[1, 0], [0, 1.0]], "(at $.rows[1])"),  # entry not an integer
])
def test_cli_query_bad_linear_entry(tmp_path, capsys, rows, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "matroid-exchange", "version": 1,
                                "kind": "linear", "prime": 2,
                                "n_columns": 2, "rows": rows}))
    assert main(["query", "rank", "--matroid", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(where + "\n")


def test_cli_query_bad_odd_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "matroid-exchange", "version": 1,
                                "kind": "even-cycle", "n_vertices": 2,
                                "edges": [[0, 1]], "odd": 3}))
    assert main(["query", "rank", "--matroid", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: expected a list of integers (at $.odd)\n"


def _document(tmp_path, body) -> str:
    """Path of an exchange document with the given body under its header."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format": "matroid-exchange", "version": 1,
                                **body}))
    return str(path)


_UNIFORM_100 = {"kind": "recipe", "op": "uniform",
                "params": {"r": 3, "n": 100}}
_WHIRL_1E9 = {"kind": "recipe", "op": "whirl", "params": {"r": 10 ** 9}}


@pytest.mark.parametrize("argv, code, message, doc", [
    (["query", "lambda", "--set", "-1"], 2, "elements [-1] not within 0..5",
     None),
    (["query", "rank", "--set", "99"], 2, "elements [99] not within 0..5",
     None),
    (["construct", "--family", "clique", "--n", "12"], 3,
     "ground set size 66 exceeds cap 64", None),
    (["construct", "--family", "clique", "--n", "1000"], 3,
     "ground set size 499500 exceeds cap 64", None),
    (["growth-table", "--family", "square", "--n-max", "10"], 3,
     "ground set size 67 exceeds cap 64", None),
    (["query", "rank"], 3,
     "resource limit: ground set size 100 exceeds cap 64", _UNIFORM_100),
    (["query", "rank"], 3,
     "resource limit: ground set size 2000000000 exceeds cap 64", _WHIRL_1E9),
], ids=["negative-id", "id-past-the-end", "clique-over-cap", "clique1000",
        "growth-over-cap", "recipe-over-cap", "recipe-whirl-1e9"])
def test_cli_element_ids_and_ground_set_cap(argv, code, message, doc,
                                            tmp_path, capsys):
    if argv[0] == "query":
        path = _document(tmp_path, doc) if doc else \
            _write(tmp_path, "k4.json", clique(4))
        argv = argv[:2] + ["--matroid", path] + argv[2:]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _refusal(argv, capsys) -> tuple[int, str, int]:
    """Exit code, stderr and tracemalloc peak of one CLI call."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().err, peak


_OVER_CAP_FAMILIES = [
    ("square", ["--n", "1000"], comb(1000, 2) + 1),
    ("triangle", ["--n", "1000"], comb(1000, 2) + 1),
    ("free", ["--n", "1000"], comb(1000, 2)),
    ("n-square", ["--n", "1000"], comb(1002, 2) + 1),
    ("n-triangle", ["--n", "1000"], comb(1002, 2) + 1),
    ("clique", ["--n", "1000"], comb(1000, 2)),
    ("truncated-clique", ["--n", "1000"], comb(1000, 2)),
    ("biclique", ["--m", "1000", "--n", "1000"], 10 ** 6),
    ("uniform", ["--rank", "2", "--n", "1000000"], 10 ** 6),
    ("whirl", ["--rank", "1000000"], 2 * 10 ** 6),
    ("spike", ["--r", "1000000"], 2 * 10 ** 6 + 1),
]


@pytest.mark.parametrize("family, options, size", _OVER_CAP_FAMILIES,
                         ids=[case[0] for case in _OVER_CAP_FAMILIES])
def test_cli_construct_over_the_cap_refuses_before_building(
        family, options, size, capsys):
    code, err, peak = _refusal(["construct", "--family", family] + options,
                               capsys)
    assert code == 3
    assert err == f"resource limit: ground set size {size} exceeds cap 64\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("doc, size", [
    ({"kind": "linear", "prime": 2, "n_columns": 10 ** 9, "rows": []},
     10 ** 9),
    ({"kind": "linear", "prime": 3, "n_columns": 10 ** 9, "rows": []},
     10 ** 9),
    (_WHIRL_1E9, 2 * 10 ** 9),
], ids=["linear-gf2", "linear-gf3", "recipe-whirl"])
def test_cli_document_over_the_cap_refuses_before_building(
        doc, size, tmp_path, capsys):
    code, err, peak = _refusal(
        ["query", "rank", "--matroid", _document(tmp_path, doc)], capsys)
    assert code == 3
    assert err == f"resource limit: ground set size {size} exceeds cap 64\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", ["graph", "even-cycle", "signed-graph"])
def test_an_oversized_edge_list_is_refused_before_its_edges_are_parsed(
        kind, tmp_path, capsys):
    path = _document(tmp_path, {"kind": kind, "n_vertices": 20001,
                                "edges": [[i, i + 1] for i in range(20000)]})
    text = Path(path).read_text()
    tracemalloc.start()
    try:
        json.loads(text)
        _, parse_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(ResourceLimitError):
            deserialize(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= parse_peak + (256 << 10)
    assert main(["query", "rank", "--matroid", path]) == 3
    assert capsys.readouterr().err == \
        "resource limit: ground set size 20000 exceeds cap 64\n"


def test_cli_graphic_test_over_the_table_cap_refuses_before_building(
        tmp_path, capsys):
    path = _document(tmp_path, {"kind": "graph", "n_vertices": 24,
                                "edges": [[i, i + 1] for i in range(23)]})
    code, err, peak = _refusal(["graphic-test", "--matroid", path], capsys)
    assert code == 3
    assert err == "resource limit: rank table needs |E| <= 22, got 23\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("query, options", [
    ("vertical", ["--k", "3"]),
    ("modular-flat", ["--set", "0,1,8"]),  # the triangle on vertices 0, 1, 2
])
def test_cli_flat_sweeps_over_the_table_cap_refuse_before_building(
        query, options, tmp_path, capsys):
    # clique(9) has 36 elements: every flat comes from its rank table
    path = _write(tmp_path, "k9.json", clique(9))
    start = time.perf_counter()
    code, err, peak = _refusal(["query", query, "--matroid", path] + options,
                               capsys)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err == "resource limit: rank table needs |E| <= 22, got 36\n"
    assert peak < 1 << 20


def test_cli_modular_flat_checks_the_flat_before_the_table_cap(
        tmp_path, capsys):
    path = _write(tmp_path, "k9.json", clique(9))
    assert main(["query", "modular-flat", "--matroid", path,
                 "--set", "0,1"]) == 2
    assert "is not a flat" in capsys.readouterr().err


def test_cli_vertical_refutation_prints_as_json(tmp_path, capsys):
    path = _write(tmp_path, "split.json", direct_sum(clique(3), clique(3)))
    assert main(["query", "vertical", "--matroid", path, "--k", "2",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["value"], doc["refuting-side"], doc["lambda"]) == \
        (False, [0, 1, 2], 0)


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    valid = ["query", "rank", "--set", "0,1",
             "--matroid", _write(tmp_path, "k4.json", clique(4))]
    assert main(valid) == 0
    alone = capsys.readouterr().out
    _build_parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(["query", "rank", "--set", "0,1"])  # no --matroid
    assert info.value.code == 2
    capsys.readouterr()
    assert main(valid) == 0
    assert capsys.readouterr().out == alone
    assert main(["construct", "--family", "fano"]) == 0
    assert _build_parser.cache_info().misses == 1


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code


_INTS = st.one_of(st.none(), st.integers(-3, 70))
_ELEMENT_LISTS = st.lists(st.integers(-3, 70), max_size=4).map(
    lambda xs: ",".join(map(str, xs)))


def _options(draw, spec):
    argv = []
    for flag, values in spec:
        value = draw(st.one_of(st.none(), values))
        if value is not None:
            argv.append(f"--{flag}={value}")
    return argv


@st.composite
def _cli_argvs(draw, paths):
    command = draw(st.sampled_from((
        "query", "construct", "growth-table", "minor-test", "graphic-test",
        "classify-extension", "reduce-extension", "membership-suite",
        "verify")))
    json_flag = draw(st.sampled_from(([], ["--json"])))
    if command in ("classify-extension", "reduce-extension"):
        options = [("element", _INTS)]
        if command == "reduce-extension":
            options.append(("m", _INTS))
        return [command, f"--matroid={draw(st.sampled_from(paths))}"] \
            + _options(draw, options) + json_flag
    if command == "membership-suite":
        return ["membership-suite", draw(st.sampled_from((
            "square", "triangle", "circle", "nope")))] + json_flag
    if command == "verify":
        return ["verify", draw(st.sampled_from(suite_names() + ["nope"]))] \
            + json_flag + draw(st.sampled_from(([], ["--runtimes"])))
    if command == "minor-test":
        return ["minor-test", f"--host={draw(st.sampled_from(paths))}",
                f"--target={draw(st.sampled_from(paths))}"] + json_flag
    if command == "graphic-test":
        return ["graphic-test",
                f"--matroid={draw(st.sampled_from(paths))}"] + json_flag
    if command == "query":
        query = draw(st.sampled_from((
            "rank", "epsilon", "lambda", "kappa", "local-conn", "vertical",
            "tangle", "modular-flat", "blocking-pair")))
        return ["query", query, f"--matroid={draw(st.sampled_from(paths))}"] \
            + _options(draw, [("set", _ELEMENT_LISTS), ("x", _ELEMENT_LISTS),
                              ("y", _ELEMENT_LISTS), ("k", _INTS),
                              ("order", _INTS)])
    if command == "construct":
        family = draw(st.sampled_from((
            "square", "triangle", "free", "n-square", "n-triangle", "clique",
            "truncated-clique", "biclique", "uniform", "whirl", "spike",
            "fano", "pg32", "heptagon")))
        return ["construct", f"--family={family}"] + _options(
            draw, [("n", _INTS), ("m", _INTS), ("rank", _INTS), ("r", _INTS)])
    family = draw(st.sampled_from(("square", "triangle", "circle", "graphic")))
    return ["growth-table", f"--family={family}"] + _options(
        draw, [("n-min", _INTS), ("n-max", _INTS)])


@pytest.fixture(scope="module")
def fuzz_matroid_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    return [_write(d, name, m) for name, m in (
        ("k4.json", clique(4)), ("fano.json", fano()),
        ("u24.json", uniform(2, 4)),
        ("ec.json", n_square_even_cycle_rep(3).matroid()),
        ("t4.json", triangle_ext(4)), ("s5.json", square_ext(5)))] \
        + [_document(d, _WHIRL_1E9)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_argv_fuzz_keeps_the_exit_code_contract(fuzz_matroid_paths, data,
                                                    capsys):
    argv = data.draw(_cli_argvs(fuzz_matroid_paths))
    # a search that answers "no", or a check that fails, exits 1
    codes = (0, 2, 3) if argv[0] in ("query", "construct", "growth-table") \
        else (0, 1, 2, 3)
    assert _exit_code(argv) in codes, argv
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("version", True), ("version", 1.0), ("n_vertices", True)])
def test_cli_query_malformed_integer_field(field, value, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "matroid-exchange", "version": 1,
                                "kind": "graph", "n_vertices": 2,
                                "edges": [[0, 1]], field: value}))
    assert main(["query", "rank", "--matroid", str(path)]) == 2
    assert capsys.readouterr().err.endswith(f"(at $.{field})\n")


_FUZZ_DOCUMENTS = [serialize(m) for m in (
    clique(4), fano(), n_square_even_cycle_rep(3).matroid("ec"),
    n_triangle_signed_rep(3).matroid("sg"), dual(uniform(2, 4)),
    minor_with_map(clique(4), [0], [5])[0])]
_FIELDS = ("format", "version", "kind", "name", "prime", "n_columns", "rows",
           "n_vertices", "edges", "odd", "op", "args", "params", "r", "n",
           "contract", "delete", "flat")
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 70),
    st.floats(-5, 70, allow_nan=False), st.text(max_size=4),
    st.sampled_from(("matroid-exchange", "linear", "graph", "even-cycle",
                     "signed-graph", "recipe", "dual", "minor", "uniform",
                     "whirl", "direct-sum", "truncation")))
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(_FIELDS), inner, max_size=3)),
    max_leaves=8)


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


@st.composite
def _mutated_documents(draw):
    """A valid exchange document with one to three values replaced, keys
    deleted or entries added anywhere in its tree, sometimes cut short."""
    doc = json.loads(draw(st.sampled_from(_FUZZ_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        action = draw(st.sampled_from(("replace", "delete", "add")))
        if action == "replace":
            parent[path[-1]] = draw(_JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_FIELDS))] = draw(_JSON_VALUES)
        elif isinstance(node, list):
            node.append(draw(_JSON_VALUES))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_mutated_documents())
def test_cli_exchange_fuzz_keeps_the_exit_code_contract(text, tmp_path,
                                                         capsys):
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    assert main(["query", "rank", "--matroid", str(path)]) in (0, 2, 3), text
    assert "Traceback" not in capsys.readouterr().err


def test_cli_query_resource_cap(tmp_path, capsys):
    path = tmp_path / "k8.json"
    dump(clique(8), str(path))
    assert main(["query", "tangle", "--matroid", str(path),
                 "--order", "4"]) == 3
    assert "resource limit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: verification commands


def test_cli_verify_json_out_matches_canonical_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "growth-rates", "--json", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    report = run_suite("growth-rates")
    assert printed == report.to_json() + "\n"
    assert out.read_text() == report.to_json() + "\n"


def test_cli_growth_table_reports_no_errors(capsys):
    assert main(["growth-table", "--family", "circle"]) == 0
    out = capsys.readouterr().out
    assert "errors: none" in out
    assert "MISMATCH" not in out


# ---------------------------------------------------------------------------
# CLI: searches


def test_cli_minor_test_writes_certificate(tmp_path, capsys):
    host = tmp_path / "host.json"
    target = tmp_path / "target.json"
    cert = tmp_path / "cert.json"
    dump(triangle_ext(4), str(host))
    dump(fano(), str(target))
    rc = main(["minor-test", "--host", str(host), "--target", str(target),
               "--out", str(cert)])
    assert rc == 1  # fano needs GF(2); the triangle family lives over GF(3)
    assert capsys.readouterr().out == "no minor\n"
    doc = json.loads(cert.read_text())
    assert doc["found"] is False and doc["certificate"] is None

    dump(clique(4), str(target))
    rc = main(["minor-test", "--host", str(host), "--target", str(target),
               "--out", str(cert)])
    assert rc == 0
    doc = json.loads(cert.read_text())
    assert doc["found"] is True
    assert set(doc["certificate"]) == {"contract", "delete", "mapping"}


def test_cli_graphic_test_exit_codes(tmp_path, capsys):
    path = tmp_path / "m.json"
    dump(fano(), str(path))
    assert main(["graphic-test", "--matroid", str(path)]) == 1
    assert capsys.readouterr().out == "nongraphic\n"
    dump(clique(4), str(path))
    assert main(["graphic-test", "--matroid", str(path)]) == 0
    assert "graphic: 4 vertices" in capsys.readouterr().out


def test_cli_reduce_extension_document(tmp_path, capsys):
    path = tmp_path / "te6.json"
    dump(triangle_ext(6), str(path))
    host_size = triangle_ext(6).size
    assert main(["reduce-extension", "--matroid", str(path),
                 "--element", str(host_size - 1), "--m", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closed"] is True
    assert doc["kind"] == "triangle"
    assert doc["target"] == "triangle_ext(4)"
    assert set(doc["certificate"]) == {"contract", "delete", "mapping"}
    assert doc["transcript"][-1]["event"] == "leaf"

    # under-scaled run: honest failure, transcript still in the document
    small = tmp_path / "te5.json"
    dump(triangle_ext(5), str(small))
    assert main(["reduce-extension", "--matroid", str(small),
                 "--element", str(triangle_ext(5).size - 1),
                 "--m", "6", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["closed"] is False
    assert doc["transcript"]


def _write(tmp_path, name, m):
    path = tmp_path / name
    dump(m, str(path))
    return str(path)


EMITTING_COMMANDS = {
    "minor-test": lambda d: [
        "minor-test", "--host", _write(d, "h.json", triangle_ext(4)),
        "--target", _write(d, "t.json", clique(4))],
    "graphic-test": lambda d: ["graphic-test", "--matroid",
                               _write(d, "m.json", clique(4))],
    "classify-extension": lambda d: [
        "classify-extension", "--matroid", _write(d, "m.json", triangle_ext(4)),
        "--element", str(triangle_ext(4).size - 1)],
    "reduce-extension-closed": lambda d: [
        "reduce-extension", "--matroid", _write(d, "m.json", triangle_ext(6)),
        "--element", str(triangle_ext(6).size - 1), "--m", "4"],
    "reduce-extension-open": lambda d: [
        "reduce-extension", "--matroid", _write(d, "m.json", triangle_ext(5)),
        "--element", str(triangle_ext(5).size - 1), "--m", "6"],
    "membership-suite": lambda d: ["membership-suite", "triangle"],
}


@pytest.mark.parametrize("command", sorted(EMITTING_COMMANDS))
def test_cli_out_file_equals_json_stdout(command, tmp_path, capsys):
    argv = EMITTING_COMMANDS[command](tmp_path)
    out = tmp_path / "out.json"
    rc_file = main(argv + ["--out", str(out)])
    capsys.readouterr()
    rc_json = main(argv + ["--json"])
    assert rc_file == rc_json
    assert out.read_text() == capsys.readouterr().out


def test_cli_membership_suite(capsys):
    assert main(["membership-suite", "triangle"]) == 0
    out = capsys.readouterr().out
    assert "[ok ]" in out and "FAIL" not in out


def test_cli_usage_exit_code_from_argparse():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
