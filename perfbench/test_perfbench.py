"""Self-tests of the benchmark: known-answer generators, tracer coverage,
and the contract between the code and BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench

These are not part of the repository's tier-1 tests; they take about a
minute on two cores.
"""

import collections
import json
import os
import subprocess
import sys

import pytest

import gen
import run
import tracer as tracing
import workloads
from matroidkit import clique, tangles

ROOT = os.path.dirname(run.HERE)


def _documents(workload, seed, workdir):
    """The input documents a workload's setup writes."""
    workdir.mkdir()
    workloads.build(workload, gen.specs(workload, seed), str(workdir))
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs_and_answers(workload, tmp_path):
    a = json.dumps(gen.specs(workload, 7), sort_keys=True)
    b = json.dumps(gen.specs(workload, 7), sort_keys=True)
    assert a == b
    assert _documents(workload, 7, tmp_path / "a") == \
        _documents(workload, 7, tmp_path / "b")


def _answer_class(op):
    """An operation's kind and expected answer, ignoring witness sets."""
    expect = op["expect"]
    if isinstance(expect, dict):
        expect = {k: v for k, v in expect.items() if k != "side"}
    return f"{op['kind']}:{expect!r}"


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_other_inputs_same_answer_classes(workload):
    a, b = gen.specs(workload, 1), gen.specs(workload, 2)
    assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)
    for va, vb in zip(a, b):
        assert [op["kind"] for op in va] == [op["kind"] for op in vb]
        classes_a = collections.Counter(_answer_class(op) for op in va)
        classes_b = collections.Counter(_answer_class(op) for op in vb)
        assert classes_a == classes_b


def test_answers_do_not_come_from_the_code_under_test():
    """gen builds every input and answer with matroidkit unimportable."""
    program = ("import sys; sys.modules['matroidkit'] = None; import gen; "
               "[gen.specs(w, 3) for w in gen.WORKLOADS]; "
               "print(sorted(m for m in sys.modules if 'matroidkit' in m))")
    proc = subprocess.run([sys.executable, "-c", program], cwd=run.HERE,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "['matroidkit']"


def test_tracer_rebinds_every_name_and_restores_them():
    from matroidkit import core, isomorphism
    original = core.rank_table
    t = tracing.Tracer()
    t.install()
    try:
        assert t.missed_bindings() == []
        assert tangles.rank_table is not original
        assert tangles.rank_table is core.rank_table
        assert isomorphism.rank_table is core.rank_table
    finally:
        t.uninstall()
    assert core.rank_table is original and tangles.rank_table is original


def test_clique7_builds_the_same_table_four_times():
    t = tracing.Tracer()
    t.install()
    try:
        t.active = True
        t.begin("tk.clique7")
        m = clique(7)
        tk = tangles.tangle_tk(m, 4)
        assert tangles.is_tangle(m, tk, 4).ok
        t.end()
        t.active = False
        layers = t.metrics(1, 1.0)
    finally:
        t.uninstall()
    assert layers["core.rank_table.builds_per_matroid"] == 4
    assert layers["core.rank_table.calls"] == 4
    assert layers["core.rank_table.fast_ratio"] == 1.0


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_and_untraced_verdicts_agree(workload, tmp_path):
    ops = workloads.build(workload, gen.specs(workload, 5), str(tmp_path))[0]
    ops = [op for op in ops if op.name != "tk.clique7"]  # covered above
    untraced = [op.check(op.call()) for op in ops]
    t = tracing.Tracer()
    t.install()
    try:
        t.active = True
        traced = []
        for op in ops:
            t.begin(op.name)
            out = op.call()
            t.end()
            traced.append(op.check(out))
    finally:
        t.active = False
        t.uninstall()
    assert all(ok for ok, _ in untraced)
    assert traced == untraced
    assert t.spans


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.LAYER_METRICS


def test_passes_follow_every_and_repeat():
    """A slot with every=2 runs in even passes only; a slot with repeat=3
    runs three times per pass, each time on the next input variant."""
    import worker

    seen = []

    def op(name, v, every=1, repeat=1):
        def call():
            seen.append((name, v))
            return v
        return workloads.Op(name, call, lambda out: (True, out), every,
                            repeat)

    variants = [[op("slow", v, every=2), op("fast", v, repeat=3)]
                for v in range(4)]
    res = worker.run_passes(variants, 0.0)  # one pass, then stop
    assert seen == [("slow", 0), ("fast", 0), ("fast", 1), ("fast", 2)]
    assert [len(slot) for slot in res["latencies"]] == [1, 3]
    assert res["failed"] == 0 and res["attempted"] == 4
    assert res["refs"]  # reference timings are taken on untraced runs
