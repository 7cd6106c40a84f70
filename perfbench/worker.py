"""One benchmark process: set up a workload, run it in a closed loop, check
every answer, and print a JSON summary as the last line of stdout.

Started by run.py in a fresh process with a pinned environment; run alone it
needs matroidkit's src directory on PYTHONPATH.
"""

from time import perf_counter

T_START = perf_counter()  # setup_s counts imports from here on

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule: a value that was observed."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Host speed. On a shared host the speed of a core changes by up to 1.8
# times within minutes, for all interpreted code at once. Between operations
# the worker times a fixed interpreter-bound task that does not use
# matroidkit, at most every REF_EVERY_S, and scales each latency to the speed
# at which that task takes REF_S (see scaled). REF_S is about the task's
# median on the 2-core host of the baseline; set-up is scaled by SETUP_REFS
# timings taken right after it.
REF_S = 0.020
REF_EVERY_S = 0.5
REF_NEAREST = 5
LONG_S = 5.0
SETUP_REFS = 5


def scaled(latencies, refs) -> list[list[float]]:
    """Each latency times REF_S / (median of the REF_NEAREST reference
    timings taken nearest to it), by slot. A latency over LONG_S stays as
    measured: it has few timings near it, all at its two ends, and the one
    operation that long (T_k of clique(7), numpy table builds) follows the
    reference so loosely that scaling it doubled its run-to-run spread.
    Without references nothing is scaled."""
    out = []
    for slot in latencies:
        out.append([])
        for mid, dt in slot:
            if dt > LONG_S or not refs:
                out[-1].append(dt)
                continue
            near = sorted(refs, key=lambda r: abs(r[0] - mid))[:REF_NEAREST]
            out[-1].append(dt * REF_S / statistics.median(r for _, r in near))
    return out


def reference_task() -> int:
    """Dict, bit and integer work of the kind a memoized rank sweep does."""
    memo = {0: 0}
    total = 0
    for mask in range(1, 1 << 16):
        low = mask & -mask
        value = memo[mask ^ low] + (low.bit_length() & 3)
        memo[mask] = value
        total += value
    return total


def time_reference() -> float:
    """One timing of reference_task, with the cyclic collector off so that
    the heap the workload left behind costs it nothing."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    reference_task()
    dt = perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def run_passes(variants, seconds: float, tracer=None) -> dict:
    """Repeat passes until the next one would overrun `seconds`. In untraced
    pass k, slot i runs op.repeat times when k is a multiple of op.every, so
    that slow slots do not crowd out the samples of fast ones; the n-th run
    of a slot takes its input from variant n % len(variants). With a tracer,
    every slot runs once in every pass, each untraced pass is followed by a
    traced pass on the same inputs, and no reference timings are taken.
    Only operation calls are timed; checks run between them."""
    slots = len(variants[0])
    latencies = [[] for _ in range(slots)]  # untraced (mid, time), by slot
    last = [0.0] * slots  # latest latency by slot, to plan the next pass
    runs = [0] * slots  # runs of each slot so far, to pick its next input
    untraced, traced, refs = [], [], []
    verdicts: dict[tuple, str] = {}
    attempted = failed = 0
    errors: list[str] = []

    def scheduled(k: int) -> list[tuple[int, int]]:
        """(slot, runs) of untraced pass k."""
        if tracer is not None:
            return [(i, 1) for i in range(slots)]
        return [(i, op.repeat) for i, op in enumerate(variants[0])
                if k % op.every == 0]

    start = t_ref = perf_counter()
    if tracer is None:
        refs.append((start, time_reference()))
    k = 0
    while True:
        plan = []
        for i, reps in scheduled(k):
            for _ in range(reps):
                plan.append((i, runs[i] % len(variants)))
                runs[i] += 1
        for traced_pass in (False, True) if tracer is not None else (False,):
            pass_s = 0.0
            for i, v in plan:
                op = variants[v][i]
                if tracer is None and perf_counter() - t_ref >= REF_EVERY_S:
                    t_ref = perf_counter()
                    refs.append((t_ref, time_reference()))
                if traced_pass:
                    tracer.active = True
                    tracer.begin(op.name)
                t0 = perf_counter()
                try:
                    out, exc = op.call(), None
                except Exception as e:  # a raising operation counts as failed
                    out, exc = None, e
                dt = perf_counter() - t0
                if traced_pass:
                    tracer.end()
                    tracer.active = False
                pass_s += dt
                if not traced_pass:
                    latencies[i].append((t0 + dt / 2, dt))
                    last[i] = dt
                attempted += 1
                if exc is not None:
                    ok, verdict = False, f"raised {type(exc).__name__}: {exc}"
                else:
                    try:
                        ok, verdict = op.check(out)
                    except Exception as e:
                        ok = False
                        verdict = f"check raised {type(e).__name__}: {e}"
                verdict = json.dumps(verdict, sort_keys=True, default=str)
                if verdicts.setdefault((v, i), verdict) != verdict:
                    ok = False  # traced and untraced passes must agree
                if not ok:
                    failed += 1
                    if len(errors) < 5:
                        errors.append(f"{op.name}: {verdict}")
            (traced if traced_pass else untraced).append(pass_s)
        k += 1
        planned = sum(last[i] * reps for i, reps in scheduled(k))
        if tracer is not None:
            planned *= 1 + traced[-1] / max(untraced[-1], 1e-9)
        if perf_counter() - start + planned > seconds:
            break
    return {"latencies": latencies, "untraced": untraced, "traced": traced,
            "refs": refs, "attempted": attempted, "failed": failed,
            "errors": errors}


def pass_times(names: list[str], by_slot: list[list[float]]) -> dict:
    """Each slot at the median latency of all runs of its operation (slots
    with the same name run the same operation on other inputs). A pass is
    their sum. The query quantiles are taken over these slot values, not
    over all samples: a quantile of all samples of a few slots of very
    different cost falls into a gap between slots and jumps with a single
    sample."""
    runs: dict[str, list[float]] = {}
    for name, slot in zip(names, by_slot):
        runs.setdefault(name, []).extend(slot)
    typical = [statistics.median(runs[name]) for name in names]
    return {"wall_s": sum(typical),
            "query_p50_ms": 1000.0 * statistics.median(typical),
            "query_p90_ms": 1000.0 * nearest_rank(typical, 0.9)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import gen
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    try:
        variants = workloads.build(
            args.workload, gen.specs(args.workload, args.seed), args.workdir)
        setup_s = perf_counter() - T_START
        # set-up is scaled by the host speed measured right after it
        setup_refs = [time_reference() for _ in range(SETUP_REFS)]
        setup_raw = setup_s
        setup_s *= REF_S / statistics.median(setup_refs)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw": setup_raw}))
            return 0
        tracer = None
        if args.trace:
            import tracer as tracer_module
            tracer = tracer_module.Tracer()
            tracer.install()
            missed = tracer.missed_bindings()
            if missed:
                print(f"tracer missed bindings: {missed}", file=sys.stderr)
                return 2
        res = run_passes(variants, args.seconds, tracer)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    by_slot = scaled(res["latencies"], res["refs"])
    unscaled = [[dt for _, dt in slot] for slot in res["latencies"]]
    ref_times = [r for _, r in res["refs"]]
    speed = REF_S / statistics.median(ref_times) if ref_times else 1.0
    lat = [x for slot in by_slot for x in slot]
    names = [op.name for op in variants[0]]
    times = pass_times(names, by_slot)
    raw_times = pass_times(names, unscaled)
    out = {"attempted": res["attempted"], "failed": res["failed"],
           "errors": res["errors"], "numpy": numpy.__version__,
           "passes": len(res["untraced"]), "ops_per_pass": len(by_slot),
           "samples": len(lat), "setup_s": setup_s, "setup_raw": setup_raw,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "speed": speed, "ref_samples": len(res["refs"]),
           "raw": raw_times, **times}
    if tracer is not None:
        overhead = statistics.median(
            t / u for t, u in zip(res["traced"], res["untraced"]))
        out["layers"] = {
            name: [value, tracer_module.LAYER_METRICS[name]] for name, value
            in tracer.metrics(len(res["traced"]), overhead).items()}
        out["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
