"""matroidkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Each run starts fresh worker processes with
MATROIDKIT_* cleared and numpy/BLAS thread pools pinned to 1: a few set-up
probes (import plus input generation, median reported as setup_s) and one
measured worker. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

from gen import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170
E2E_UNITS = {"wall_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


def pinned_env(src: str) -> dict:
    """The environment of every worker: no MATROIDKIT_* settings, one
    thread per numeric pool, fixed hashing, matroidkit from src."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MATROIDKIT_")}
    env.update(dict.fromkeys(_THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = src
    return env


def git_commit(root: str) -> str:
    """HEAD's commit id read from .git, or "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(args, env: dict, extra: list[str]) -> dict:
    """Run one worker to completion and parse its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "matroidkit", "__init__.py")):
        print(f"no matroidkit sources under {src}; run from the repository "
              "root", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    env = pinned_env(src)

    probes = [worker(args, env, ["--setup-only", "--workdir",
                                 os.path.join(out_dir, f"setup-{tag}-{i}")])
              for i in range(SETUP_PROBES)]
    extra = ["--workdir", os.path.join(out_dir, f"work-{tag}")]
    if args.trace:
        extra += ["--trace-out", os.path.join(out_dir, f"spans-{tag}.jsonl")]
    res = worker(args, env, extra)
    probes.append(res)
    setups = [p["setup_s"] for p in probes]
    res["setup_s"] = statistics.median(setups)
    res["raw"]["setup_s"] = statistics.median(p["setup_raw"] for p in probes)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": git_commit(root), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": res["numpy"],
            "passes": res["passes"], "ops_per_pass": res["ops_per_pass"],
            "latency_samples": res["samples"],
            "fail_ratio": res["failed"] / res["attempted"],
            "setup_samples": setups, "speed": res["speed"],
            "reference_samples": res["ref_samples"], "unscaled": res["raw"],
            "errors": res["errors"]}
    if args.trace:
        info["spans"] = res["spans"]
    print(json.dumps({"info": info}))
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
