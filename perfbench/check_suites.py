"""Byte-identity check of the verification suites.

    python3 perfbench/check_suites.py [suite ...]

Runs each suite with workers=1 in a fresh process with the benchmark's
pinned environment, and compares run_suite(name, workers=1).to_json() with
the copy frozen in perfbench/suites/<name>.json. Prints a diff and exits 1
on any difference. Run from the repository root; takes about a minute on
two cores, mostly the tangles suite. Not part of the timed runs.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys

from run import HERE, pinned_env

FROZEN = os.path.join(HERE, "suites")
_PROGRAM = ("import sys; from matroidkit import run_suite; "
            "sys.stdout.write(run_suite(sys.argv[1], workers=1).to_json())")


def canonical(name: str, src: str) -> str:
    """The suite's canonical JSON, computed in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _PROGRAM, name],
                          env=pinned_env(src), capture_output=True,
                          text=True, timeout=600, check=True)
    return proc.stdout


def main(argv: list[str]) -> int:
    src = os.path.join(os.getcwd(), "src")
    names = argv or sorted(f[:-5] for f in os.listdir(FROZEN)
                           if f.endswith(".json"))
    bad = 0
    for name in names:
        with open(os.path.join(FROZEN, f"{name}.json")) as fh:
            frozen = fh.read()
        now = canonical(name, src)
        if now == frozen:
            print(f"{name}: identical")
            continue
        bad += 1
        print(f"{name}: DIFFERS")
        sys.stdout.writelines(difflib.unified_diff(
            frozen.splitlines(True), now.splitlines(True),
            f"frozen/{name}.json", f"now/{name}.json"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
