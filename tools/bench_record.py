"""Record the benchmark's end-to-end metrics and the tier-1 suite's outcome
for the checked-out tree.

    python3 tools/bench_record.py --seed 1 --seconds 32

Runs ``perfbench/run.py`` untraced on each of its three workloads, one
after the other, keeps each run's last output line (the JSON result) and
its ``env`` line, and writes ``BENCH_perf.json`` at the repository root:
the commit, whether the tree differed from it (``git status --porcelain``
printed anything before the runs), the seed and run length, the
environment, and each workload's result.

Then runs the tier-1 suite once with ``--durations=0`` and writes
``BENCH_suite.json`` beside it: the same commit and dirty flag, the
command, its wall time, pytest's outcome counts, whether the known red
test failed, any other failing test, and the 20 slowest test phases.
Committing both files after each change makes ``git log -p BENCH_*.json``
the benchmark's and the suite's trajectory.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest_classify", "select_overfit", "mc_recovery")
SUITE = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0")
# Fails on purpose: the pooling claim it checks is false for mixtures (README).
KNOWN_RED = "tests/test_acceptance.py::TestCriterion6Properties::test_c6_pooling_transitions_weight_averaged"
SLOWEST = 20


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def _run(workload: str, seed: int, seconds: float, root: Path = ROOT) -> tuple[dict, dict]:
    """The JSON result and the environment of one perfbench run in the
    checkout at ``root``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in out if line.startswith("env "))
    return json.loads(out[-1]), env


def _suite() -> dict:
    """One tier-1 run: outcome counts, failures and the slowest phases,
    read from pytest's terse report.  pytest exits 1 when a test fails,
    which the known red always does, so only its report is checked."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, *SUITE], cwd=ROOT, env=env, capture_output=True, text=True
    ).stdout.splitlines()
    wall = time.perf_counter() - start
    summary = next(line for line in reversed(out) if re.search(r" in [\d.]+s", line))
    counts = {name: int(n) for n, name in re.findall(r"(\d+) ([a-z]+)", summary.split(" in ")[0])}
    failures = [line.split()[1] for line in out if line.startswith(("FAILED ", "ERROR "))]
    phases = [
        {"test": m[3], "phase": m[2], "s": float(m[1])}
        for m in map(re.compile(r"^([\d.]+)s (setup|call|teardown) +(.+)$").match, out) if m
    ]
    return {
        "command": " ".join(["python", *SUITE]),
        "wall_s": round(wall, 2),
        "counts": counts,
        "known_red": {"test": KNOWN_RED, "failed": KNOWN_RED in failures},
        "other_failures": [f for f in failures if f != KNOWN_RED],
        "slowest": sorted(phases, key=lambda p: -p["s"])[:SLOWEST],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    args = p.parse_args(argv)

    head = {"commit": _git("rev-parse", "HEAD").strip(), "dirty": bool(_git("status", "--porcelain").strip())}
    record = {**head, "seed": args.seed, "seconds": args.seconds, "env": None, "workloads": {}}
    for workload in WORKLOADS:
        result, env = _run(workload, args.seed, args.seconds)
        record["env"] = env  # the same on every run
        record["workloads"][workload] = result
        print(f"{workload}: " + "  ".join(
            f"{name} {metric['value']:.6g} {metric['unit']}" for name, metric in result["metrics"].items()
        ))
    (ROOT / "BENCH_perf.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    suite = {**head, **_suite()}
    print(f"tier-1: {suite['counts']} in {suite['wall_s']} s; known red failed: {suite['known_red']['failed']}")
    (ROOT / "BENCH_suite.json").write_text(json.dumps(suite, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
