"""Record the benchmark's end-to-end metrics for the checked-out tree.

    python3 tools/bench_record.py --seed 1 --seconds 32

Runs ``perfbench/run.py`` untraced on each of its three workloads, one
after the other, keeps each run's last output line (the JSON result) and
its ``env`` line, and writes ``BENCH_perf.json`` at the repository root:
the commit, whether the tree differed from it (``git status --porcelain``
printed anything before the runs), the seed and run length, the
environment, and each workload's result.  Committing the file after each
change makes ``git log -p BENCH_perf.json`` the benchmark's trajectory.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest_classify", "select_overfit", "mc_recovery")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def _run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The JSON result and the environment of one perfbench run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in out if line.startswith("env "))
    return json.loads(out[-1]), env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_perf.json")
    args = p.parse_args(argv)

    record = {
        "commit": _git("rev-parse", "HEAD").strip(),
        "dirty": bool(_git("status", "--porcelain").strip()),
        "seed": args.seed,
        "seconds": args.seconds,
        "env": None,
        "workloads": {},
    }
    for workload in WORKLOADS:
        result, env = _run(workload, args.seed, args.seconds)
        record["env"] = env  # the same on every run
        record["workloads"][workload] = result
        print(f"{workload}: " + "  ".join(
            f"{name} {metric['value']:.6g} {metric['unit']}" for name, metric in result["metrics"].items()
        ))
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
