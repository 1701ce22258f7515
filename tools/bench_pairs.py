"""Compare the benchmark's end-to-end metrics of two checkouts in
alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload select_overfit \\
        --seed 1 --seconds 32 --pairs 10

Each pair runs ``perfbench/run.py`` untraced once in each checkout, the
parent first in even pairs and the change first in odd ones, and prints
both runs' end-to-end metrics and failed operations.  Then, per metric,
it prints each side's median and quartiles and how many pairs the change
wins (strictly better in the metric's direction, from this repository's
``BENCHMARK.json``), and whether the gain rule holds: the change wins at
least 9 of every 10 pairs, and its median is better than the parent's by
more than the parent's interquartile range.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from bench_record import ROOT, WORKLOADS, _run


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Each side's quartiles, the change's wins over its pairs, and
    whether the gain rule holds."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
    gain = wins >= math.ceil(0.9 * len(parent)) and sign * (pm - cm) > p3 - p1
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins, "gain": gain}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {side: {m["name"]: [] for m in end_to_end} for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, _ = _run(args.workload, args.seed, args.seconds, sides[side])
            for m in end_to_end:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"pair {i} {side:6s}: " + "  ".join(
                f"{name} {metric['value']:.6g}" for name, metric in result["metrics"].items()
            ) + f"  failed {result['failed']}/{result['attempted']}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s, {args.pairs} pairs:")
    for m in end_to_end:
        name = m["name"]
        cmp = compare(values["parent"][name], values["change"][name], m["better"] == "lower")
        quart = {side: "{1:.6g} ({0:.6g}-{2:.6g})".format(*cmp[side]) for side in sides}
        print(f"  {name}: parent {quart['parent']}  change {quart['change']}  "
              f"change wins {cmp['wins']}/{args.pairs}  gain rule {'holds' if cmp['gain'] else 'fails'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
