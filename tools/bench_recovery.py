"""Record the Monte-Carlo recovery of every bundled simulation design.

    python3 tools/bench_recovery.py

Runs ``sim.run_benchmark`` with the default ``EmConfig`` on each design of
``fixtures.BUNDLED_SCENARIOS``, built by ``fixtures.benchmark_scenario``
at seed 2024 with 50 replicates: once at the design's own number of
components, and once sweeping G over 1..3.  Writes ``BENCH_recovery.json``
at the repository root.  Per design and mode it holds each metric's mean
and sd over the replicates where it is defined, the counts of replicates
where a fit aborted on a starved component or the replicate failed, and
of replicates whose fit at the design's G did not converge, and, for the
sweep, the BIC, AIC and AICc histograms of the chosen G.

The file holds no timing and no commit, so two trees that fit the same
bits write the same bytes, and a change that moves a fitted bit shows in
its diff.  The script calls only ``benchmark_scenario``,
``run_benchmark(scenario, EmConfig(), g_range=...)`` and the result's
``table()``, ``values``, ``histograms`` and ``warnings``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from smcmix import EmConfig, fixtures  # noqa: E402
from smcmix.sim import run_benchmark  # noqa: E402

SEED = 2024
REPLICATES = 50
SWEEP = range(1, 4)
# The end of the warning of a fit aborted on a starved component
# (EmptyComponent), and the start of that of a failed replicate.
ABORTED, FAILED = " lost all its subjects", "replicate failed: "


def _record(result) -> dict:
    troubled = {
        int(w.split(":")[0].removeprefix("replicate "))
        for w in result.warnings if w.endswith(ABORTED) or FAILED in w
    }
    converged = np.asarray(result.values.get("converged", []), dtype=np.float64)
    return {
        "aborted": len(troubled),
        "unconverged": int((converged == 0.0).sum()),
        "metrics": {name: {"mean": mean, "sd": sd} for name, (mean, sd) in result.table().items()},
        "histograms": {crit: {str(g): n for g, n in sorted(hist.items())}
                       for crit, hist in result.histograms.items()},
    }


def main() -> int:
    record = {"seed": SEED, "replicates": REPLICATES, "sweep": list(SWEEP), "designs": {}}
    for name in fixtures.BUNDLED_SCENARIOS:
        scenario = fixtures.benchmark_scenario(name, seed=SEED, replicate_count=REPLICATES)
        record["designs"][name] = {
            "fixed": _record(run_benchmark(scenario, EmConfig())),
            "sweep": _record(run_benchmark(scenario, EmConfig(), g_range=SWEEP)),
        }
        for mode, entry in record["designs"][name].items():
            print(f"{name} {mode}: aborted {entry['aborted']}, unconverged {entry['unconverged']}"
                  + "".join(f", {crit} {hist}" for crit, hist in entry["histograms"].items()),
                  flush=True)
    (ROOT / "BENCH_recovery.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
