"""Bit-for-bit fingerprint of the EM's results.

``golden/em_fingerprint.json`` holds the ``float.hex`` of the objective
traces and ``SweepRow.loglik`` values of two chocolate70 and one
well_separated G = 1..3 sweep, and of every value of a 4-replicate
``run_benchmark``.  A refactor of the EM that claims to leave every fitted
value unchanged must reproduce the file exactly.  The sweeps run on panels
drawn one trajectory at a time (:func:`oracles.reference_panel`), so a
change of the panel sampler leaves them alone; the ``run_benchmark``
entry draws its panels with :func:`smcmix.sim.simulate_panel`.

The file pins the results of the numpy and OpenBLAS builds it was
generated with (recorded under ``"generated_with"``): another BLAS kernel
may move the last bits of a matrix product without any fault in smcmix.
Regenerate it with ``python tests/test_em_fingerprint.py --write`` only
for a change meant to alter fitted values, or after a library upgrade,
and say so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np

from smcmix import EmConfig, fixtures, select_g
from smcmix.sim import run_benchmark

from oracles import reference_panel

GOLDEN = Path(__file__).parent / "golden" / "em_fingerprint.json"

SWEEPS = (("chocolate70", 101), ("chocolate70", 102), ("well_separated", 103))


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def fingerprint() -> dict:
    out = {}
    for name, seed in SWEEPS:
        panel, _ = reference_panel(fixtures.benchmark_scenario(name, n_subjects=100, seed=seed))
        sweep = select_g(panel, range(1, 4), EmConfig(seed=seed))
        out[f"{name}/{seed}"] = {
            "traces": {str(g): _hex(r.objective_trace) for g, r in sweep.reports.items()},
            "loglik": _hex(row.loglik for row in sweep.rows),
        }
    scenario = fixtures.benchmark_scenario(
        "well_separated", n_subjects=100, seed=104, replicate_count=4
    )
    result = run_benchmark(scenario, EmConfig())
    out["run_benchmark"] = {name: _hex(v) for name, v in result.values.items()}
    return out


def _generated_with() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def test_em_results_match_the_golden_fingerprint():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = golden["values"]
    actual = fingerprint()
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], (
            f"{key} differs from the fingerprint generated with "
            f"{golden['generated_with']} (running {_generated_with()})"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_em_fingerprint.py --write")
    payload = {"generated_with": _generated_with(), "values": fingerprint()}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
