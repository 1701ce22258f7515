"""Byte-for-byte pins of the files the CLI writes.

``golden/cli/`` holds the outputs of one run of the CLI on the small
scenario of ``test_cli.py``: the ``simulate`` panel and true labels, the
``fit --posteriors`` file, the ``classify`` labels, the ``graph`` DOT for
the whole panel and for cluster 1, and the ``select --out`` and
``bench --out`` tables.  A change to how these files are read or written
that claims to leave them unchanged must reproduce every one exactly.

The files pin the results of the numpy and OpenBLAS builds they were
generated with (recorded in ``generated_with.json``): another BLAS kernel
may move the last bits of a fitted value without any fault in smcmix.
Regenerate them with ``python tests/test_cli_golden.py --write`` only for a
change meant to alter these outputs, or after a library upgrade, and say
so in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from smcmix import fixtures
from smcmix.cli import main
from smcmix.dataio import write_scenario
from smcmix.sim import Scenario

GOLDEN = Path(__file__).parent / "golden" / "cli"

OUTPUTS = (
    "panel.csv",
    "truth.csv",
    "posteriors.csv",
    "labels.csv",
    "graph.dot",
    "graph_cluster1.dot",
    "select.csv",
    "bench.csv",
)


def run_cli(workdir: Path) -> None:
    """Run every command once, writing ``OUTPUTS`` into ``workdir``."""
    scenario = Scenario(
        model=fixtures.well_separated_model(),
        n_subjects=40,
        n_replications=3,
        stop_rule=6,
        seed=314,
        replicate_count=2,
        name="small",
    )
    write_scenario(workdir / "scenario.json", scenario)
    w = {name: str(workdir / name) for name in ("scenario.json", "model.json", *OUTPUTS)}
    commands = (
        ["simulate", "--scenario", w["scenario.json"], "--out", w["panel.csv"],
         "--labels", w["truth.csv"]],
        ["fit", "--data", w["panel.csv"], "--components", "2", "--seed", "3",
         "--out", w["model.json"], "--posteriors", w["posteriors.csv"]],
        ["classify", "--data", w["panel.csv"], "--model", w["model.json"],
         "--out", w["labels.csv"]],
        ["graph", "--data", w["panel.csv"], "--out", w["graph.dot"]],
        ["graph", "--data", w["panel.csv"], "--labels", w["labels.csv"], "--cluster", "1",
         "--out", w["graph_cluster1.dot"]],
        ["select", "--data", w["panel.csv"], "--g-min", "1", "--g-max", "2", "--seed", "1",
         "--out", w["select.csv"]],
        ["bench", "--scenario", w["scenario.json"], "--replicates", "2",
         "--g-min", "1", "--g-max", "2", "--out", w["bench.csv"]],
    )
    for argv in commands:
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"smcmix {argv[0]} exited with {code}")


def _generated_with() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli_golden")
    run_cli(workdir)
    return workdir


@pytest.mark.parametrize("name", OUTPUTS)
def test_cli_output_matches_golden_bytes(cli_outputs, name):
    expected = (GOLDEN / name).read_bytes()
    actual = (cli_outputs / name).read_bytes()
    recorded = json.loads((GOLDEN / "generated_with.json").read_text(encoding="utf-8"))
    assert actual == expected, (
        f"{name} differs from the file generated with {recorded} "
        f"(running {_generated_with()})"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(Path(tmp))
        for name in OUTPUTS:
            (GOLDEN / name).write_bytes((Path(tmp) / name).read_bytes())
    (GOLDEN / "generated_with.json").write_text(
        json.dumps(_generated_with(), indent=1) + "\n", encoding="utf-8"
    )
