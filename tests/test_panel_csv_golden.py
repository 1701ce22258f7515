"""Byte-for-byte pin of the panel CSV writer on a ragged absorbing panel.

The CLI goldens hold only fixed-length trajectories without an absorbing
state.  ``golden/panel_ragged_absorbing.csv`` is what :func:`write_panel`
writes for a panel simulated one trajectory at a time
(:func:`oracles.reference_panel`) whose trajectories have different lengths,
most ending in the absorbing state (whose sojourn is a placeholder) and
some not, with explicit subject ids.  Any change to the writer or to how
a panel stores its trajectories must reproduce it exactly.  Regenerate it
with ``python tests/test_panel_csv_golden.py --write`` only for a change
meant to alter the file format, and say so in CHANGES.md.
"""

import sys
from pathlib import Path

import numpy as np

from smcmix.dataio import read_panel, write_panel
from smcmix.sim import Scenario

from oracles import reference_panel
from test_sim import absorbing_model

GOLDEN = Path(__file__).parent / "golden" / "panel_ragged_absorbing.csv"
SUBJECT_IDS = [f"s{i}" for i in range(1, 9)]


def _panel():
    scenario = Scenario(model=absorbing_model(), n_subjects=8, n_replications=2,
                        stop_rule=5, seed=32, replicate_count=1)
    return reference_panel(scenario)[0]


def test_panel_is_ragged_and_absorbing():
    panel = _panel()
    lengths = [len(t) for t in panel.trajectories()]
    finals = [int(t.states[-1]) for t in panel.trajectories()]
    assert len(set(lengths)) > 1
    assert 2 in finals and set(finals) != {2}


def test_write_panel_matches_the_golden_file(tmp_path):
    out = tmp_path / "panel.csv"
    write_panel(out, _panel(), SUBJECT_IDS)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_file_reads_back():
    panel = _panel()
    back, report = read_panel(GOLDEN)
    assert report.subject_ids == tuple(SUBJECT_IDS)
    assert back.space == panel.space
    for a, b in zip(back.trajectories(), panel.trajectories(), strict=True):
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_allclose(a.sojourns, b.sojourns, rtol=1e-12)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_panel_csv_golden.py --write")
    write_panel(GOLDEN, _panel(), SUBJECT_IDS)
