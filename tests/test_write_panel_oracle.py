"""``write_panel`` against its row-by-row predecessor, byte for byte.

``reference_write_panel`` (``tests/oracles.py``) formats every row on its
own and writes it through ``csv.writer``.  The writer renders each id and
label once and each trajectory as one string; on any panel whose ids
:func:`read_panel` can give back, both files must be the same bytes, unless
an id holds a ``"\r"``.  The oracle leaves a lone ``"\r"`` unquoted, as
``csv.writer`` with ``"\n"`` line ends does, and such a file does not read
back; the writer quotes it, so those panels are checked by reading the ids
back instead.  The panels are ragged (trajectories of different lengths)
or rectangular, with or without an absorbing final state; the ids hold
csv's special characters and surrounding spaces or are ints, floats or
numpy strings; the labels hold commas and quotes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smcmix import StateSpace, fixtures
from smcmix.core import Panel
from smcmix.dataio import read_panel, write_panel
from smcmix.sim import simulate_panel

from oracles import reference_write_panel

LABELS = ["A", "B", "a,b", 'q"x', '"', ",", " sp ", "C"]
AFFIXES = ["", "", " ", ",", '"', "\r", "\n", "\r\n", 'x"y', "  "]
SOJOURNS = st.one_of(
    st.floats(min_value=0.0, max_value=1e12, exclude_min=True),
    st.sampled_from([0.1, 0.25, 1.0, 1 / 3, 2.5e-7, 5e-324]),
)


def _subject_id(draw, i: int):
    kind = draw(st.sampled_from(["str", "str", "text", "int", "float", "np.str_", "np.float64"]))
    if kind == "str":
        return draw(st.sampled_from(AFFIXES)) + f"s{i}" + draw(st.sampled_from(AFFIXES))
    if kind == "text":
        return draw(st.text(max_size=3)) + f"t{i}" + draw(st.text(max_size=3))
    if kind == "int":
        return 1000 + i
    if kind == "float":
        return i + 0.1
    if kind == "np.str_":
        return np.str_(f" n{i}")
    return np.float64(i) / 3


@st.composite
def _panels(draw):
    d = draw(st.integers(2, 4))
    labels = draw(st.permutations(LABELS))[:d]
    space = StateSpace(labels=tuple(labels), absorbing=draw(st.sampled_from([None, d - 1])))
    live = d - (space.absorbing is not None)
    n, b = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rectangular = draw(st.booleans())
    fixed = draw(st.integers(2, 5))
    states, sojourns, lengths = [], [], []
    for _ in range(n * b):
        length = fixed if rectangular else draw(st.integers(2, 5))
        path = [draw(st.integers(0, live - 1))]
        for k in range(1, length if live > 1 else 2):  # one live state can only be absorbed
            if live == 1 or (k == length - 1 and space.absorbing is not None and draw(st.booleans())):
                path.append(space.absorbing)
            else:  # any live state but the current one
                j = draw(st.integers(0, live - 2))
                path.append(j + (j >= path[-1]))
        states += path
        sojourns += [draw(SOJOURNS) for _ in path]
        lengths.append(len(path))
    panel = Panel.from_arrays(space, states, sojourns, np.reshape(lengths, (n, b)))
    ids = None if draw(st.booleans()) else [_subject_id(draw, i) for i in range(n)]
    return panel, ids


def _writes_the_same(tmp_path, panel, ids):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_panel(new, panel, ids)
    reference_write_panel(old, panel, ids)
    return new.read_bytes() == old.read_bytes()


def _texts(ids):
    """Each id's text as the writer writes it."""
    return [("" if x is None else format(x, ".17g") if isinstance(x, float) else str(x))
            for x in ids]


def _ids_read_back(tmp_path, panel, ids):
    write_panel(tmp_path / "new.csv", panel, ids)
    _, report = read_panel(tmp_path / "new.csv")
    return report.subject_ids == tuple(x.strip() for x in _texts(ids))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_panels())
def test_write_panel_matches_the_row_by_row_oracle(tmp_path, case):
    panel, ids = case
    if ids is not None:
        keys = [x.strip() for x in _texts(ids)]
        if not all(keys) or len(set(keys)) < len(keys):
            with pytest.raises(ValueError, match="once stripped"):
                write_panel(tmp_path / "new.csv", panel, ids)
            return
        if any("\r" in x for x in _texts(ids)):
            # Unit sojourns, so that every onset and end reads back exactly.
            unit = Panel.from_arrays(panel.space, panel.states, np.ones(panel.sojourns.size),
                                     panel.lengths)
            assert _ids_read_back(tmp_path, unit, ids)
            return
    assert _writes_the_same(tmp_path, panel, ids)


@pytest.mark.parametrize("ids", [
    ["a,b", 'q"x', "n\nl", " sp"],
    [1, 2.5, np.float64(1) / 3, np.str_("x")],
    ['c\r"r', "crlf\r\n", '"', ","],
])
def test_ids_csv_must_quote_read_back(tmp_path, ids):
    scenario = fixtures.benchmark_scenario("well_separated", n_subjects=4, seed=3)
    panel = simulate_panel(scenario)[0]
    assert _writes_the_same(tmp_path, panel, ids)
    assert _ids_read_back(tmp_path, panel, ids)


def test_simulated_panel(tmp_path):
    scenario = fixtures.benchmark_scenario("well_separated", n_subjects=60, seed=1)
    assert _writes_the_same(tmp_path, simulate_panel(scenario)[0], None)
