"""``read_panel`` against a reference copy of its row-by-row predecessor.

``_oracle_read_panel`` is the reader that walked a panel file one row at a
time, building a list of rows per (subject, replication) and then a merge
per sequence.  It is kept here, with its row reader and record-end sidecar
reader, as the oracle of the chunked column reader: on any file both must
return the same panel and report, or raise the same exception type with
the same message and line.  The copy carries three fixes: a record end is
compared with the onset of the sequence's last row, not of its last merged
state, so a repeat recorded after the end is an error; a file whose rows
all have one attribute, read without labels, raises a ``DataError`` naming
the file and the attribute instead of the state space's
``InvalidModelError``; and a file's leading byte-order mark is dropped, and
a column the reader uses that appears twice in the header, stripped of
spaces, raises ``MalformedRow`` on line 1 instead of the last copy being
read.

The generated files mix valid sequences with several defects each, so the
order in which errors are reported is tested too, and the chunk size is
patched down to a few rows, so chunk boundaries cut through sequences and
errors.  They also carry what tells numpy's tokeniser from ``csv.reader``:
quoted fields holding the delimiter, a quote or a newline, whitespace-only
lines, CRLF and lone-CR line endings, NUL, NBSP, tab and U+001C padding, and
numbers Python reads and numpy refuses.  A few begin with a byte-order mark
or repeat a column name in the header.  So the first chunk that leaves
numpy's tokeniser falls anywhere in a file.
"""

import csv
import io
import math
import tempfile
from pathlib import Path
from typing import Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smcmix import DataError, MalformedRow, NonMonotoneOnset, StateSpace, UnknownAttribute
from smcmix import dataio, fixtures
from smcmix.core import Panel
from smcmix.dataio import (
    DEFAULT_ABSORBING_LABEL, IngestReport, read_labels, read_panel, write_labels, write_panel,
)
from smcmix.sim import simulate_panel


def _oracle_rows(path, required, optional=(), delimiter=","):
    with open(path, newline="", encoding="utf-8-sig") as fh:  # the fix: a byte-order mark is dropped
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise MalformedRow(1, "empty file")
        position = {name.strip(): k for k, name in enumerate(header)}
        missing = [c for c in required if c not in position]
        if missing:
            raise MalformedRow(1, f"missing required columns: {', '.join(missing)}")
        for c in (*required, *optional):  # the fix: no silent pick among copies of a column
            if [name.strip() for name in header].count(c) > 1:
                raise MalformedRow(1, f"duplicate column: {c}")
        columns = [position.get(c) for c in (*required, *optional)]
        for row in reader:
            if row:
                n = len(row)
                yield reader.line_num, [None if k is None or k >= n else row[k] for k in columns]


def _finite(value, line, name):
    if not math.isfinite(value):
        raise MalformedRow(line, f"{name} must be finite")
    return value


def _oracle_end_sidecar(path):
    ends = {}
    lines = {}
    for line, (subject, replication, end) in _oracle_rows(path, ("subject", "replication", "end")):
        try:
            key = (subject.strip(), int(replication))
            value = float(end)
        except (TypeError, ValueError, AttributeError):
            raise MalformedRow(line, "bad row in record-end sidecar") from None
        if ends.setdefault(key, _finite(value, line, "end")) != value:
            raise MalformedRow(line, "conflicting record-end values in one sequence")
        lines.setdefault(key, line)
    return ends, lines


def _oracle_read_panel(
    path,
    labels: Optional[Sequence[str]] = None,
    absorbing_label: str = DEFAULT_ABSORBING_LABEL,
    delimiter: str = ",",
    ends_path=None,
):
    ends, end_lines = ({}, {}) if ends_path is None else _oracle_end_sidecar(ends_path)

    groups = {}
    group_end = {}
    reader = _oracle_rows(path, ("subject", "replication", "attribute", "onset"), ("end",), delimiter)
    for line, (subject, replication, attribute, onset, end) in reader:
        try:
            subject = subject.strip()
            replication = int(replication)
            attribute = attribute.strip()
            onset = float(onset)
        except (TypeError, ValueError, AttributeError):
            raise MalformedRow(line, "cannot parse subject/replication/attribute/onset") from None
        if not subject or not attribute:
            raise MalformedRow(line, "empty subject or attribute")
        if replication < 1:
            raise MalformedRow(line, "replication must be a positive integer")
        _finite(onset, line, "onset")
        key = (subject, replication)
        groups.setdefault(key, []).append((line, attribute, onset))
        if end not in (None, ""):
            try:
                end = float(end)
            except ValueError:
                raise MalformedRow(line, "cannot parse end") from None
            _finite(end, line, "end")
            if group_end.setdefault(key, end) != end:
                raise MalformedRow(line, "conflicting record-end values in one sequence")
    if not groups:
        raise MalformedRow(1, "no data rows")

    if labels is not None:
        label_list = [str(x) for x in labels]
    else:
        observed = sorted({attr for rows in groups.values() for _, attr, _ in rows})
        if len(observed) < 2:
            raise DataError(f"{path}: every row has the attribute {observed[0]!r}; "
                            "a state space needs at least two")
        if absorbing_label in observed:
            observed.remove(absorbing_label)
            observed.append(absorbing_label)
        label_list = observed
    absorbing = label_list.index(absorbing_label) if absorbing_label in label_list else None
    space = StateSpace(labels=tuple(label_list), absorbing=absorbing)
    index = {lab: k for k, lab in enumerate(label_list)}

    merge_count = 0
    dropped = []
    warnings = []
    flat_states = []
    flat_durations = []
    by_subject = {}
    for key, rows in groups.items():
        subject, replication = key
        reps = by_subject.setdefault(subject, {})
        onsets = [onset for _, _, onset in rows]
        if any(b <= a for a, b in zip(onsets, onsets[1:])):
            raise NonMonotoneOnset(subject, replication)
        states = []
        merged_onsets = []
        for line, attribute, onset in rows:
            if labels is not None and attribute not in index:
                raise UnknownAttribute(attribute, line)
            j = index[attribute]
            if states and states[-1] == j:
                merge_count += 1
                continue
            states.append(j)
            merged_onsets.append(onset)
        end = group_end.get(key, ends.get(key))
        if end is None:
            raise DataError(
                f"no record end for subject {subject!r} replication {replication} "
                "(add an 'end' column or a sidecar)"
            )
        if end <= onsets[-1]:  # the fix: the last row's onset, not the last merged one
            raise DataError(
                f"record end precedes the last onset for subject {subject!r} "
                f"replication {replication}"
            )
        if len(states) < 2:
            dropped.append(key)
            warnings.append(
                f"dropped subject {subject!r} replication {replication}: "
                "fewer than two states"
            )
            continue
        if absorbing is not None and absorbing in states[:-1]:
            raise DataError(
                f"subject {subject!r} replication {replication}: absorbing attribute "
                f"{absorbing_label!r} appears before the end of the sequence"
            )
        merged_onsets.append(end)
        reps[replication] = range(len(flat_states), len(flat_states) + len(states))
        flat_states += states
        flat_durations += [b - a for a, b in zip(merged_onsets, merged_onsets[1:])]

    for key, line in end_lines.items():
        if key not in groups:
            warnings.append(
                f"record-end sidecar line {line}: no sequence for subject {key[0]!r} "
                f"replication {key[1]}"
            )

    if not any(by_subject.values()):
        raise DataError("no usable sequences in the file")
    n_reps = max(len(reps) for reps in by_subject.values())
    sequences = []
    kept_ids = []
    dropped_subjects = []
    for subject, reps in by_subject.items():
        if len(reps) < n_reps:
            dropped_subjects.append(subject)
            warnings.append(
                f"dropped subject {subject!r}: {len(reps)} usable replications, "
                f"expected {n_reps}"
            )
            continue
        sequences.extend(reps[r] for r in sorted(reps))
        kept_ids.append(subject)

    order = np.array([k for seq in sequences for k in seq], dtype=np.int64)
    lengths = np.reshape([len(seq) for seq in sequences], (len(kept_ids), n_reps))
    states, durations = np.take(flat_states, order), np.take(flat_durations, order)
    panel = Panel.from_arrays(space, states, durations, lengths)
    report = IngestReport(
        subject_ids=tuple(kept_ids),
        merge_count=merge_count,
        dropped_sequences=tuple(dropped),
        dropped_subjects=tuple(dropped_subjects),
        warnings=tuple(warnings),
    )
    return panel, report


# ---------------------------------------------------------------------------
# Generated files

COLUMNS = ("subject", "replication", "attribute", "onset", "end")
# Values a defect writes into one field.  The last ones need quoting, or are
# numbers Python reads and numpy refuses (or, for "Ǿ", reads as an integer).
BAD_VALUES = (
    "", " ", "x", "nan", "inf", "-inf", "1e400", "0", "-1", "1.5", " 2 ", "02",
    "A,B", "A;B", 'A"B', "A\nB", "s1\n", "1_0", "0_5", "３", "٣", "１.５", "9999999999999999999999",
    "Ǿ",
)
# What a "pad" defect puts on both sides of a field.
PADDING = (" ", "\t", "\xa0", "\u3000", "\x00", "\x0b", "\x1c")
DEFECTS = ("field", "pad", "conflicting_end", "repeat_onset", "unknown", "absorbing", "no_end")
# Lines a file may carry between its rows.
FILLER_LINES = ("", " ", "\t", "\x00")
LINE_ENDINGS = ("\n", "\r\n", "\r")
LABEL_CHOICES = (
    None, ("A", "B", "C", "STOP"), ("C", "A", "B"), ("B", "A", "STOP"), ("A", "B", "C", "D", "STOP")
)


def _text(rows, delimiter=",", endings=None):
    """CSV text of ``rows``: a list is written by ``csv.writer``, quoting
    what needs it, and a string as it is.  ``endings`` gives each line's
    ending (all ``"\\n"`` by default)."""
    out = io.StringIO()
    for row, ending in zip(rows, endings or ["\n"] * len(rows)):
        if isinstance(row, str):
            out.write(row + ending)
        else:
            csv.writer(out, delimiter=delimiter, lineterminator=ending).writerow(row)
    return out.getvalue()


def _quoted(row, delimiter):
    """``row`` as one line with every field quoted."""
    return delimiter.join('"' + field.replace('"', '""') + '"' for field in row)


def _rarely(draw, n: int) -> bool:
    """True about once in ``n`` draws.  Hypothesis favours the ends of a
    range, so the middle value marks the rare case, and shrinking, which
    moves towards 0, removes it."""
    return draw(st.integers(0, n - 1)) == n // 2


@st.composite
def _sequences(draw):
    """Rows per (subject, replication), as lists of the five fields."""
    n_subjects = draw(st.integers(1, 3))
    n_reps = draw(st.integers(1, 3))
    groups = {}
    for s in range(1, n_subjects + 1):
        for r in range(1, n_reps + 1):
            if _rarely(draw, 10):
                continue  # a missing replication
            n = draw(st.integers(1, 4))
            attributes = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
            if n > 1 and _rarely(draw, 6):
                attributes[-1] = "STOP"
            t = draw(st.sampled_from([0.0, 0.25, 1.0]))
            onsets = []
            for _ in range(n):
                onsets.append(t)
                t += draw(st.sampled_from([0.5, 1.0, 2.25, 0.1]))
            end = onsets[-1] + draw(st.sampled_from([0.5, 1.0, 3.0]))
            if _rarely(draw, 20):  # an end at or before the last onset: an error
                end = onsets[-1] - draw(st.sampled_from([0.05, 0.0]))
                if n > 1 and draw(st.booleans()):
                    attributes[-1] = attributes[-2]  # a repeat recorded after the end
            where = "none" if _rarely(draw, 30) else draw(st.sampled_from(["all", "first", "last"]))
            rows = []
            for k, (a, onset) in enumerate(zip(attributes, onsets)):
                given = where == "all" or k == {"first": 0, "last": n - 1}.get(where)
                rows.append([f"s{s}", str(r), a, repr(onset), repr(end) if given else ""])
            groups[(f"s{s}", r)] = (rows, end)
    return groups


def _defect(draw, rows, k, end):
    """Break row ``k`` of one sequence's ``rows``, whose record end is ``end``."""
    row = rows[k]
    kind = draw(st.sampled_from(DEFECTS))
    if kind == "field":
        row[draw(st.integers(0, 4))] = draw(st.sampled_from(BAD_VALUES))
    elif kind == "pad":
        c = draw(st.integers(0, 4))
        pad = draw(st.sampled_from(PADDING))
        row[c] = f"{pad}{row[c]}{pad}"
    elif kind == "conflicting_end":
        row[4] = repr(end + 1.0)
    elif kind == "repeat_onset" and k > 0:
        row[3] = rows[k - 1][3]
    elif kind == "unknown":
        row[2] = "Z"
    elif kind == "absorbing":
        row[2] = "STOP"
    elif kind == "no_end":
        for other in rows:
            other[4] = ""


@st.composite
def _files(draw):
    """A panel file text, an optional sidecar text and the reader arguments."""
    groups = draw(_sequences())
    for rows, end in groups.values():
        for k in range(len(rows)):
            if _rarely(draw, 14):
                for _ in range(draw(st.integers(1, 2))):
                    _defect(draw, rows, k, end)

    # Interleave the sequences, keeping each one's row order, or not.
    queue = [list(rows) for rows, _ in groups.values()]
    data_rows = []
    interleave = draw(st.booleans())
    while queue:
        rows = queue[draw(st.integers(0, len(queue) - 1))] if interleave else queue[0]
        data_rows.append(rows.pop(0))
        if not rows:
            queue.remove(rows)

    # Header: the five columns in some order, an ignored one, padded names.
    order = draw(st.permutations(range(5)))
    if _rarely(draw, 20):
        order = order[:-1]  # a column missing from the header
    header = [COLUMNS[c] for c in order] + ["note"]
    if _rarely(draw, 20):
        header[-1] = draw(st.sampled_from(COLUMNS))  # a second copy of a column, or a missing one
    if draw(st.booleans()):
        header = [f" {name} " for name in header]
    delimiter = draw(st.sampled_from([",", ";"]))
    lines = [header]
    for row in data_rows:
        out = [row[c] for c in order] + ["n"]
        if _rarely(draw, 40):
            out = out[: draw(st.integers(1, len(out) - 1))]  # a short row
        lines.append(_quoted(out, delimiter) if _rarely(draw, 12) else out)
        if _rarely(draw, 8):
            lines.append(draw(st.sampled_from(FILLER_LINES)))  # a blank or whitespace-only line
    if draw(st.booleans()):
        endings = [draw(st.sampled_from(LINE_ENDINGS)) for _ in lines]
    else:
        endings = [draw(st.sampled_from(LINE_ENDINGS))] * len(lines)
    panel_text = _text(lines, delimiter, endings)
    if _rarely(draw, 20):
        panel_text = "\ufeff" + panel_text  # a byte-order mark

    sidecar_text = None
    if draw(st.booleans()):
        side = [["subject", "replication", "end"]]
        for (s, r), (_, end) in groups.items():
            if draw(st.booleans()):
                side.append([s, str(r), repr(end + draw(st.sampled_from([0.0, 0.0, 1.0])))])
        if draw(st.booleans()):
            side.append(["s9", "1", "4"])  # matches no sequence
        if _rarely(draw, 6):
            side.insert(draw(st.integers(1, len(side))), draw(st.sampled_from(
                [["s1", "x", "3"], ["s1", "1"], ["s1", "1", "nan"], ["s1", "1", "1e9"], ""]
            )))
        sidecar_text = _text(side)
        if _rarely(draw, 10):
            sidecar_text = "\ufeff" + sidecar_text
    labels = draw(st.sampled_from(LABEL_CHOICES))
    return panel_text, sidecar_text, labels, delimiter


def _outcome(reader, path, sidecar, labels, delimiter):
    try:
        panel, report = reader(path, labels=labels, delimiter=delimiter, ends_path=sidecar)
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc), getattr(exc, "line", None)
    return panel, report


# The reader converts an end string once per run of rows that repeat it:
# sequences spelling their end two ways ("-0" and "0" too), in one chunk and
# across two, and a bad end among repeats of a good one.
_TWO_SPELLINGS = ("subject,replication,attribute,onset,end\n"
                  "s1,1,A,0,5\ns1,1,B,1,5.0\ns1,1,C,2,5\ns2,1,A,0,5.0\ns2,1,B,1,5\n"
                  "s3,1,A,-2,-0\ns3,1,B,-1,0\n")
_BAD_AMONG_GOOD = ("subject,replication,attribute,onset,end\n"
                   "s1,1,A,0,9\ns1,1,B,1,9\ns1,1,C,2,x\ns1,1,A,3,9\ns2,1,A,0,9\n")


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_files(), st.integers(1, 5))
@example((_TWO_SPELLINGS, None, None, ","), 5)
@example((_TWO_SPELLINGS, None, None, ","), 2)
@example((_BAD_AMONG_GOOD, None, None, ","), 5)
def test_read_panel_agrees_with_the_row_by_row_oracle(case, chunk_rows):
    panel_text, sidecar_text, labels, delimiter = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_text(panel_text, encoding="utf-8")
        sidecar = None
        if sidecar_text is not None:
            sidecar = Path(tmp) / "ends.csv"
            sidecar.write_text(sidecar_text, encoding="utf-8")
        expected = _outcome(_oracle_read_panel, path, sidecar, labels, delimiter)
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            assert _outcome(read_panel, path, sidecar, labels, delimiter) == expected


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 8192])
def test_golden_files_agree_with_the_oracle(chunk_rows):
    golden = Path(__file__).parent / "golden" / "ingest_messy"
    for labels in (None, ["Sweet", "Bitter", "Sour", "Woody", "Cocoa", "STOP"]):
        expected = _oracle_read_panel(golden / "panel.csv", labels, ends_path=golden / "ends.csv")
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            assert read_panel(golden / "panel.csv", labels, ends_path=golden / "ends.csv") == expected


# One bad value per field, in the order a row that has several reports them.
ROW_DEFECTS = [
    ("replication", "x", "cannot parse subject/replication/attribute/onset"),
    ("onset", "x", "cannot parse subject/replication/attribute/onset"),
    ("subject", " ", "empty subject or attribute"),
    ("attribute", "", "empty subject or attribute"),
    ("replication", "0", "replication must be a positive integer"),
    ("onset", "nan", "onset must be finite"),
    ("end", "x", "cannot parse end"),
    ("end", " ", "cannot parse end"),  # only an empty field is a blank end
    ("end", "inf", "end must be finite"),
    ("end", "99", "conflicting record-end values in one sequence"),
]


def _row_cases():
    """Two bad values on one row, the one reported first listed first, and
    two on consecutive rows in either order."""
    for i, first in enumerate(ROW_DEFECTS):
        for j, second in enumerate(ROW_DEFECTS):
            if i < j and first[0] != second[0]:
                yield first, second, True
            yield first, second, False


@pytest.mark.parametrize("first, second, same_row", list(_row_cases()))
def test_the_first_failing_row_reports_its_first_failing_check(tmp_path, first, second, same_row):
    rows = [["s1", "1", "A", "0", "10"], ["s1", "1", "B", "3", "10"]]
    rows += [dict(zip(COLUMNS, ["s1", "1", "C", "5", "10"])), dict(zip(COLUMNS, ["s1", "1", "A", "6", "10"]))]
    rows[2][first[0]] = first[1]
    rows[2 if same_row else 3][second[0]] = second[1]
    path = tmp_path / "panel.csv"
    path.write_text(_text([COLUMNS, *rows[:2], *(list(row.values()) for row in rows[2:])]))
    expected = (MalformedRow, f"line 4: {first[2]}", 4)
    assert _outcome(read_panel, path, None, None, ",") == expected
    assert _outcome(_oracle_read_panel, path, None, None, ",") == expected


def test_clean_files_reach_csv_reader_only_for_their_header(tmp_path, monkeypatch):
    """numpy tokenises every data line of a file with no quote, blank line
    or other input only ``csv.reader`` reads right; a reader that always
    fell back would still pass the oracle tests, but not this one."""
    rows_read = []
    csv_reader = csv.reader

    class CountingReader:
        def __init__(self, *args, **kwargs):
            self._reader = csv_reader(*args, **kwargs)

        def __iter__(self):
            return self

        def __next__(self):
            rows_read.append(next(self._reader))
            return rows_read[-1]

        @property
        def line_num(self):
            return self._reader.line_num

    scenario = fixtures.benchmark_scenario("well_separated", n_subjects=12, seed=5)
    panel, labels = simulate_panel(scenario)
    path, sidecar, label_path = tmp_path / "panel.csv", tmp_path / "ends.csv", tmp_path / "labels.csv"
    write_panel(path, panel)
    ids = [str(i + 1) for i in range(panel.n_subjects)]
    write_labels(label_path, ids, labels)
    with open(path, newline="") as fh:
        ends = {(row["subject"], row["replication"]): row["end"] for row in csv.DictReader(fh)}
    sidecar.write_text(  # CRLF line endings
        "subject,replication,end\r\n" + "".join(f"{s},{r},{e}\r\n" for (s, r), e in ends.items())
    )

    expected = _oracle_read_panel(path, panel.space.labels, ends_path=sidecar)
    assert expected[0].lengths.shape == panel.lengths.shape

    monkeypatch.setattr(csv, "reader", CountingReader)
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", 7)
    assert read_panel(path, panel.space.labels, ends_path=sidecar) == expected
    assert read_labels(label_path) == dict(zip(ids, labels.tolist()))
    assert rows_read == [
        ["subject", "replication", "end"],
        ["subject", "replication", "attribute", "onset", "end"],
        ["subject", "component"],
    ]


@pytest.mark.parametrize("chunk_rows", [2, 8192])
@pytest.mark.parametrize("column", ["replication", "onset", "end"])
def test_numbers_numpy_and_python_read_apart_agree_with_the_oracle(tmp_path, column, chunk_rows):
    """Every ``BAD_VALUES`` entry and every ``PADDING`` around a good
    number, on the fourth of six rows: a value numpy reads and Python
    refuses must not slip through numpy's tokeniser."""
    rows = [["s1", "1", "A", "0", "9"], ["s1", "1", "B", "2", "9"], ["s1", "1", "C", "3.5", "9"],
            ["s1", "2", "A", "0", "9"], ["s1", "2", "B", "3", "9"], ["s1", "2", "C", "4", "9"]]
    k = COLUMNS.index(column)
    values = [*BAD_VALUES, *(f"{pad}{rows[3][k]}{pad}" for pad in PADDING)]
    path = tmp_path / "panel.csv"
    for value in values:
        changed = [list(row) for row in rows]
        changed[3][k] = value
        path.write_text(_text([COLUMNS, *changed]), encoding="utf-8")
        expected = _outcome(_oracle_read_panel, path, None, None, ",")
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            assert _outcome(read_panel, path, None, None, ",") == expected, value
