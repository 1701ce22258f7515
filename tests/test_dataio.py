import csv
import json
import re
import tracemalloc

import numpy as np
import pytest

from smcmix import (
    DataError,
    InvalidModelError,
    MalformedRow,
    MixtureModel,
    NonMonotoneOnset,
    Panel,
    StateSpace,
    UnknownAttribute,
    fixtures,
)
from smcmix import dataio
from smcmix.dataio import (
    export_tds_graph,
    model_from_dict,
    model_to_dict,
    read_labels,
    read_model,
    read_panel,
    read_scenario,
    write_labels,
    write_model,
    write_panel,
    write_scenario,
)
from smcmix.sim import Scenario, simulate_panel

from conftest import traj


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestReadPanel:
    def test_duration_differencing(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,10\n"
            "s1,1,B,3,10\n",
        )
        panel, report = read_panel(f)
        t = panel.subjects[0][0]
        np.testing.assert_array_equal(t.sojourns, [3.0, 7.0])
        assert report.subject_ids == ("s1",)
        assert report.merge_count == 0

    def test_merges_repeated_attribute(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,10\n"
            "s1,1,A,2,10\n"
            "s1,1,B,5,10\n",
        )
        panel, report = read_panel(f)
        t = panel.subjects[0][0]
        np.testing.assert_array_equal(t.states, [0, 1])
        np.testing.assert_array_equal(t.sojourns, [5.0, 5.0])
        assert report.merge_count == 1

    def test_non_monotone_onset(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,3,10\n"
            "s1,1,B,1,10\n",
        )
        with pytest.raises(NonMonotoneOnset):
            read_panel(f)

    def test_single_attribute_is_a_data_error(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,10\n"
            "s2,1, A,3,10\n",
        )
        with pytest.raises(DataError) as err:
            read_panel(f)
        assert type(err.value) is DataError
        assert str(err.value) == (
            f"{f}: every row has the attribute 'A'; a state space needs at least two"
        )

    def test_unknown_attribute_with_fixed_labels(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,10\n"
            "s1,1,Z,3,10\n",
        )
        with pytest.raises(UnknownAttribute):
            read_panel(f, labels=["A", "B"])

    def test_malformed_rows(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,one,A,0,10\n",
        )
        with pytest.raises(MalformedRow):
            read_panel(f)
        f2 = write_csv(tmp_path / "q.csv", "subject,attribute\n" "s1,A\n")
        with pytest.raises(MalformedRow):
            read_panel(f2)

    def test_too_short_dropped_with_warning(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,10\n"
            "s1,1,B,4,10\n"
            "s2,1,A,0,10\n",
        )
        panel, report = read_panel(f)
        assert panel.n_subjects == 1
        assert ("s2", 1) in report.dropped_sequences
        assert any("fewer than two states" in w for w in report.warnings)

    def test_subject_with_missing_replication_dropped(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,10\n"
            "s1,1,B,4,10\n"
            "s1,2,B,0,10\n"
            "s1,2,A,4,10\n"
            "s2,1,A,0,10\n"
            "s2,1,B,4,10\n",
        )
        panel, report = read_panel(f)
        assert report.subject_ids == ("s1",)
        assert "s2" in report.dropped_subjects

    def test_missing_end(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset\n"
            "s1,1,A,0\n"
            "s1,1,B,4\n",
        )
        with pytest.raises(DataError, match="record end"):
            read_panel(f)

    def test_end_sidecar(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset\n"
            "s1,1,A,0\n"
            "s1,1,B,4\n",
        )
        sidecar = write_csv(
            tmp_path / "ends.csv", "subject,replication,end\ns1,1,9\n"
        )
        panel, _ = read_panel(f, ends_path=sidecar)
        np.testing.assert_array_equal(panel.subjects[0][0].sojourns, [4.0, 5.0])

    def test_end_before_last_onset(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,3\n"
            "s1,1,B,4,3\n",
        )
        with pytest.raises(DataError):
            read_panel(f)

    def test_repeat_after_record_end_rejected(self, tmp_path):
        # B is merged into one sojourn, but its second row lies past the end.
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,5\n"
            "s1,1,B,3,5\n"
            "s1,1,B,8,5\n",
        )
        with pytest.raises(
            DataError, match="^record end precedes the last onset for subject 's1' replication 1$"
        ):
            read_panel(f)

    def test_absorbing_label_sorted_last(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,Zesty,0,10\n"
            "s1,1,Acid,3,10\n"
            "s1,1,STOP,6,10\n",
        )
        panel, _ = read_panel(f)
        assert panel.space.labels == ("Acid", "Zesty", "STOP")
        assert panel.space.absorbing == 2

    def test_custom_delimiter(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject;replication;attribute;onset;end\n"
            "s1;1;A;0;10\n"
            "s1;1;B;3;10\n",
        )
        panel, _ = read_panel(f, delimiter=";")
        np.testing.assert_array_equal(panel.subjects[0][0].sojourns, [3.0, 7.0])

    def test_absorbing_mid_sequence_rejected(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,10\n"
            "s1,1,STOP,3,10\n"
            "s1,1,B,6,10\n",
        )
        with pytest.raises(DataError, match="absorbing"):
            read_panel(f)


class TestNonFiniteValues:
    @pytest.mark.parametrize(
        "rows, line, column",
        [
            ("s1,1,A,0,10\ns1,1,B,3,inf\n", 3, "end"),
            ("s1,1,A,-inf,10\ns1,1,B,3,10\n", 2, "onset"),
            ("s1,1,A,0,10\ns1,1,B,nan,10\n", 3, "onset"),
        ],
    )
    def test_rejected_with_their_line(self, tmp_path, rows, line, column):
        f = write_csv(tmp_path / "p.csv", "subject,replication,attribute,onset,end\n" + rows)
        with pytest.raises(MalformedRow, match=f"line {line}: {column} must be finite") as err:
            read_panel(f)
        assert err.value.line == line

    def test_sidecar_end_rejected(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "subject,replication,attribute,onset\ns1,1,A,0\ns1,1,B,4\n")
        sidecar = write_csv(tmp_path / "ends.csv", "subject,replication,end\ns1,1,Infinity\n")
        with pytest.raises(MalformedRow, match="line 2: end must be finite"):
            read_panel(f, ends_path=sidecar)


class TestRowReader:
    """The panel, the record-end sidecar and the labels file share one
    reader: header names are stripped, blank lines skipped, and an error
    names the physical line of its row."""

    def test_header_names_with_spaces(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject, replication , attribute,onset ,end\n"
            "s1,1,A,0,10\n"
            "s1,1,B,3,10\n",
        )
        panel, report = read_panel(f)
        np.testing.assert_array_equal(panel.subjects[0][0].sojourns, [3.0, 7.0])
        assert report.subject_ids == ("s1",)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "\n"
            "s1,1,A,0,10\n"
            "\n"
            "s1,1,B,3,10\n"
            "s1,1,C,x,10\n",
        )
        with pytest.raises(MalformedRow) as err:
            read_panel(f)
        assert err.value.line == 6
        write_csv(f, f.read_text().replace("s1,1,C,x,10\n", ""))
        panel, _ = read_panel(f)
        np.testing.assert_array_equal(panel.subjects[0][0].sojourns, [3.0, 7.0])

    def test_short_row_reports_its_line(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,10\n"
            "s1,1,B\n"
            "s1,1,C,5,10\n",
        )
        with pytest.raises(MalformedRow, match="line 3: cannot parse") as err:
            read_panel(f)
        assert err.value.line == 3

    def test_end_column_beats_sidecar(self, tmp_path):
        f = write_csv(
            tmp_path / "p.csv",
            "subject,replication,attribute,onset,end\n"
            "s1,1,A,0,10\n"
            "s1,1,B,4,10\n"
            "s1,2,A,0,\n"
            "s1,2,B,2,\n",
        )
        sidecar = write_csv(tmp_path / "ends.csv", "subject,replication,end\ns1,1,9\ns1,2,8\n")
        panel, _ = read_panel(f, ends_path=sidecar)
        np.testing.assert_array_equal(panel.subjects[0][0].sojourns, [4.0, 6.0])
        np.testing.assert_array_equal(panel.subjects[0][1].sojourns, [2.0, 6.0])

    @pytest.mark.parametrize(
        "text, line",
        [
            ("subject,replication,end\ns1,1,9\ns1,one,9\n", 3),
            ("subject,replication,end\ns1,1\n", 2),
            ("subject,end\ns1,9\n", 1),
        ],
    )
    def test_malformed_sidecar(self, tmp_path, text, line):
        f = write_csv(tmp_path / "p.csv", "subject,replication,attribute,onset\ns1,1,A,0\ns1,1,B,4\n")
        sidecar = write_csv(tmp_path / "ends.csv", text)
        with pytest.raises(MalformedRow) as err:
            read_panel(f, ends_path=sidecar)
        assert err.value.line == line

    def test_conflicting_sidecar_ends(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "subject,replication,attribute,onset\ns1,1,A,0\ns1,1,B,2\n")
        sidecar = write_csv(tmp_path / "ends.csv", "subject,replication,end\ns1,1,3\n\ns1,1,5\n")
        with pytest.raises(
            MalformedRow, match="^line 4: conflicting record-end values in one sequence$"
        ) as err:
            read_panel(f, ends_path=sidecar)
        assert err.value.line == 4
        # A repeated row with the same end is not a conflict.
        write_csv(sidecar, "subject,replication,end\ns1,1,3\ns1, 1,3.0\n")
        panel, report = read_panel(f, ends_path=sidecar)
        np.testing.assert_array_equal(panel.subjects[0][0].sojourns, [2.0, 1.0])
        assert report.warnings == ()

    def test_unmatched_sidecar_rows_warn(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "subject,replication,attribute,onset\ns1,1,A,0\ns1,1,B,4\n")
        sidecar = write_csv(
            tmp_path / "ends.csv", "subject,replication,end\ns9,1,12\ns1,1,9\ns1,0,3\n"
        )
        panel, report = read_panel(f, ends_path=sidecar)
        np.testing.assert_array_equal(panel.subjects[0][0].sojourns, [4.0, 5.0])
        assert report.warnings == (
            "record-end sidecar line 2: no sequence for subject 's9' replication 1",
            "record-end sidecar line 4: no sequence for subject 's1' replication 0",
        )

    @pytest.mark.parametrize("chunk_rows", [2, 8192])
    def test_overlong_field_reports_its_line(self, tmp_path, monkeypatch, chunk_rows):
        # As many characters per numpy block as records per csv chunk: 2
        # cuts every line, 8192 cuts the over-long line.
        monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", chunk_rows)
        big = "C" * (csv.field_size_limit() + 1)
        message = r"field larger than field limit \(131072\)$"
        head = "subject,replication,attribute,onset,end\ns1,1,A,0,10\n"
        f = write_csv(tmp_path / "p.csv", head + f"s1,1,B,3,10\ns1,1,{big},5,10\n")
        with pytest.raises(MalformedRow, match="^line 4: " + message) as err:
            read_panel(f)
        assert err.value.line == 4
        # rows before it fail first, in file order
        for row, error in [("s1,1,B,x,10", "cannot parse"), ("s1,1,B,3,11", "conflicting record-end")]:
            write_csv(f, head + f"{row}\ns1,1,{big},5,10\n")
            with pytest.raises(MalformedRow, match=f"^line 3: {error}"):
                read_panel(f)
        write_csv(f, f"subject,replication,attribute,onset,{big}\ns1,1,A,0,10\n")
        with pytest.raises(MalformedRow, match="^line 1: " + message):
            read_panel(f)
        sidecar = write_csv(tmp_path / "ends.csv", f"subject,replication,end\ns1,1,10\ns1,2,{big}\n")
        with pytest.raises(MalformedRow, match="^line 3: " + message):
            read_panel(write_csv(f, head), ends_path=sidecar)
        labels = write_csv(tmp_path / "labels.csv", f"subject,component\n{big},1\n")
        with pytest.raises(MalformedRow, match="^line 2: " + message):
            read_labels(labels)

    @pytest.mark.parametrize("delimiter", ["", ";;", '"', "\r", "\n", None])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        f = write_csv(tmp_path / "p.csv", "subject,replication,attribute,onset,end\ns1,1,A,0,10\n")
        message = "^delimiter must be one character other than"
        with pytest.raises(ValueError, match=message) as err:
            read_panel(f, delimiter=delimiter)
        assert not isinstance(err.value, DataError)
        # checked before the file is opened
        with pytest.raises(ValueError, match=message):
            read_panel(tmp_path / "missing.csv", delimiter=delimiter)

    @pytest.mark.parametrize("which", ["panel", "sidecar", "labels", "model", "scenario"])
    def test_non_utf8_file_is_a_data_error(self, tmp_path, which):
        text = {
            "panel": "subject,replication,attribute,onset,end\ns1,1,Salé,0,10\ns1,1,Sucré,3,10\n",
            "sidecar": "subject,replication,end\nSalé,1,10\n",
            "labels": "subject,component\nSalé,1\n",
            "model": '{"labels": ["Salé", "Sucré"]}',
            "scenario": '{"n_subjects": 5, "model": {"labels": ["Salé"]}}',
        }[which]
        bad = tmp_path / f"{which}.csv"
        bad.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: not UTF-8 text"):
            if which == "model":
                read_model(bad)
            elif which == "scenario":
                read_scenario(bad)
            elif which == "labels":
                read_labels(bad)
            elif which == "sidecar":
                panel = write_csv(tmp_path / "p.csv", "subject,replication,attribute,onset\ns1,1,A,0\n")
                read_panel(panel, ends_path=bad)
            else:
                read_panel(bad)

    @pytest.mark.parametrize("which", ["panel", "sidecar", "labels", "model"])
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, which):
        """Spreadsheet "CSV UTF-8" exports begin with U+FEFF.  Each reader
        reads such a file as it reads the same file without the mark."""
        panel = write_csv(tmp_path / "p.csv", "subject,replication,attribute,onset\ns1,1,A,0\ns1,1,B,3\n")
        path = tmp_path / "file"
        if which == "model":
            write_model(path, fixtures.well_separated_model())
            text, read = path.read_text(encoding="utf-8"), read_model
        else:
            text, read = {
                "panel": ("subject,replication,attribute,onset,end\ns1,1,A,0,10\ns1,1,B,3,10\n", read_panel),
                "sidecar": ("subject,replication,end\ns1,1,10\n",
                            lambda ends: read_panel(panel, ends_path=ends)),
                "labels": ("subject,component\na,1\nb,2\n", read_labels),
            }[which]
        write_csv(path, text)
        expected = read(path)
        write_csv(path, "\ufeff" + text)
        assert read(path) == expected

    @pytest.mark.parametrize("which", ["panel", "panel end", "sidecar", "labels"])
    def test_a_column_read_twice_is_an_error(self, tmp_path, which):
        """A column the reader uses must appear once in the header, stripped
        of spaces; an unused column may repeat."""
        panel = write_csv(tmp_path / "p.csv", "subject,replication,attribute,onset\ns1,1,A,0\ns1,1,B,3\n")
        header, rows, column, read = {
            "panel": ("subject,replication,attribute,onset, onset,end,x,x",
                      "s1,1,A,0,1,10,0,0\ns1,1,B,3,1,10,0,0", "onset", read_panel),
            "panel end": ("subject,replication,attribute,onset,end,x,end ,x",
                          "s1,1,A,0,10,0,11,0\ns1,1,B,3,10,0,11,0", "end", read_panel),
            "sidecar": ("subject,replication,end,x,x,end", "s1,1,10,0,0,11", "end",
                        lambda ends: read_panel(panel, ends_path=ends)),
            "labels": ("subject,component,x,subject,x", "a,1,0,b,0", "subject", read_labels),
        }[which]
        path = write_csv(tmp_path / "file.csv", f"{header}\n{rows}\n")
        with pytest.raises(MalformedRow, match=f"^line 1: duplicate column: {column}$") as err:
            read(path)
        assert err.value.line == 1
        # Renaming the second copy leaves the repeated unused column "x".
        at = header.rindex(column)
        write_csv(path, f"{header[:at]}y{header[at + len(column):]}\n{rows}\n")
        read(path)

    @pytest.mark.parametrize("read", [read_panel, read_labels])
    def test_empty_file(self, tmp_path, read):
        path = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(MalformedRow, match="^line 1: empty file$"):
            read(path)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, ["a", "b", "c"], np.array([1, 0, 1]))
        assert path.read_text() == "subject,component\na,2\nb,1\nc,2\n"
        assert read_labels(path) == {"a": 1, "b": 0, "c": 1}

    def test_labels_round_trip_ids_holding_a_carriage_return(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, ["c\rr", "b", "d", "e"], [0, 1, 0, 1])
        assert path.read_bytes() == b'subject,component\n"c\rr",1\nb,2\nd,1\ne,2\n'
        assert read_labels(path) == {"c\rr": 0, "b": 1, "d": 0, "e": 1}

    def test_labels_need_one_label_per_subject(self, tmp_path):
        path = tmp_path / "labels.csv"
        with pytest.raises(ValueError, match="^one label per subject id required$"):
            write_labels(path, ["a", "b", "c"], [0])
        assert not path.exists()

    @pytest.mark.parametrize("component", ["two", "", "1.5"])
    def test_labels_bad_component(self, tmp_path, component):
        path = write_csv(tmp_path / "labels.csv", f"subject,component\na,1\n\nb,{component}\n")
        with pytest.raises(MalformedRow) as err:
            read_labels(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("component", ["0", "-3"])
    def test_labels_component_below_one(self, tmp_path, component):
        path = write_csv(tmp_path / "labels.csv", f"subject,component\na,1\nb,{component}\n")
        with pytest.raises(MalformedRow, match="^line 3: component must be at least 1$"):
            read_labels(path)

    def test_labels_conflicting_components(self, tmp_path):
        path = write_csv(tmp_path / "labels.csv", "subject,component\na,1\nb,2\n a ,1\na,2\n")
        with pytest.raises(
            MalformedRow, match="^line 5: conflicting components for one subject$"
        ):
            read_labels(path)


class TestPanelRoundTrip:
    def test_identity_on_dyadic_fixture(self, tiny_panel, tmp_path):
        path = tmp_path / "panel.csv"
        write_panel(path, tiny_panel, subject_ids=["a", "b", "c"])
        back, report = read_panel(path)
        assert back == tiny_panel
        assert report.subject_ids == ("a", "b", "c")

    def test_absorbing_round_trip(self, absorbing_space, tmp_path):
        panel = Panel(
            space=absorbing_space,
            subjects=((traj([0, 1, 2], [1.5, 2.5, 1.0]),),),
        )
        path = tmp_path / "panel.csv"
        write_panel(path, panel)
        back, _ = read_panel(path)
        assert back == panel

    def test_ids_and_labels_holding_a_carriage_return(self, tiny_panel, tmp_path):
        space = StateSpace(labels=("a\rb", "B"))
        panel = Panel.from_arrays(space, tiny_panel.states, tiny_panel.sojourns, tiny_panel.lengths)
        path = tmp_path / "panel.csv"
        write_panel(path, panel, subject_ids=["c\rr", "d", "\re"])
        assert path.read_bytes().split(b"\n")[1] == b'"c\rr",1,"a\rb",0,3.5'
        back, report = read_panel(path, labels=list(space.labels))
        assert back == panel
        assert report.subject_ids == ("c\rr", "d", "e")

    def test_writer_deterministic(self, tiny_panel, tmp_path):
        write_panel(tmp_path / "a.csv", tiny_panel)
        write_panel(tmp_path / "b.csv", tiny_panel)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_subject_id_count_must_match(self, tiny_panel, tmp_path):
        with pytest.raises(ValueError):
            write_panel(tmp_path / "a.csv", tiny_panel, subject_ids=["only-one"])

    @pytest.mark.parametrize("ids, message", [
        (["a", "a", "b"], "subject ids 'a' and 'a' are equal once stripped"),
        (["a", " a", "b"], "subject ids 'a' and ' a' are equal once stripped"),
        (["b", "1", 1], "subject ids '1' and '1' are equal once stripped"),
        (["", "x", "y"], "subject id '' is empty once stripped"),
        (["x", " \t", "y"], "subject id ' \\t' is empty once stripped"),
    ])
    def test_subject_ids_must_read_back(self, tiny_panel, tmp_path, ids, message):
        """An empty id or two ids equal once stripped would make a file
        read_panel rejects or reads as fewer subjects; none is written."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_panel(tmp_path / "a.csv", tiny_panel, subject_ids=ids)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sojourns", [[2.0**30, 1e-7, 1.0], [1.0, 5e-324]])
    def test_a_sojourn_lost_in_the_onsets_is_refused(self, two_state_space, tmp_path, sojourns):
        """A sojourn below the running sum's resolution leaves two equal
        onsets (or an end equal to the last onset), which read_panel
        rejects; the writer refuses the panel and leaves the file as it was."""
        lost = traj([0, 1, 0][: len(sojourns)], sojourns)
        panel = Panel(space=two_state_space, subjects=((traj([0, 1], [1.0, 2.0]), lost),))
        path = tmp_path / "panel.csv"
        path.write_bytes(b"kept")
        message = ("onsets not strictly increasing for subject 'x' replication 2: "
                   "a sojourn is lost below the running sum's resolution")
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_panel(path, panel, subject_ids=["x"])
        assert path.read_bytes() == b"kept"
        assert list(tmp_path.iterdir()) == [path]
        path.unlink()
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_panel(path, panel, subject_ids=["x"])
        assert list(tmp_path.iterdir()) == []


def reference_model_to_dict(model):
    """The component-by-component walk that wrote model documents, kept as
    an oracle for the array version."""
    return {
        "space": {
            "labels": list(model.space.labels),
            "absorbing": model.space.absorbing,
        },
        "weights": [float(w) for w in model.weights],
        "components": [
            {
                "alpha": [float(a) for a in comp.alpha],
                "trans": [[float(p) for p in row] for row in comp.trans],
                "sojourn": [
                    None if p is None else {"shape": float(p.shape), "rate": float(p.rate)}
                    for p in comp.sojourn
                ],
            }
            for comp in model.components
        ],
        "meta": {"format_version": dataio.MODEL_FORMAT_VERSION},
    }


def assert_model_bytes_match_the_walk(model):
    got = dataio._dump_json(model_to_dict(model))
    assert got == dataio._dump_json(reference_model_to_dict(model))
    assert model_from_dict(json.loads(got)) == model


class TestModelJson:
    def test_array_writer_matches_the_component_walk(self):
        from test_core import _fixture_models

        for model in _fixture_models():
            assert_model_bytes_match_the_walk(model)

    def test_array_writer_matches_the_component_walk_on_fits(self, benchmark_fits):
        for _, model in benchmark_fits:
            assert_model_bytes_match_the_walk(model)

    def test_round_trip_reference_model(self, tmp_path):
        model = fixtures.well_separated_model()
        path = tmp_path / "model.json"
        write_model(path, model)
        back = read_model(path)
        assert back == model
        # canonical bytes: rewriting the parsed model reproduces the file
        write_model(tmp_path / "again.json", back)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_rejects_bad_row_sum(self, tmp_path):
        doc = model_to_dict(fixtures.one_component_model())
        doc["components"][0]["trans"][0] = [0.0, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]
        with pytest.raises(InvalidModelError):
            model_from_dict(doc)

    def test_rejects_negative_shape(self):
        doc = model_to_dict(fixtures.one_component_model())
        doc["components"][0]["sojourn"][0]["shape"] = -1.0
        with pytest.raises(InvalidModelError):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(weights=[0.5, "half"]), "could not convert string to float"),
            (lambda d: d.update(weights=[0.5, [0.5]]), "setting an array element with a sequence"),
            (lambda d: d["components"][0].update(alpha=["x"] * 10), "could not convert"),
            (lambda d: d["components"][1]["alpha"].pop(), "setting an array element"),
            (lambda d: d["components"][0]["trans"][3].__setitem__(2, "none"), "could not convert"),
            (lambda d: d["components"][0]["trans"][3].pop(), "setting an array element"),
            (lambda d: d["components"][0]["sojourn"][2].update(shape="two"), "could not convert"),
            (lambda d: d["components"][1]["sojourn"][4].update(rate=[1.0, 2.0]),
             "setting an array element"),
            (lambda d: d["space"].update(labels="ABCDEFGHIJ"), "space.labels must be a list"),
            (lambda d: d["space"].update(absorbing=True),
             "space.absorbing must be a state index or null"),
            (lambda d: d.update(weights=[0.5, "0.5"]), 'weights holds "0.5", not a number'),
            (lambda d: d.update(weights=[True, 0.5]), "weights holds true, not a number"),
            (lambda d: d.update(weights=[0.5, None]), "weights holds null, not a number"),
            (lambda d: d["components"][1]["alpha"].__setitem__(0, False),
             "alpha holds false, not a number"),
            (lambda d: d["components"][0]["trans"][3].__setitem__(2, "0.1"),
             'trans holds "0.1", not a number'),
            (lambda d: d["components"][0]["sojourn"][2].update(shape=None),
             "shape holds null, not a number"),
            (lambda d: d["components"][1]["sojourn"][4].update(rate="2"),
             'rate holds "2", not a number'),
        ],
    )
    def test_rejects_malformed_document(self, edit, message):
        doc = model_to_dict(fixtures.well_separated_model())
        edit(doc)
        with pytest.raises(DataError, match=f"^malformed model document: {message}"):
            model_from_dict(doc)

    def test_rejects_unknown_version(self, tmp_path):
        doc = model_to_dict(fixtures.one_component_model())
        doc["meta"]["format_version"] = 99
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            read_model(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"space": ')
        message = f"{path}: invalid JSON: Expecting value: line 1 column 11 (char 10)"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read_model(path)

    @pytest.mark.parametrize("state, law, message", [
        (2, {"shape": 1.0, "rate": 1.0}, "absorbing state carries no sojourn law"),
        (0, None, "state 0 needs a sojourn distribution"),
    ])
    def test_sojourn_laws_must_match_the_absorbing_state(self, state, law, message):
        from test_sim import absorbing_model

        doc = model_to_dict(absorbing_model())
        doc["components"][0]["sojourn"][state] = law
        with pytest.raises(InvalidModelError, match=f"^{message}$"):
            model_from_dict(doc)

    @pytest.mark.parametrize("key", ["space", "weights", "components"])
    def test_rejects_a_missing_key(self, key):
        doc = model_to_dict(fixtures.well_separated_model())
        del doc[key]
        with pytest.raises(DataError, match=f"^malformed model document: '{key}'$"):
            model_from_dict(doc)

    def test_absorbing_model_round_trip(self, tmp_path):
        from test_sim import absorbing_model

        model = absorbing_model()
        write_model(tmp_path / "m.json", model)
        assert read_model(tmp_path / "m.json") == model


# Each bundled design: the reference components it mixes in equal proportions.
BUNDLED_COMPONENTS = {
    "chocolate70": (fixtures.chocolate_70,),
    "chocolate70sweet": (fixtures.chocolate_70_sweet,),
    "chocolate90": (fixtures.chocolate_90,),
    "well_separated": (fixtures.chocolate_70, fixtures.chocolate_90),
    "not_well_separated": (fixtures.chocolate_70, fixtures.chocolate_70_sweet),
}

# The public builders of the bundled designs' models.
MODEL_BUILDERS = {
    "chocolate70": fixtures.one_component_model,
    "well_separated": fixtures.well_separated_model,
    "not_well_separated": fixtures.not_well_separated_model,
}


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        scenario = fixtures.benchmark_scenario("well_separated", seed=5)
        write_scenario(tmp_path / "s.json", scenario)
        back = read_scenario(tmp_path / "s.json")
        assert back.model == scenario.model
        assert back.stop_rule == 10 and back.seed == 5
        assert back.name == "well_separated"

    def test_absorbing_stop_rule(self, tmp_path):
        from test_sim import absorbing_model

        scenario = Scenario(
            model=absorbing_model(), n_subjects=5, n_replications=2,
            stop_rule="absorbing", seed=1, replicate_count=2,
        )
        write_scenario(tmp_path / "s.json", scenario)
        assert read_scenario(tmp_path / "s.json").stop_rule == "absorbing"

    @pytest.mark.parametrize("value", [200.7, True, "12", "abc", None])
    @pytest.mark.parametrize(
        "field", ["n_subjects", "n_replications", "seed", "replicate_count", "stop_rule.count"]
    )
    def test_rejects_non_integer_field(self, field, value):
        doc = dataio.scenario_to_dict(fixtures.benchmark_scenario("well_separated", seed=5))
        if field == "stop_rule.count":
            doc["stop_rule"]["count"] = value
        else:
            doc[field] = value
        message = f"{field} must be an integer, not {json.dumps(value)}"
        with pytest.raises(DataError, match=f"^malformed scenario document: {re.escape(message)}$"):
            dataio.scenario_from_dict(doc)

    def test_rejects_an_unknown_stop_rule(self):
        doc = dataio.scenario_to_dict(fixtures.benchmark_scenario("well_separated"))
        doc["stop_rule"] = {"type": "forever"}
        with pytest.raises(DataError, match="^unknown stop rule type 'forever'$"):
            dataio.scenario_from_dict(doc)

    @pytest.mark.parametrize("key", ["model", "n_subjects", "n_replications", "stop_rule", "seed"])
    def test_rejects_a_missing_key(self, key):
        doc = dataio.scenario_to_dict(fixtures.benchmark_scenario("well_separated"))
        del doc[key]
        with pytest.raises(DataError, match=f"^malformed scenario document: '{key}'$"):
            dataio.scenario_from_dict(doc)

    def test_replicate_count_may_be_omitted(self):
        doc = dataio.scenario_to_dict(fixtures.benchmark_scenario("well_separated", replicate_count=7))
        del doc["replicate_count"]
        assert dataio.scenario_from_dict(doc).replicate_count == Scenario.replicate_count == 50

    @pytest.mark.parametrize("name", fixtures.BUNDLED_SCENARIOS)
    def test_bundled_scenario_round_trip(self, name):
        scenario = fixtures.benchmark_scenario(name)
        back = dataio.scenario_from_dict(dataio.scenario_to_dict(scenario))
        # Scenario compares by identity, so compare it field by field.
        for field in ("n_subjects", "n_replications", "stop_rule", "seed", "replicate_count",
                      "name"):
            assert getattr(back, field) == getattr(scenario, field)
        components = tuple(build() for build in BUNDLED_COMPONENTS[name])
        assert back.model == scenario.model == MixtureModel(
            space=fixtures.chocolate_space(),
            weights=np.ones(len(components)) / len(components),
            components=components,
        )
        if name in MODEL_BUILDERS:
            assert scenario.model == MODEL_BUILDERS[name]()
        assert (scenario.n_subjects, scenario.n_replications, scenario.stop_rule,
                scenario.seed, scenario.replicate_count) == (200, 3, 10, 2024, 50)

    def test_benchmark_scenario_takes_the_bundled_names_only(self):
        assert fixtures.BUNDLED_SCENARIOS == tuple(BUNDLED_COMPONENTS)
        with pytest.raises(KeyError, match="unknown scenario 'chocolate100'"):
            fixtures.benchmark_scenario("chocolate100")


class TestTdsGraph:
    def make_panel(self):
        # 100 subjects; A elicited by all, B by 86, C by 14.  Exits from A:
        # 86 toward B, 14 toward C, so P(A->B)=.86 and P(A->C)=.14.
        space = StateSpace(labels=("A", "B", "C"))
        subjects = []
        for i in range(100):
            if i < 16:
                subjects.append((traj([0, 1, 0], [1, 1, 1]),))
            elif i < 30:
                subjects.append((traj([0, 2, 0], [1, 1, 1]),))
            else:
                subjects.append((traj([1, 0, 1], [1, 1, 1]),))
        return Panel(space=space, subjects=tuple(subjects))

    def test_threshold_above_one_gives_no_edges(self, tiny_panel):
        dot = export_tds_graph(tiny_panel, prob_threshold=1.01)
        assert "->" not in dot
        assert '"A";' in dot and '"B";' in dot

    def test_deterministic_two_state_panel(self, two_state_space):
        panel = Panel(space=two_state_space, subjects=((traj([0, 1], [1.0, 1.0]),),))
        dot = export_tds_graph(panel)
        assert '"A" -> "B" [label="1.00"];' in dot
        assert dot.count("->") == 1

    def test_probability_threshold_boundary(self):
        panel = self.make_panel()
        dot = export_tds_graph(panel, prob_threshold=0.15, elicit_frac=0.5)
        assert '"A" -> "C"' not in dot  # 0.14 is below the cut
        assert '"A" -> "B"' in dot  # 0.86 clears it
        assert '"C"' not in dot  # elicited by only 14% of subjects

    def test_cluster_subset(self):
        panel = self.make_panel()
        dot = export_tds_graph(panel, subjects=range(16, 30), prob_threshold=0.15)
        assert '"A" -> "C"' in dot  # within the subset every A exit goes to C
        assert '"B"' not in dot

    def test_no_subjects_selected(self, tiny_panel):
        with pytest.raises(ValueError, match="^no subjects selected$"):
            export_tds_graph(tiny_panel, subjects=[])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_subject_index_outside_the_panel(self, tiny_panel, index):
        with pytest.raises(ValueError, match=rf"subject index {index} outside \[0, 3\)"):
            export_tds_graph(tiny_panel, subjects=[0, index])


class TestAtomicWrites:
    def test_no_partial_output_on_failure(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()  # writing over a directory must fail
        with pytest.raises(OSError):
            write_model(target, fixtures.one_component_model())
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_csv_rows_failing_midway_leave_no_file(self, tmp_path):
        def rows():
            yield ["a", 1]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            dataio.write_csv(tmp_path / "t.csv", ["name", "value"], rows())
        assert list(tmp_path.iterdir()) == []

    def test_csv_format(self, tmp_path):
        dataio.write_csv(tmp_path / "t.csv", ["name", "value"], (r for r in [["a,b", 1], ["c", ""]]))
        assert (tmp_path / "t.csv").read_bytes() == b'name,value\n"a,b",1\nc,\n'


def test_read_panel_keeps_first_appearance_order_of_interleaved_subjects(tmp_path):
    f = write_csv(
        tmp_path / "p.csv",
        "subject,replication,attribute,onset,end\n"
        "s2,1,A,0,10\n"
        "s1,1,A,0,11\n"
        "s2,1,B,2,10\n"
        "s3,1,A,0,12\n"
        "s1,1,B,3,11\n"
        "s2,2,B,0,10\n"
        "s3,1,B,4,12\n"
        "s1,2,A,0,11\n"
        "s2,2,A,5,10\n"
        "s3,2,B,0,12\n"
        "s1,2,B,6,11\n"
        "s3,2,A,7,12\n",
    )
    panel, report = read_panel(f)
    assert report.subject_ids == ("s2", "s1", "s3")
    first_sojourns = [reps[0].sojourns[0] for reps in panel.subjects]
    assert first_sojourns == [2.0, 3.0, 4.0]


def test_read_panel_peak_memory_grows_by_at_most_80_bytes_per_row(tmp_path):
    """Traced, ``read_panel``'s peak on generated panels of 800 and 1,600
    subjects (26,400 and 52,800 rows) grows by at most 80 bytes per added
    row.  The coded columns take 37 bytes per row; a row-sized array that
    outlives the stage reading it adds 4 or 8 more."""
    peaks, rows = [], []
    for n_subjects in (800, 1600):
        scenario = fixtures.benchmark_scenario("well_separated", n_subjects=n_subjects, seed=1)
        panel, _ = simulate_panel(scenario)
        path = tmp_path / f"panel{n_subjects}.csv"
        write_panel(path, panel)
        with open(path) as fh:
            rows.append(sum(1 for _ in fh) - 1)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            read_panel(path, labels=panel.space.labels)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            if not tracing:
                tracemalloc.stop()
    assert rows == [26400, 52800]
    assert (peaks[1] - peaks[0]) / (rows[1] - rows[0]) <= 80
