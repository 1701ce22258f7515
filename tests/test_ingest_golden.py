"""Pin of :func:`read_panel` on a messy panel file and its record-end sidecar.

``golden/ingest_messy/`` holds a panel CSV and a sidecar built by
:func:`_messy_files` from a fixed seed, and ``expected.json``: the panel's
labels, states, ``float.hex`` of its sojourns and lengths, and every field
of the :class:`IngestReport`, read once without and once with fixed
labels.  The file mixes what real exports carry: shuffled and padded
header names, an ignored extra column, quoted subject names, spaces
around values, blank lines, interleaved subjects, repeated attributes,
record ends given on some rows only, in the sidecar or in both, sidecar
rows matching no sequence, sequences too short to keep, subjects left
without a replication and absorbing ``STOP`` rows.  Any change to the
reader must reproduce the file exactly.  Regenerate it with
``python tests/test_ingest_golden.py --write`` only for a change meant to
alter what a panel file reads as, and say so in CHANGES.md.
"""

import csv
import io
import json
import random
import sys
from pathlib import Path

import pytest

from smcmix.dataio import read_panel

GOLDEN = Path(__file__).parent / "golden" / "ingest_messy"
PANEL = GOLDEN / "panel.csv"
ENDS = GOLDEN / "ends.csv"
EXPECTED = GOLDEN / "expected.json"
# Fixed labels: an unobserved state and a non-sorted order.
LABELS = ["Sweet", "Bitter", "Sour", "Woody", "Cocoa", "STOP"]
ATTRIBUTES = ["Sweet", "Bitter", "Sour", "Cocoa"]
ONSET_FORMATS = ["{:g}", "{:.2f}", "{:.3f}", " {:g} ", "{:.6e}"]


def _messy_files(seed: int = 9) -> tuple[str, str]:
    """The panel and sidecar texts: 30 subjects of 3 replications."""
    rng = random.Random(seed)
    groups = []
    sidecar = []
    for s in range(1, 31):
        subject = f"Smith, J{s}" if s % 7 == 0 else f"p{s:02d}"
        for r in range(1, 4):
            n = 1 if rng.random() < 0.08 else rng.randint(2, 7)
            onsets, t = [], rng.choice([0.0, 0.25])
            for _ in range(n):
                onsets.append(t)
                t += rng.choice([0.5, 1.25, 2.0, 0.1, 3.3])
            attributes = [rng.choice(ATTRIBUTES) for _ in range(n)]
            if n > 2 and rng.random() < 0.25:
                attributes[-1] = "STOP"
            end = t + rng.choice([0.0, 0.5, 1.7])
            where = rng.choice(["all", "some", "sidecar", "both"])
            rows = []
            for k, (a, onset) in enumerate(zip(attributes, onsets)):
                end_text = ""
                if where in ("all", "both") or (where == "some" and k == n // 2):
                    end_text = rng.choice(["{:g}", "{:.4f}", " {:g}"]).format(end)
                subject_text = subject if rng.random() < 0.8 else f" {subject} "
                rep_text = rng.choice([str(r), f" {r}", f"0{r}"])
                attr_text = a if rng.random() < 0.85 else f"{a} "
                onset_text = rng.choice(ONSET_FORMATS).format(onset)
                rows.append([onset_text, subject_text, "x", attr_text, rep_text, end_text])
            groups.append(rows)
            if where in ("sidecar", "both"):
                shift = 1.0 if where == "both" else 0.0
                sidecar.append([subject, str(r), "{:g}".format(end + shift)])
    sidecar.append(["p99", "1", "4"])
    sidecar.append(["p01", "9", "7.5"])
    rng.shuffle(sidecar)

    # Interleave the sequences, keeping each one's row order.
    queue = [list(rows) for rows in groups]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([" onset", "subject ", "note", " attribute ", "replication", "end"])
    while queue:
        rows = rng.choice(queue[:4])
        writer.writerow(rows.pop(0))
        if rng.random() < 0.05:
            out.write("\n")
        if not rows:
            queue.remove(rows)
    side = io.StringIO()
    csv.writer(side, lineterminator="\n").writerows([["subject", "replication", "end"], *sidecar])
    return out.getvalue(), side.getvalue()


def _result(labels) -> dict:
    panel, report = read_panel(PANEL, labels=labels, ends_path=ENDS)
    return {
        "labels": list(panel.space.labels),
        "absorbing": panel.space.absorbing,
        "states": panel.states.tolist(),
        "sojourns": [float(x).hex() for x in panel.sojourns],
        "lengths": panel.lengths.tolist(),
        "subject_ids": list(report.subject_ids),
        "merge_count": report.merge_count,
        "dropped_sequences": [list(key) for key in report.dropped_sequences],
        "dropped_subjects": list(report.dropped_subjects),
        "warnings": list(report.warnings),
    }


def _results() -> dict:
    return {"inferred_labels": _result(None), "fixed_labels": _result(LABELS)}


def test_input_files_come_from_the_generator():
    panel_text, ends_text = _messy_files()
    assert PANEL.read_text(encoding="utf-8") == panel_text
    assert ENDS.read_text(encoding="utf-8") == ends_text


@pytest.mark.parametrize("case", ["inferred_labels", "fixed_labels"])
def test_read_panel_matches_the_golden_result(case):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[case]
    assert _result(LABELS if case == "fixed_labels" else None) == expected


def test_file_is_messy():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["inferred_labels"]
    assert expected["merge_count"] > 0
    assert expected["dropped_sequences"] and expected["dropped_subjects"]
    assert any("record-end sidecar" in w for w in expected["warnings"])
    assert "STOP" in expected["labels"] and expected["absorbing"] is not None
    assert "\n\n" in PANEL.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_ingest_golden.py --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    panel_text, ends_text = _messy_files()
    PANEL.write_text(panel_text, encoding="utf-8")
    ENDS.write_text(ends_text, encoding="utf-8")
    EXPECTED.write_text(json.dumps(_results(), indent=1) + "\n", encoding="utf-8")
