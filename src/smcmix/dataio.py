"""File formats: panel CSV ingest/export, labels CSV, model and scenario
JSON, and the dominance-graph DOT export.

Files carry onset timestamps (capture-native); the library carries
durations (model-native).  Conversion happens here: durations are
successive onset differences and the last duration is the record end minus
the last onset.  Consecutive repeats of the same attribute are merged with
summed durations, since the embedded chain cannot represent
self-transitions; the merge count is reported.

Every CSV file the library or the CLI reads goes through one row reader,
:func:`_read_rows`, and every one it writes through :func:`write_csv`.

All writers are deterministic byte-for-byte (floats use 17 significant
digits) and atomic (write to a temporary file, then rename), so a failed
run never leaves a partial output behind.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import ComponentParams, GammaParams, MixtureModel, Panel, StateSpace
from .errors import DataError, MalformedRow, NonMonotoneOnset, UnknownAttribute
from .likelihood import PanelStats
from .sim import ABSORBING_RULE, Scenario

MODEL_FORMAT_VERSION = 1
DEFAULT_ABSORBING_LABEL = "STOP"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _atomic_open(path):
    """Text file handle on a temporary sibling of ``path``, renamed over
    ``path`` when the block succeeds and deleted when it fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Atomic plain-text writer used by the CLI."""
    with _atomic_open(path) as fh:
        fh.write(text)


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Atomic CSV writer with ``"\n"`` line endings, floats to 17 significant
    digits and None as an empty field.  Each row is written as ``rows``
    yields it, so a generator keeps a large file out of memory."""
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _read_rows(path, required: Sequence[str], optional: Sequence[str] = (), delimiter: str = ","):
    """Yield ``(line, fields)`` per data row of a delimited file: the values
    of the ``required`` and then the ``optional`` columns, found by their
    header names stripped of spaces.  A column the header lacks or a short
    row does not reach reads None, so a short row fails in its caller's
    parse, on its own line.  Blank lines are skipped, as in csv.DictReader."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise MalformedRow(1, "empty file")
        position = {name.strip(): k for k, name in enumerate(header)}
        missing = [c for c in required if c not in position]
        if missing:
            raise MalformedRow(1, f"missing required columns: {', '.join(missing)}")
        columns = [position.get(c) for c in (*required, *optional)]
        for row in reader:
            if row:
                n = len(row)
                yield reader.line_num, [None if k is None or k >= n else row[k] for k in columns]


def _finite(value: float, line: int, name: str) -> float:
    if not math.isfinite(value):
        raise MalformedRow(line, f"{name} must be finite")
    return value


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {_dump_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_dump_json(v) for v in obj) + "]"
        items = [f"{inner}{_dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError("cannot serialize a non-finite number")
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Panel CSV

@dataclass(frozen=True)
class IngestReport:
    """What happened while turning a file into a panel."""

    subject_ids: tuple[str, ...]
    merge_count: int
    dropped_sequences: tuple[tuple[str, int], ...]
    dropped_subjects: tuple[str, ...]
    warnings: tuple[str, ...]


def _read_end_sidecar(path) -> tuple[dict, dict]:
    """The record ends by (subject, replication), and the line each was
    read from."""
    ends = {}
    lines = {}
    for line, (subject, replication, end) in _read_rows(path, ("subject", "replication", "end")):
        try:
            key = (subject.strip(), int(replication))
            value = float(end)
        except (TypeError, ValueError, AttributeError):
            raise MalformedRow(line, "bad row in record-end sidecar") from None
        if ends.setdefault(key, _finite(value, line, "end")) != value:
            raise MalformedRow(line, "conflicting record-end values in one sequence")
        lines.setdefault(key, line)
    return ends, lines


def read_panel(
    path,
    labels: Optional[Sequence[str]] = None,
    absorbing_label: str = DEFAULT_ABSORBING_LABEL,
    delimiter: str = ",",
    ends_path=None,
) -> tuple[Panel, IngestReport]:
    """Read a delimited onset-encoded file into a panel.

    Expected header columns: ``subject``, ``replication``, ``attribute``,
    ``onset`` and optionally ``end`` (the per-sequence record end, needed
    to close the final sojourn; it may also come from the ``ends_path``
    sidecar, with columns ``subject``, ``replication``, ``end``, which the
    ``end`` column overrides).  Onsets and ends must be finite, and rows
    giving one sequence two different ends are an error; a sidecar row
    that matches no sequence of the file is reported as a warning.  When
    ``labels`` is given it fixes the state order and unknown attributes are
    errors; otherwise the observed attributes are sorted, with the
    absorbing label (default ``"STOP"``), if seen, placed last.  Sequences
    with fewer than two states after merging are dropped with a warning,
    as are subjects left with fewer replications than their peers.
    """
    ends, end_lines = ({}, {}) if ends_path is None else _read_end_sidecar(ends_path)

    # (subject, replication) -> rows, in order of first appearance
    groups: dict[tuple[str, int], list] = {}
    group_end: dict[tuple[str, int], float] = {}
    reader = _read_rows(path, ("subject", "replication", "attribute", "onset"), ("end",), delimiter)
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

    # State space
    if labels is not None:
        label_list = [str(x) for x in labels]
    else:
        observed = sorted({attr for rows in groups.values() for _, attr, _ in rows})
        if absorbing_label in observed:
            observed.remove(absorbing_label)
            observed.append(absorbing_label)
        label_list = observed
    absorbing = label_list.index(absorbing_label) if absorbing_label in label_list else None
    space = StateSpace(labels=tuple(label_list), absorbing=absorbing)
    index = {lab: k for k, lab in enumerate(label_list)}

    merge_count = 0
    dropped: list[tuple[str, int]] = []
    warnings: list[str] = []
    # The merged states and durations of every usable sequence, back to back.
    flat_states: list[int] = []
    flat_durations: list[float] = []
    # subject -> {replication: its rows in the flat lists}, in order of appearance
    by_subject: dict[str, dict[int, range]] = {}
    for key, rows in groups.items():
        subject, replication = key
        reps = by_subject.setdefault(subject, {})
        onsets = [onset for _, _, onset in rows]
        if any(b <= a for a, b in zip(onsets, onsets[1:])):
            raise NonMonotoneOnset(subject, replication)
        states: list[int] = []
        merged_onsets: list[float] = []
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
        if end <= merged_onsets[-1]:
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
    # A maximum, so at least one subject is kept.
    n_reps = max(len(reps) for reps in by_subject.values())
    sequences: list[range] = []
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

    order = np.fromiter(chain.from_iterable(sequences), dtype=np.int64)
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


def write_panel(path, panel: Panel, subject_ids: Optional[Sequence[str]] = None) -> None:
    """Write a panel as an onset-encoded CSV (inverse of :func:`read_panel`)."""
    if subject_ids is None:
        subject_ids = [str(i + 1) for i in range(panel.n_subjects)]
    if len(subject_ids) != panel.n_subjects:
        raise ValueError("one subject id per subject required")
    labels = panel.space.labels

    def rows():
        states = panel.states.tolist()
        sojourns = panel.sojourns.tolist()
        a = 0
        for sid, lengths in zip(subject_ids, panel.lengths.tolist()):
            for b, n in enumerate(lengths, start=1):
                onsets = list(accumulate(sojourns[a : a + n], initial=0.0))
                for j, t in zip(states[a : a + n], onsets):
                    yield sid, b, labels[j], t, onsets[-1]
                a += n

    write_csv(path, ("subject", "replication", "attribute", "onset", "end"), rows())


def write_labels(path, subject_ids: Sequence[str], labels: Sequence[int]) -> None:
    """Write one 0-based component label per subject, as 1-based ids."""
    rows = ((sid, int(lab) + 1) for sid, lab in zip(subject_ids, labels))
    write_csv(path, ("subject", "component"), rows)


def read_labels(path) -> dict[str, int]:
    """Subject id -> 0-based component label (inverse of :func:`write_labels`)."""
    out = {}
    for line, (subject, component) in _read_rows(path, ("subject", "component")):
        try:
            out[subject.strip()] = int(component) - 1
        except (TypeError, ValueError, AttributeError):
            raise MalformedRow(line, "bad row in labels file") from None
    return out


# ---------------------------------------------------------------------------
# Model JSON


def model_to_dict(model: MixtureModel) -> dict:
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
        "meta": {"format_version": MODEL_FORMAT_VERSION},
    }


def model_from_dict(doc: dict) -> MixtureModel:
    try:
        meta = doc.get("meta", {})
        version = meta.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format_version {version!r}")
        space = StateSpace(
            labels=tuple(doc["space"]["labels"]),
            absorbing=doc["space"].get("absorbing"),
        )
        comps = []
        for c in doc["components"]:
            sojourn = tuple(
                None if p is None else GammaParams(shape=float(p["shape"]), rate=float(p["rate"]))
                for p in c["sojourn"]
            )
            comps.append(
                ComponentParams(
                    alpha=np.asarray(c["alpha"], dtype=np.float64),
                    trans=np.asarray(c["trans"], dtype=np.float64),
                    sojourn=sojourn,
                    absorbing=space.absorbing,
                )
            )
        return MixtureModel(
            space=space,
            weights=np.asarray(doc["weights"], dtype=np.float64),
            components=tuple(comps),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc


def write_model(path, model: MixtureModel) -> None:
    with _atomic_open(path) as fh:
        fh.write(_dump_json(model_to_dict(model)) + "\n")


def read_model(path) -> MixtureModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON: {exc}") from exc
    return model_from_dict(doc)


# ---------------------------------------------------------------------------
# Scenario JSON


def scenario_to_dict(scenario: Scenario, meta: Optional[dict] = None) -> dict:
    if scenario.stop_rule == ABSORBING_RULE:
        stop = {"type": "absorbing"}
    else:
        stop = {"type": "transitions", "count": int(scenario.stop_rule)}
    doc = {
        "model": model_to_dict(scenario.model),
        "n_subjects": scenario.n_subjects,
        "n_replications": scenario.n_replications,
        "stop_rule": stop,
        "seed": scenario.seed,
        "replicate_count": scenario.replicate_count,
        "meta": {"format_version": MODEL_FORMAT_VERSION, **(meta or {})},
    }
    if scenario.name is not None:
        doc["name"] = scenario.name
    return doc


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        stop = doc["stop_rule"]
        if stop["type"] == "absorbing":
            stop_rule: int | str = ABSORBING_RULE
        elif stop["type"] == "transitions":
            stop_rule = int(stop["count"])
        else:
            raise DataError(f"unknown stop rule type {stop['type']!r}")
        return Scenario(
            model=model_from_dict(doc["model"]),
            n_subjects=int(doc["n_subjects"]),
            n_replications=int(doc["n_replications"]),
            stop_rule=stop_rule,
            seed=int(doc["seed"]),
            replicate_count=int(doc.get("replicate_count", 50)),
            name=doc.get("name"),
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed scenario document: {exc}") from exc


def write_scenario(path, scenario: Scenario, meta: Optional[dict] = None) -> None:
    with _atomic_open(path) as fh:
        fh.write(_dump_json(scenario_to_dict(scenario, meta)) + "\n")


def read_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# Dominance graph export


def export_tds_graph(
    panel: Panel,
    subjects: Optional[Sequence[int]] = None,
    prob_threshold: float = 0.15,
    elicit_frac: float = 0.5,
) -> str:
    """DOT digraph of the panel's dominant transitions.

    Nodes are attributes elicited by at least ``elicit_frac`` of the
    relevant subjects (all subjects, or the given subset, e.g. one
    cluster); directed edges are empirical transition probabilities
    strictly above ``prob_threshold``, labelled to two decimals.  Node and
    edge order follow the state space, so output is deterministic.
    """
    d = panel.space.n_states
    if subjects is None:
        subjects = range(panel.n_subjects)
    subjects = [int(i) for i in subjects]
    if not subjects:
        raise ValueError("no subjects selected")

    stats = PanelStats.from_panel(panel)
    # Every visited state is a trajectory's first state or a transition's target.
    visited = stats.first_counts + stats.trans_counts.sum(axis=1) > 0
    elicited = visited[subjects].sum(axis=0) / len(subjects)
    counts = stats.trans_counts[subjects].sum(axis=0)
    nodes = [j for j in range(d) if elicited[j] >= elicit_frac]

    row_totals = counts.sum(axis=1)
    lines = ["digraph tds {", "  rankdir=LR;"]
    for j in nodes:
        lines.append(f'  "{panel.space.labels[j]}";')
    for h in nodes:
        if row_totals[h] <= 0:
            continue
        for j in nodes:
            prob = counts[h, j] / row_totals[h]
            if prob > prob_threshold:
                lines.append(
                    f'  "{panel.space.labels[h]}" -> "{panel.space.labels[j]}"'
                    f' [label="{prob:.2f}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
