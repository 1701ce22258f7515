"""File formats: panel CSV ingest/export, model and scenario JSON, and
the dominance-graph DOT export.

Files carry onset timestamps (capture-native); the library carries
durations (model-native).  Conversion happens here: durations are
successive onset differences and the last duration is the record end minus
the last onset.  Consecutive repeats of the same attribute are merged with
summed durations, since the embedded chain cannot represent
self-transitions; the merge count is reported.

All writers are deterministic byte-for-byte (floats use 17 significant
digits) and atomic (write to a temporary file, then rename), so a failed
run never leaves a partial output behind.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import (
    ComponentParams,
    GammaParams,
    MixtureModel,
    Panel,
    StateSpace,
    Trajectory,
)
from .errors import DataError, MalformedRow, NonMonotoneOnset, UnknownAttribute
from .sim import ABSORBING_RULE, Scenario

MODEL_FORMAT_VERSION = 1
DEFAULT_ABSORBING_LABEL = "STOP"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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

_REQUIRED_COLUMNS = ("subject", "replication", "attribute", "onset")


@dataclass(frozen=True)
class IngestReport:
    """What happened while turning a file into a panel."""

    subject_ids: tuple[str, ...]
    merge_count: int
    dropped_sequences: tuple[tuple[str, int], ...]
    dropped_subjects: tuple[str, ...]
    warnings: tuple[str, ...]


def _read_end_sidecar(path) -> dict:
    ends = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                ends[(row["subject"].strip(), int(row["replication"]))] = float(row["end"])
            except (KeyError, TypeError, ValueError):
                raise MalformedRow(reader.line_num, "bad row in record-end sidecar") from None
    return ends


def read_panel(
    path,
    labels: Optional[Sequence[str]] = None,
    absorbing_label: str = DEFAULT_ABSORBING_LABEL,
    delimiter: str = ",",
    ends: Optional[dict] = None,
    ends_path=None,
) -> tuple[Panel, IngestReport]:
    """Read a delimited onset-encoded file into a panel.

    Expected header columns: ``subject``, ``replication``, ``attribute``,
    ``onset`` and optionally ``end`` (the per-sequence record end, needed
    to close the final sojourn; it may also come from ``ends`` /
    ``ends_path``).  When ``labels`` is given it fixes the state order and
    unknown attributes are errors; otherwise the observed attributes are
    sorted, with the absorbing label (default ``"STOP"``), if seen, placed
    last.  Sequences with fewer than two states after merging are dropped
    with a warning, as are subjects left with fewer replications than
    their peers.
    """
    if ends_path is not None:
        ends = {**_read_end_sidecar(ends_path), **(ends or {})}
    ends = ends or {}

    groups: dict[tuple[str, int], list] = {}
    group_end: dict[tuple[str, int], float] = {}
    subject_order: dict[str, None] = {}  # insertion-ordered set, first appearance
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise MalformedRow(1, "empty file")
        header = [h.strip() for h in reader.fieldnames]
        missing = [c for c in _REQUIRED_COLUMNS if c not in header]
        if missing:
            raise MalformedRow(1, f"missing required columns: {', '.join(missing)}")
        has_end = "end" in header
        for row in reader:
            line = reader.line_num
            try:
                subject = row["subject"].strip()
                replication = int(row["replication"])
                attribute = row["attribute"].strip()
                onset = float(row["onset"])
            except (KeyError, TypeError, ValueError, AttributeError):
                raise MalformedRow(line, "cannot parse subject/replication/attribute/onset") from None
            if not subject or not attribute:
                raise MalformedRow(line, "empty subject or attribute")
            if replication < 1:
                raise MalformedRow(line, "replication must be a positive integer")
            key = (subject, replication)
            subject_order.setdefault(subject)
            groups.setdefault(key, []).append((line, attribute, onset))
            if has_end and row.get("end") not in (None, ""):
                try:
                    end_value = float(row["end"])
                except (TypeError, ValueError):
                    raise MalformedRow(line, "cannot parse end") from None
                prior = group_end.get(key)
                if prior is not None and prior != end_value:
                    raise MalformedRow(line, "conflicting record-end values in one sequence")
                group_end[key] = end_value
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
    sequences: dict[tuple[str, int], Trajectory] = {}
    for key, rows in groups.items():
        subject, replication = key
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
        durations = np.diff(np.asarray(merged_onsets + [end], dtype=np.float64))
        sequences[key] = Trajectory(states=np.asarray(states), sojourns=durations)

    by_subject: dict[str, list[tuple[int, Trajectory]]] = {}
    for (subject, replication), traj in sequences.items():
        by_subject.setdefault(subject, []).append((replication, traj))
    if not by_subject:
        raise DataError("no usable sequences in the file")
    n_reps = max(len(v) for v in by_subject.values())
    subjects = []
    kept_ids = []
    dropped_subjects = []
    for subject in subject_order:
        reps = by_subject.get(subject, [])
        if len(reps) < n_reps:
            dropped_subjects.append(subject)
            warnings.append(
                f"dropped subject {subject!r}: {len(reps)} usable replications, "
                f"expected {n_reps}"
            )
            continue
        reps.sort(key=lambda item: item[0])
        subjects.append(tuple(traj for _, traj in reps))
        kept_ids.append(subject)
    if not subjects:
        raise DataError("no subject has a complete set of replications")

    panel = Panel(space=space, subjects=tuple(subjects))
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["subject", "replication", "attribute", "onset", "end"])
    labels = panel.space.labels
    for sid, reps in zip(subject_ids, panel.subjects):
        for b, traj in enumerate(reps, start=1):
            onset = 0.0
            onsets = []
            for x in traj.sojourns:
                onsets.append(onset)
                onset += float(x)
            end = onset
            for j, t in zip(traj.states, onsets):
                writer.writerow([sid, b, labels[int(j)], _fmt(t), _fmt(end)])
    _atomic_write_text(path, buf.getvalue())


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
    _atomic_write_text(path, _dump_json(model_to_dict(model)) + "\n")


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
    _atomic_write_text(path, _dump_json(scenario_to_dict(scenario, meta)) + "\n")


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

    elicited = np.zeros(d)
    counts = np.zeros((d, d))
    for i in subjects:
        seen: set[int] = set()
        for traj in panel.subjects[i]:
            seen.update(int(s) for s in traj.states)
            np.add.at(counts, (traj.states[:-1], traj.states[1:]), 1.0)
        for j in seen:
            elicited[j] += 1.0
    elicited /= len(subjects)
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


def write_text(path, text: str) -> None:
    """Atomic plain-text writer used by the CLI."""
    _atomic_write_text(path, text)
