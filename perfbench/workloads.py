"""The benchmark's three workloads, driven through the public smcmix API.

Each workload builds its inputs from the seed (``setup``).  Its fixed pass
is a list of timed units (``units``): the whole ingest pass, one G sweep
each, or the whole Monte-Carlo run.  The pass's outputs are checked outside
the timed region (``check``).  Failures are counted per op: the ingest
pass, one sweep, or one Monte-Carlo replicate.  ``check`` returns one
:class:`Op` per op; its ``signature`` holds the op's outputs, which must be
identical in every pass of a run, traced or not.  A unit that raises
leaves the exception in place of its result.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from typing import NamedTuple, Optional

import numpy as np

from smcmix import dataio, em, fixtures, metrics, selection, sim
from smcmix.core import Panel, Trajectory
from smcmix.likelihood import mixture_loglik

# Sojourns are recorded on a 2**-10 s (about 1 ms) clock, as real tastings
# are recorded at a finite resolution.  Onsets on that grid are exact
# binary fractions, so the CSV round trip reproduces the generated panel
# bit for bit and the ingest check can demand equality.
CLOCK_TICK = 2.0**-10

G_RANGE = range(1, 4)


class Op(NamedTuple):
    signature: object
    error: Optional[str]


def _raised(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _on_clock(panel: Panel) -> Panel:
    subjects = tuple(
        tuple(
            Trajectory(
                states=t.states,
                sojourns=np.maximum(np.round(t.sojourns / CLOCK_TICK), 1.0) * CLOCK_TICK,
            )
            for t in reps
        )
        for reps in panel.subjects
    )
    return Panel(space=panel.space, subjects=subjects)


def _n_trajectories(panel: Panel) -> int:
    return panel.n_subjects * panel.n_replications


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


class IngestClassify:
    """``smcmix classify`` on a panel of real size: read the model and an
    onset CSV, E-step, MAP labels, write the labels CSV."""

    name = "ingest_classify"

    def __init__(self, seed: int, workdir, tiny: bool):
        self.seed = seed
        self.n_subjects = 40 if tiny else 2000
        self.ops_per_pass = 1
        self.csv_path = workdir / "panel.csv"
        self.model_path = workdir / "model.json"
        self.labels_path = workdir / "labels.csv"

    def setup(self) -> None:
        scenario = fixtures.benchmark_scenario(
            "well_separated", n_subjects=self.n_subjects, seed=self.seed
        )
        panel, self.true_labels = sim.simulate_panel(scenario)
        self.panel = _on_clock(panel)
        self.model = scenario.model
        dataio.write_panel(self.csv_path, self.panel)
        dataio.write_model(self.model_path, self.model)

    def units(self):
        return [self._classify]

    def _classify(self):
        model = dataio.read_model(self.model_path)
        panel, report = dataio.read_panel(self.csv_path, labels=list(model.space.labels))
        labels = em.map_cluster(em.e_step(panel, model))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["subject", "component"])
        for sid, lab in zip(report.subject_ids, labels):
            writer.writerow([sid, int(lab) + 1])
        dataio.write_text(self.labels_path, buf.getvalue())
        return panel, report.subject_ids, labels

    def check(self, results) -> list[Op]:
        (result,) = results
        if isinstance(result, BaseException):
            return [Op(None, _raised(result))]
        panel, subject_ids, labels = result
        errors = []
        if panel != self.panel:
            errors.append("panel read back differs from the generated panel")
        with open(self.labels_path, newline="", encoding="utf-8") as fh:
            rows = [(r["subject"], int(r["component"])) for r in csv.DictReader(fh)]
        self.labels_path.unlink()
        if len(rows) != self.panel.n_subjects:
            errors.append(f"labels file has {len(rows)} rows for {self.panel.n_subjects} subjects")
        elif rows != [(sid, int(lab) + 1) for sid, lab in zip(subject_ids, labels)]:
            errors.append("labels file disagrees with the MAP labels")
        return [Op((subject_ids, labels.tobytes()), "; ".join(errors) or None)]

    def quality(self, results, fits) -> dict:
        panel, _, labels = results[0]
        return {
            "class_rate": metrics.classification_rate(self.true_labels, labels),
            "nll_per_traj": -mixture_loglik(panel, self.model) / _n_trajectories(panel),
            "bic_hit_rate": None,
            "err_shape": None,
        }


class SelectOverfit:
    """``select_g`` over G = 1..3 on one-component chocolate70 panels, so
    the G = 2 and G = 3 fits are over-fitted."""

    name = "select_overfit"

    def __init__(self, seed: int, workdir, tiny: bool):
        self.seed = seed
        self.n_subjects = 60 if tiny else 200
        self.ops_per_pass = 2 if tiny else 16

    def setup(self) -> None:
        seeds = np.random.SeedSequence(self.seed).generate_state(2 * self.ops_per_pass)
        self.inputs = []
        for k in range(self.ops_per_pass):
            scenario = fixtures.benchmark_scenario(
                "chocolate70", n_subjects=self.n_subjects, seed=int(seeds[2 * k])
            )
            panel, labels = sim.simulate_panel(scenario)
            self.inputs.append((panel, labels, int(seeds[2 * k + 1])))
        self.truth = scenario.model

    def units(self):
        return [
            functools.partial(selection.select_g, panel, G_RANGE, em.EmConfig(seed=em_seed))
            for panel, _, em_seed in self.inputs
        ]

    def check(self, results) -> list[Op]:
        ops = []
        for sweep in results:
            if isinstance(sweep, BaseException):
                ops.append(Op(None, _raised(sweep)))
                continue
            errors = []
            traces = tuple(sweep.reports[g].objective_trace for g in sorted(sweep.reports))
            if not all(math.isfinite(v) for trace in traces for v in trace):
                errors.append("non-finite objective trace")
            missing = sorted(set(selection.CRITERIA) - set(sweep.chosen))
            if missing:
                errors.append(f"no choice recorded for {', '.join(missing)}")
            signature = (
                tuple(sorted(sweep.chosen.items())),
                traces,
                tuple(row.loglik for row in sweep.rows),
            )
            ops.append(Op(signature, "; ".join(errors) or None))
        return ops

    def quality(self, results, fits) -> dict:
        g_true = self.truth.n_components
        done = [(sweep, panel, labels) for sweep, (panel, labels, _) in zip(results, self.inputs)]
        return {
            "class_rate": _mean(
                metrics.classification_rate(labels, em.map_cluster(s.best_report("bic").posteriors))
                for s, _, labels in done
            ),
            "nll_per_traj": _mean(
                -row.loglik / _n_trajectories(panel) for s, panel, _ in done for row in s.rows
            ),
            "bic_hit_rate": _mean(s.chosen.get("bic") == g_true for s, _, _ in done),
            "err_shape": _mean(
                metrics.err_gamma(self.truth, s.reports[g_true].model, "shape") for s, _, _ in done
            ),
        }


class McRecovery:
    """``run_benchmark`` on ``well_separated`` with G fixed at 2, at the
    program's default parallelism."""

    name = "mc_recovery"

    def __init__(self, seed: int, workdir, tiny: bool):
        self.seed = seed
        self.n_subjects = 60 if tiny else 200
        self.ops_per_pass = 2 if tiny else 30

    def setup(self) -> None:
        self.scenario = fixtures.benchmark_scenario(
            "well_separated",
            n_subjects=self.n_subjects,
            seed=self.seed,
            replicate_count=self.ops_per_pass,
        )

    def units(self):
        return [functools.partial(sim.run_benchmark, self.scenario, em.EmConfig())]

    def _scored(self, values, r: int) -> bool:
        return values["aborted"][r] == 0.0 and all(
            math.isfinite(column[r]) for column in values.values()
        )

    def check(self, results) -> list[Op]:
        (result,) = results
        if isinstance(result, BaseException):
            return [Op(None, _raised(result))] * self.ops_per_pass
        values = result.values
        ops = []
        for r in range(self.ops_per_pass):
            signature = tuple((name, float(column[r]).hex()) for name, column in values.items())
            error = None if self._scored(values, r) else f"replicate {r} aborted or not scored"
            ops.append(Op(signature, error))
        return ops

    def quality(self, results, fits) -> dict:
        values = results[0].values
        scored = [r for r in range(self.ops_per_pass) if self._scored(values, r)]
        return {
            "class_rate": _mean(values["class_rate"][r] for r in scored),
            "nll_per_traj": _mean(
                -mixture_loglik(panel, report.model) / _n_trajectories(panel)
                for panel, report, aborted in fits
                if not aborted
            ),
            "bic_hit_rate": None,
            "err_shape": _mean(values["err_shape"][r] for r in scored),
        }


WORKLOADS = {w.name: w for w in (IngestClassify, SelectOverfit, McRecovery)}
