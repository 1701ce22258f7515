"""Panel simulation and the Monte-Carlo benchmark harness.

A trajectory starts in a state drawn from the initial probabilities, then
alternates gamma sojourns and transitions until the stop rule fires (a
fixed transition count, or entry into the absorbing state).  Benchmarks
run many independent replicates, each on its own random stream, in this
process, and aggregate recovery metrics.

:func:`simulate_panel` draws a whole panel in array calls, and the order
of those calls is its contract: the component labels from one
``rng.choice``; then, for step 0, 1, ..., one ``rng.random(m)`` for the m
trajectories still running, in panel order (subject by subject,
replication by replication), each uniform turned into a state through
its row's cumulative sums; then one ``rng.gamma`` over the sojourns of
every visit outside the absorbing state, in panel order, and one more
over the draws that came back 0.0, in the same order, until none does.
:func:`simulate_trajectory` draws one trajectory with scalar calls: one
``rng.random()`` per state and one ``rng.gamma()`` per sojourn, in order.
The golden files of the test suite and the seeds of the acceptance tests
rest on these streams; ``tests/golden/sim_panels.json`` pins both.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import ComponentParams, MixtureModel, Panel, Trajectory, check_count, is_integer
from .em import EmConfig, FitReport, fit, map_cluster
from .errors import EmptyComponent, NumericalError
from .initialization import RESTARTS, initial_model
from .likelihood import PanelStats
from .metrics import (
    align_components,
    classification_rate,
    err_by_component,
    err_gamma,
    pi_recovery,
)
from .selection import _component_counts, select_g

ABSORBING_RULE = "absorbing"
_MAX_SIM_STATES = 1_000_000
# Placeholder duration stored for a final absorbing state; it never enters
# a likelihood.
_ABSORBING_PLACEHOLDER = 1.0


@dataclass(frozen=True, eq=False)
class Scenario:
    """A simulation design: the generating mixture, panel dimensions, the
    stop rule (transition count or ``"absorbing"``), the master seed and
    the number of Monte-Carlo replicates, all counts (:func:`~smcmix.core.check_count`)."""

    model: MixtureModel
    n_subjects: int
    n_replications: int
    stop_rule: int | str
    seed: int
    replicate_count: int = 50
    name: Optional[str] = None

    def __post_init__(self):
        for name in ("n_subjects", "n_replications", "replicate_count"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed, 0)
        _check_stop_rule(self.stop_rule, self.model.space.absorbing)


def _check_stop_rule(rule, absorbing: Optional[int]) -> None:
    """Raise ``ValueError`` unless ``rule`` is a transition count or a usable absorbing rule."""
    if isinstance(rule, str):
        if rule != ABSORBING_RULE:
            raise ValueError(f"unknown stop rule {rule!r}")
        if absorbing is None:
            raise ValueError("absorbing stop rule needs an absorbing state")
    elif not is_integer(rule):
        raise ValueError(f"stop rule must be a transition count or {ABSORBING_RULE!r}")
    else:
        check_count("transition count", rule, 1)


def simulate_trajectory(comp: ComponentParams, stop_rule, rng: np.random.Generator) -> Trajectory:
    """Draw one trajectory from one renewal process under the stop rule."""
    _check_stop_rule(stop_rule, comp.absorbing)
    shape, rate = comp.sojourn_arrays()
    # Python lists: the loop reads one cell per scalar draw, which lists do
    # far faster than small numpy arrays.  Row D of ``rows`` and ``cums`` is
    # the initial distribution, so the first state is drawn as a transition
    # out of a start row, by the same code.
    rows = [*comp.trans.tolist(), comp.alpha.tolist()]
    cums = [*np.cumsum(comp.trans, axis=1).tolist(), np.cumsum(comp.alpha).tolist()]
    shapes, scales = shape.tolist(), (1.0 / rate).tolist()
    random, gamma = rng.random, rng.gamma
    absorbing = -1 if comp.absorbing is None else comp.absorbing
    last = len(shapes) - 1
    states: list[int] = []
    sojourns: list[float] = []
    # States a fixed transition count allows; absorption may end the
    # trajectory sooner, and no trajectory passes _MAX_SIM_STATES.
    steps = math.inf if stop_rule == ABSORBING_RULE else stop_rule + 1
    j = last + 1  # the start row
    for _ in range(min(steps, _MAX_SIM_STATES)):
        # bisect_right picks the cell np.searchsorted(side="right") picks,
        # never a zero cell: np.cumsum adds a zero exactly, so a zero cell's
        # sum equals the one before it.  A row whose sums round to just
        # below 1 can leave u past them: clamp to the last cell and walk
        # back past zero cells.
        k = bisect_right(cums[j], random())
        if k > last:
            probs, k = rows[j], last
            while probs[k] == 0.0:
                k -= 1
        j = k
        states.append(j)
        if j == absorbing:
            sojourns.append(_ABSORBING_PLACEHOLDER)
            break
        x = gamma(shapes[j], scales[j])
        while x <= 0.0:  # underflow safety for tiny shapes
            x = gamma(shapes[j], scales[j])
        sojourns.append(x)
    else:
        if steps > _MAX_SIM_STATES:
            raise NumericalError("simulation did not reach the absorbing state")
    return Trajectory(states=np.asarray(states), sojourns=np.asarray(sojourns))


def _cannot_absorb(probs, d: int, absorbing: int) -> np.ndarray:
    """Per row of the stacked tables of :func:`simulate_panel`, whether its
    state has no path of non-zero transitions to the absorbing state
    (``absorbing`` is -1 when there is none).  Start rows read False."""
    doomed = np.zeros((len(probs) // (d + 1), d + 1), dtype=bool)
    if absorbing < 0:
        doomed[:, :d] = True
    else:
        edges = probs.reshape(doomed.shape + (d,))[:, :d] > 0.0
        reach = np.zeros(edges.shape[:2], dtype=bool)
        reach[:, absorbing] = True
        for _ in range(d - 1):  # a shortest path takes at most d - 1 steps
            reach = reach | (edges & reach[:, None, :]).any(axis=2)
        doomed[:, :d] = ~reach
    return doomed.reshape(-1)


def simulate_panel(
    scenario: Scenario, rng: Optional[np.random.Generator] = None
) -> tuple[Panel, np.ndarray]:
    """Simulate a full panel; every replication of a subject shares the
    subject's mixture component.  Returns the panel and the true labels.

    The draws run step by step over every trajectory still running, then
    over every sojourn at once, in the order the module docstring states.
    A trajectory that would pass ``_MAX_SIM_STATES`` states raises
    :class:`NumericalError`; under a stop rule past that cap, one that
    enters a state with no path to the absorbing state (any state, when
    there is none) is certain to, and raises at once."""
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(scenario.seed)))
    model, p = scenario.model, scenario.model.params
    labels = rng.choice(model.n_components, size=scenario.n_subjects, p=p.weights)
    d = p.alpha.shape[1]
    # Row g * (d + 1) + j of the tables is component g's row out of state
    # j, and row g * (d + 1) + d its initial distribution: the first state
    # is drawn as a transition out of that start row.
    probs = np.concatenate([p.trans, p.alpha[:, None]], axis=1).reshape(-1, d)
    # Counting the sums at or below u picks the cell bisect_right picks in
    # simulate_trajectory.  Sums from a row's last non-zero cell on read
    # inf, so a u past a row's short sum lands in that cell, as there.
    cums = np.cumsum(probs, axis=1)
    last_cell = d - 1 - np.argmax(probs[:, ::-1] != 0.0, axis=1)
    cums[np.arange(d) >= last_cell[:, None]] = np.inf
    comp = np.repeat(labels, scenario.n_replications)  # per trajectory
    base = comp * (d + 1)
    absorbing = -1 if p.absorbing is None else p.absorbing
    steps = math.inf if scenario.stop_rule == ABSORBING_RULE else scenario.stop_rule + 1
    doomed = _cannot_absorb(probs, d, absorbing) if steps > _MAX_SIM_STATES else None
    running, rows = np.arange(comp.size, dtype=np.intp), base + d
    # (trajectory, state) per visit, step by step, as raw bytes: a
    # trajectory that runs to _MAX_SIM_STATES holds 16 bytes a visit.
    visitors, visited, sizes = bytearray(), bytearray(), []
    while running.size and len(sizes) < min(steps, _MAX_SIM_STATES):
        k = (cums[rows] <= rng.random(running.size)[:, None]).sum(axis=1, dtype=np.intp)
        visitors += running.tobytes()
        visited += k.tobytes()
        sizes.append(running.size)
        on = k != absorbing
        running = running[on]
        rows = base[running] + k[on]
        if doomed is not None and doomed[rows].any():
            raise NumericalError("simulation did not reach the absorbing state")
    if running.size and steps > _MAX_SIM_STATES:
        raise NumericalError("simulation did not reach the absorbing state")

    traj = np.frombuffer(visitors, dtype=np.intp)
    lengths = np.bincount(traj, minlength=comp.size)
    # A visit's place in panel order: its trajectory's start plus its step.
    place = (np.cumsum(lengths) - lengths)[traj] + np.repeat(np.arange(len(sizes)), sizes)
    states = np.empty_like(place)
    states[place] = np.frombuffer(visited, dtype=np.intp)
    live = states != absorbing
    cells = np.repeat(comp, lengths)[live], states[live]
    shape, scale = p.shape[cells], 1.0 / p.rate[cells]
    x = rng.gamma(shape, scale)
    redraw = np.flatnonzero(x <= 0.0)
    while redraw.size:  # underflow safety for tiny shapes
        x[redraw] = rng.gamma(shape[redraw], scale[redraw])
        redraw = redraw[x[redraw] <= 0.0]
    sojourns = np.full(states.size, _ABSORBING_PLACEHOLDER)
    sojourns[live] = x
    lengths = lengths.reshape(scenario.n_subjects, scenario.n_replications)
    return Panel.from_arrays(model.space, states, sojourns, lengths), labels


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    """Aggregates of a Monte-Carlo benchmark run.

    ``values`` maps metric names to per-replicate arrays (NaN where a
    metric was unavailable); ``histograms`` maps selection criteria to
    chosen-component-count counts when a sweep was requested.
    """

    scenario: Scenario
    values: dict
    histograms: dict
    warnings: tuple[str, ...]

    def table(self) -> dict:
        """Metric name -> (mean, sd) over the replicates where defined."""
        out = {}
        for name, arr in self.values.items():
            arr = np.asarray(arr, dtype=np.float64)
            ok = arr[~np.isnan(arr)]
            if ok.size == 0:
                continue
            sd = float(ok.std(ddof=1)) if ok.size > 1 else 0.0
            out[name] = (float(ok.mean()), sd)
        return out


def _recovery_metrics(truth: MixtureModel, report: FitReport, true_labels, km_labels):
    """Recovery of ``truth`` by a fit, and the classification rate of the
    k-means labels the fit was initialized from."""
    model = report.model
    out = {}
    perm = align_components(truth, model)
    for g, v in enumerate(err_by_component(truth, model, "alpha", perm)):
        out[f"err_alpha_{g + 1}"] = v
    for g, v in enumerate(err_by_component(truth, model, "trans", perm)):
        out[f"err_trans_{g + 1}"] = v
    out["err_shape"] = err_gamma(truth, model, "shape", perm)
    out["err_rate"] = err_gamma(truth, model, "rate", perm)
    out["pi_1"] = float(pi_recovery(truth.weights, model.weights, perm)[0])
    out["class_rate"] = classification_rate(true_labels, map_cluster(report.posteriors))
    out["kmeans_rate"] = classification_rate(true_labels, km_labels)
    out["iterations"] = float(report.iterations)
    out["converged"] = 1.0 if report.converged else 0.0
    return out


def _one_replicate(scenario, cfg, g_range, restarts, panel, true_labels, init_seed):
    truth = scenario.model
    out: dict[str, float] = {}
    warnings: list[str] = []

    if g_range is None:
        # One build serves the init and the fit.  The fit still goes through
        # this module's ``fit``, panel first: perfbench's tracer scores the
        # fits it captures there.
        stats = PanelStats.from_panel(panel)
        init, km_labels = initial_model(
            panel, truth.n_components, init_seed, restarts, cfg.min_obs_mass, stats
        )
        try:
            report = fit(panel, init, cfg, stats=stats)
            out["aborted"] = 0.0
        except EmptyComponent as exc:
            report = exc.report
            warnings.append(str(exc))
            out["aborted"] = 1.0
        except NumericalError as exc:
            # Last-resort: keep the benchmark alive, score nothing.
            warnings.append(f"replicate failed: {exc}")
            out["aborted"] = 1.0
            return out, warnings
        out.update(_recovery_metrics(truth, report, true_labels, km_labels))
    else:
        try:
            sweep = select_g(panel, g_range, replace(cfg, seed=init_seed), restarts=restarts)
        except NumericalError as exc:
            warnings.append(f"replicate failed: {exc}")
            return out, warnings
        warnings.extend(sweep.warnings)
        for name, choice in sweep.chosen.items():
            out[f"{name}_choice"] = float(choice)
        g = truth.n_components
        if g in sweep.reports:
            out.update(_recovery_metrics(truth, sweep.reports[g], true_labels,
                                         sweep.init_labels[g]))
    return out, warnings


def run_benchmark(
    scenario: Scenario,
    cfg: EmConfig,
    g_range: Optional[Sequence[int]] = None,
    restarts: int = RESTARTS,
) -> BenchmarkResult:
    """Simulate, initialize, fit and score ``scenario.replicate_count``
    independent datasets; optionally sweep component counts.

    Each replicate runs on its own named random stream spawned from the
    scenario seed, so a replicate's results do not depend on how many
    replicates run.  ``restarts`` and ``g_range`` are checked before any
    panel is drawn.  Each replicate's panel is drawn by
    :func:`simulate_panel` in this process, just before its fit.
    """
    if g_range is not None:
        g_range = _component_counts(g_range)
    check_count("restarts", restarts, 1)
    results = []
    for child in np.random.SeedSequence(scenario.seed).spawn(scenario.replicate_count):
        sim_ss, init_ss = child.spawn(2)
        panel, true_labels = simulate_panel(scenario, np.random.Generator(np.random.PCG64(sim_ss)))
        init_seed = int(init_ss.generate_state(1, dtype=np.uint64)[0])
        results.append(
            _one_replicate(scenario, cfg, g_range, restarts, panel, true_labels, init_seed)
        )

    names = dict.fromkeys(key for row, _ in results for key in row)
    values = {
        name: np.array([row.get(name, np.nan) for row, _ in results]) for name in names
    }
    histograms = {
        name.removesuffix("_choice"): dict(Counter(int(v) for v in values[name] if not np.isnan(v)))
        for name in names if name.endswith("_choice")
    }

    all_warnings: list[str] = []
    for i, (_, warns) in enumerate(results):
        all_warnings.extend(f"replicate {i}: {w}" for w in warns)
    return BenchmarkResult(
        scenario=scenario, values=values, histograms=histograms, warnings=tuple(all_warnings)
    )
