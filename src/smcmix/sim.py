"""Panel simulation and the Monte-Carlo benchmark harness.

Trajectories are simulated sequentially: first state from the initial
probabilities, then alternating gamma sojourn draws and transition draws
until the stop rule fires (a fixed transition count, or entry into the
absorbing state).  Benchmarks run many independent replicates, each on its
own random stream, and aggregate recovery metrics.  While this process
fits one replicate, a forked child process may draw the next replicate's
panel; it makes the same calls on the same stream, so results never
depend on where a panel was drawn.

The sequence of draws is part of the contract: the component labels from
one ``rng.choice``, then per trajectory one ``rng.random()`` per state and
one ``rng.gamma()`` per sojourn (more when a draw underflows to 0), in
order.  The golden files of the test suite and the seeds of the
acceptance tests rest on this stream, so a faster sampler must make the
same calls in the same order; ``tests/golden/sim_panels.json`` pins it.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import ComponentParams, MixtureModel, Panel, Trajectory, is_integer
from .em import EmConfig, FitReport, fit, map_cluster
from .errors import EmptyComponent, NumericalError
from .initialization import RESTARTS, _check_positive, _clustered_model
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
# Seconds a finished benchmark waits for its panel-drawing child to exit
# before killing it.
_JOIN_TIMEOUT_S = 1.0


@dataclass(frozen=True, eq=False)
class Scenario:
    """A simulation design: the generating mixture, panel dimensions, the
    stop rule (transition count or ``"absorbing"``), the master seed and
    the number of Monte-Carlo replicates.  Counts and the seed must be
    integers (not bools), the seed nonnegative."""

    model: MixtureModel
    n_subjects: int
    n_replications: int
    stop_rule: int | str
    seed: int
    replicate_count: int = 50
    name: Optional[str] = None

    def __post_init__(self):
        for name in ("n_subjects", "n_replications", "seed", "replicate_count"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if self.n_subjects < 1 or self.n_replications < 1:
            raise ValueError("need at least one subject and one replication")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        count, rule = self.replicate_count, self.stop_rule
        if count < 1:
            raise ValueError("replicate_count must be positive")
        if isinstance(rule, str):
            if rule != ABSORBING_RULE:
                raise ValueError(f"unknown stop rule {rule!r}")
            if self.model.space.absorbing is None:
                raise ValueError("absorbing stop rule needs an absorbing state")
        elif not is_integer(rule):
            raise ValueError(f"stop rule must be a transition count or {ABSORBING_RULE!r}")
        elif rule < 1:
            raise ValueError("transition count must be at least 1")


class _ComponentSampler:
    """One component's distributions, their cumulative sums, and its gamma
    shapes and scales, kept as Python lists: a simulation reads them one
    cell per scalar draw, which lists do far faster than small numpy
    arrays.  Row ``D`` of ``rows`` and ``cums`` is the initial
    distribution, so the first state is drawn as a transition out of a
    start row, by the same code."""

    def __init__(self, alpha, trans, shape, rate, absorbing):
        self.absorbing = absorbing
        self.rows = [*trans.tolist(), alpha.tolist()]
        self.cums = [*np.cumsum(trans, axis=1).tolist(), np.cumsum(alpha).tolist()]
        self.shapes = shape.tolist()
        self.scales = (1.0 / rate).tolist()

    def draw_into(self, stop_rule, rng: np.random.Generator, states: list, sojourns: list) -> None:
        """Draw one trajectory under the stop rule and append its states
        and sojourns to ``states`` and ``sojourns``."""
        random, gamma = rng.random, rng.gamma
        absorbing = -1 if self.absorbing is None else self.absorbing
        rows, cums = self.rows, self.cums
        shapes, scales = self.shapes, self.scales
        last = len(shapes) - 1
        # States a fixed transition count allows; absorption may end the
        # trajectory sooner, and no trajectory passes _MAX_SIM_STATES.
        steps = math.inf if stop_rule == ABSORBING_RULE else int(stop_rule) + 1
        j = last + 1  # the start row
        for _ in range(min(steps, _MAX_SIM_STATES)):
            # bisect_right picks the cell np.searchsorted(side="right")
            # picks, never a zero cell: np.cumsum adds a zero exactly, so
            # a zero cell's sum equals the one before it.  A row whose
            # sums round to just below 1 can leave u past them: clamp to
            # the last cell and walk back past zero cells.
            k = bisect_right(cums[j], random())
            if k > last:
                probs, k = rows[j], last
                while probs[k] == 0.0:
                    k -= 1
            j = k
            states.append(j)
            if j == absorbing:
                sojourns.append(_ABSORBING_PLACEHOLDER)
                return
            x = gamma(shapes[j], scales[j])
            while x <= 0.0:  # underflow safety for tiny shapes
                x = gamma(shapes[j], scales[j])
            sojourns.append(x)
        if steps > _MAX_SIM_STATES:
            raise NumericalError("simulation did not reach the absorbing state")

    def draw(self, stop_rule, rng: np.random.Generator) -> Trajectory:
        states: list[int] = []
        sojourns: list[float] = []
        self.draw_into(stop_rule, rng, states, sojourns)
        return Trajectory(states=np.asarray(states), sojourns=np.asarray(sojourns))


def simulate_trajectory(comp: ComponentParams, stop_rule, rng: np.random.Generator) -> Trajectory:
    """Draw one trajectory from one renewal process under the stop rule."""
    sampler = _ComponentSampler(comp.alpha, comp.trans, *comp.sojourn_arrays(), comp.absorbing)
    return sampler.draw(stop_rule, rng)


def simulate_panel(
    scenario: Scenario, rng: Optional[np.random.Generator] = None
) -> tuple[Panel, np.ndarray]:
    """Simulate a full panel; every replication of a subject shares the
    subject's mixture component.  Returns the panel and the true labels."""
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(scenario.seed)))
    model, p = scenario.model, scenario.model.params
    labels = rng.choice(model.n_components, size=scenario.n_subjects, p=p.weights)
    samplers = [_ComponentSampler(*rows, p.absorbing) for rows in zip(*p[1:5])]
    b = scenario.n_replications
    # Every trajectory is drawn into one pair of lists, the panel's store.
    states: list[int] = []
    sojourns: list[float] = []
    ends = [0]
    for g in labels.tolist():
        draw_into = samplers[g].draw_into
        for _ in range(b):
            draw_into(scenario.stop_rule, rng, states, sojourns)
            ends.append(len(states))
    lengths = np.diff(ends).reshape(scenario.n_subjects, b)
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


def _generator(stream: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(stream))


def _fork_pays(n_replicates: int) -> bool:
    """Whether drawing panels in a forked child is safe and can pay: at
    least 2 replicates and 2 usable CPUs, no second thread (fork is unsafe
    in a threaded process) and a platform with the ``fork`` start method."""
    if n_replicates < 2 or threading.active_count() != 1:
        return False
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _draw_ahead(scenario: Scenario, streams, receiver, sender) -> None:
    """The child process: send each stream's ``(panel, labels)`` in order,
    or the exception drawing it raised, and then stop.  The pipe's buffer
    blocks it about one panel ahead of the parent."""
    # A terminal's Ctrl-C reaches both processes: the parent handles it
    # and ends this one.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    receiver.close()  # so that the parent's close breaks the pipe
    try:
        for stream in streams:
            try:
                drawn = simulate_panel(scenario, _generator(stream))
            except Exception as exc:
                sender.send(exc)
                return
            sender.send(drawn)
    except BrokenPipeError:  # the parent stopped reading
        pass


def _drawn_panels(scenario: Scenario, streams):
    """Yield ``simulate_panel(scenario, Generator(PCG64(stream)))`` for each
    stream in order.  When :func:`_fork_pays`, a forked child draws them
    one panel ahead while the caller works, and an exception it raises is
    raised here at the same stream; if the child ends without a panel, the
    rest are drawn here.  Close the generator to end the child early."""
    if not _fork_pays(len(streams)):
        for stream in streams:
            yield simulate_panel(scenario, _generator(stream))
        return
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_draw_ahead, args=(scenario, streams, receiver, sender),
                        daemon=True)
    child.start()
    sender.close()
    try:
        for stream in streams:
            try:
                drawn = receiver.recv()
            except EOFError:  # the child died: draw the panel here
                drawn = simulate_panel(scenario, _generator(stream))
            if isinstance(drawn, Exception):
                raise drawn
            yield drawn
    finally:
        receiver.close()
        child.join(_JOIN_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()


def _one_replicate(scenario, cfg, g_range, restarts, drawn, init_seed):
    panel, true_labels = drawn
    truth = scenario.model
    out: dict[str, float] = {}
    warnings: list[str] = []

    if g_range is None:
        init, km_labels = _clustered_model(
            panel, truth.n_components, init_seed, restarts, cfg.min_obs_mass
        )
        try:
            report = fit(panel, truth.n_components, init, cfg)
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
    panel is drawn.  With at least 2 replicates, 2 usable CPUs, the
    ``fork`` start method and no second thread, a forked child process
    draws each replicate's panel while this process fits the one before;
    it makes the same calls on the same streams, so the results never
    depend on it.  The fits stay in this process, and the child never
    outlives the call.
    """
    if g_range is not None:
        g_range = _component_counts(g_range)
    _check_positive("restarts", restarts)
    streams, init_seeds = [], []
    for child in np.random.SeedSequence(scenario.seed).spawn(scenario.replicate_count):
        sim_ss, init_ss = child.spawn(2)
        streams.append(sim_ss)
        init_seeds.append(int(init_ss.generate_state(1, dtype=np.uint64)[0]))
    with contextlib.closing(_drawn_panels(scenario, streams)) as panels:
        results = [_one_replicate(scenario, cfg, g_range, restarts, drawn, init_seed)
                   for drawn, init_seed in zip(panels, init_seeds)]

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
