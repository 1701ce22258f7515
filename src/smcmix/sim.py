"""Panel simulation and the Monte-Carlo benchmark harness.

Trajectories are simulated sequentially: first state from the initial
probabilities, then alternating gamma sojourn draws and transition draws
until the stop rule fires (a fixed transition count, or entry into the
absorbing state).  Benchmarks run many independent replicates, each on its
own random stream, and aggregate recovery metrics.  A forked child
process may draw the panels ahead while this process fits them, through
a pipe raised to 1 MB (the 64 KB default where that fails).  When the
next panel is not in the pipe, this process draws the next panel nobody
has taken instead of waiting, holding at most ``_HELD_CAP`` panels drawn
ahead.  Each panel is drawn once, by one of the two processes, with the
same calls on the same stream, so results never depend on who drew it.

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

from .core import ComponentParams, MixtureModel, Panel, Trajectory, check_count, is_integer
from .em import EmConfig, FitReport, fit, map_cluster
from .errors import EmptyComponent, NumericalError
from .initialization import RESTARTS, _clustered_model
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
# before killing it, and the child waits for the claim lock before it stops.
_JOIN_TIMEOUT_S = 1.0
# Buffer asked for the panel pipe, Linux's default pipe-max-size: a
# 200-subject panel pickles to about 112 KB, more than the default 64 KB,
# so with the default each send waits for the caller to read the panel.
_PIPE_BYTES = 1 << 20
# Panels the caller may hold that it drew ahead of the replicate it fits
# (about 120 KB each at 200 subjects); at the cap it waits for the child.
_HELD_CAP = 4


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
        steps = math.inf if stop_rule == ABSORBING_RULE else stop_rule + 1
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
    _check_stop_rule(stop_rule, comp.absorbing)
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


def _claim(claimed, lock, n: int, timeout: float) -> Optional[int]:
    """Take the next stream that no process has taken, counting them in
    ``claimed``: its index, or None when all ``n`` are taken or ``lock``
    stays held for ``timeout`` seconds."""
    if not lock.acquire(timeout=timeout):
        return None
    try:
        i = claimed.value
        if i == n:
            return None
        claimed.value = i + 1
        return i
    finally:
        lock.release()


def _widen(conn) -> None:
    """Raise the buffer of the pipe behind ``conn`` to ``_PIPE_BYTES``;
    keep the default where ``F_SETPIPE_SZ`` fails or, as off Linux, does
    not exist."""
    import fcntl

    try:
        fcntl.fcntl(conn.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):
        pass


def _draw_ahead(scenario: Scenario, streams, claimed, lock, receiver, sender) -> None:
    """The child process: take the next untaken stream, draw it and send
    its ``(panel, labels)``, or the exception drawing it raised and then
    stop; stop too when every stream is taken.  The caller takes a stream
    only when it would otherwise wait, so the child draws most panels; the
    1 MB pipe lets it run about 8 panels of 200 subjects ahead, where the
    64 KB default makes each send wait for the caller to read."""
    # A terminal's Ctrl-C reaches both processes: the parent handles it
    # and ends this one.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    receiver.close()  # so that the parent's close breaks the pipe
    try:
        # A lock held past the timeout means the parent is gone or stalled:
        # stopping leaves the rest to the parent's EOF path.
        while (i := _claim(claimed, lock, len(streams), _JOIN_TIMEOUT_S)) is not None:
            try:
                drawn = simulate_panel(scenario, _generator(streams[i]))
            except Exception as exc:
                sender.send(exc)
                return
            sender.send(drawn)
    except BrokenPipeError:  # the parent stopped reading
        pass


def _drawn_panels(scenario: Scenario, streams):
    """Yield ``simulate_panel(scenario, Generator(PCG64(stream)))`` for each
    stream in order.  When :func:`_fork_pays`, a forked child and the caller
    share the draws: both take the next untaken stream from one counter, the
    child whenever it is free, the caller only when its next panel is not in
    the pipe and it holds fewer than ``_HELD_CAP`` panels drawn ahead.  An
    exception either raises in a draw is raised here at its own stream; if
    the child ends without a panel, the rest are drawn here.  Close the
    generator to end the child early."""
    if not _fork_pays(len(streams)):
        for stream in streams:
            yield simulate_panel(scenario, _generator(stream))
        return
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    _widen(receiver)
    claimed, lock = ctx.RawValue("q", 0), ctx.Lock()
    child = ctx.Process(target=_draw_ahead,
                        args=(scenario, streams, claimed, lock, receiver, sender), daemon=True)
    child.start()
    sender.close()
    held = {}  # stream index -> what this process drew for it ahead
    try:
        for i, stream in enumerate(streams):
            # The child sends its streams in order, so while this process
            # does not hold panel i, panel i is the next the pipe delivers.
            # A pipe the child closed polls as ready and ends the claims.
            while i not in held and len(held) < _HELD_CAP and not receiver.poll():
                j = _claim(claimed, lock, len(streams), 0.0)
                if j is None:
                    break
                try:
                    held[j] = simulate_panel(scenario, _generator(streams[j]))
                except Exception as exc:  # raised when the fits reach it
                    held[j] = exc
            if i in held:
                drawn = held.pop(i)
            else:
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
    draws the panels ahead while this process fits them, and this process
    draws the next untaken panel itself whenever it would wait; each panel
    is drawn once, with the same calls on the same stream, so the results
    never depend on who drew it.  The fits stay in this process, and the
    child never outlives the call.
    """
    if g_range is not None:
        g_range = _component_counts(g_range)
    check_count("restarts", restarts, 1)
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
