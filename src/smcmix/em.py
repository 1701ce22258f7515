"""Penalized EM driver for mixtures of semi-Markov chains.

One EM map alternates the responsibility update (E-step, computed in log
space, rounded to a configurable quantum and renormalized) with three
closed-form or one-dimensional M-step updates: mixture weights, initial
and transition probabilities, and per-state gamma sojourn parameters under
the shape penalty; :func:`fit` accelerates the maps with SQUAREM.
Clustering is read off the final responsibilities with the maximum a
posteriori rule.

The parameters are carried between maps as one set of arrays
(:class:`~smcmix.core.MixtureArrays`: weights, initial and transition
probabilities, gamma shapes and rates), the form a :class:`MixtureModel`
stores: a fit starts from its initial model's arrays, checks each M-step's
against the model invariants and returns the last through
:meth:`MixtureModel.from_arrays`.  One subject log-likelihood matrix per
parameter set, extrapolated ones included, gives both its objective and
the next responsibilities; both stay component-major (Fortran order), so
per-subject reductions over components read contiguous memory.  Each
M-step takes its totals from one product of the responsibilities with a
block of the statistics table, and the sojourn step solves every
component-by-state gamma shape in one array solver call.  The M-step is
arithmetic only: which fallback fired where (a uniform transition row,
or a pooled gamma fit for a starved, degenerate or off-bracket state) is
returned as a mask and a code per cell, and one renderer turns a fit's
codes into its warnings and its pooled-fit error.

The EM runs a stack of fits on one panel, each with its own number of
components (:func:`fit_stack`); :func:`fit` is a stack of one.  Each fit
is one generator loop over its SQUAREM cycles that pauses at every
M-step, yielding its responsibilities.  The fits move in lockstep: every
round each live fit runs on to its next map, and the M-steps of all of
them share one shape-solver call and one normalisation of the stacked
component arrays.  Matrix products, reductions over components,
objectives and the keep-or-reject bookkeeping stay per fit, so a fit in a
stack computes bit for bit what it computes alone.  A fit leaves the
stack when it converges, runs out of maps, aborts on a starved component
or raises; its error is kept with it rather than stopping the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import MixtureArrays, MixtureModel, Panel, PosteriorMatrix, check_count
from .errors import (
    AllComponentsImpossible,
    EmptyComponent,
    InvalidModelError,
    NumericalError,
)
from .likelihood import (
    PanelStats,
    log_scores,
    penalty_term,
    penalty_weight,
    subject_loglik_matrix,
)
from .sojourn import DEGENERATE, OK, solve_shapes, status_error

# Ascent slack per EM step; covers responsibility quantization.
ASCENT_SLACK = 1e-7

# Consecutive iterations a component may hold less than one subject of
# responsibility before the fit aborts.
_EMPTY_STREAK_LIMIT = 3


def _check_z_round(z_round: float) -> None:
    if not (z_round == 0.0 or 0.0 < z_round <= 0.1):
        raise ValueError("z_round must be 0 or in (0, 0.1]")


@dataclass(frozen=True)
class EmConfig:
    """Tuning knobs of the EM driver.

    ``max_iter`` bounds the EM maps of a fit, extrapolated ones included.
    ``rel_tol`` is the relative objective change of one map below which a
    fit has converged.  ``z_round`` quantizes responsibilities so that
    near-zero weights drop out of the gamma fits; ``min_obs_mass`` is the
    number of weight-carrying observations a state must exceed to get its
    own gamma fit instead of the component-pooled one.  ``penalized``
    selects the shape-penalized objective over the plain likelihood.
    ``seed`` is read only by :func:`~smcmix.selection.select_g`, which
    seeds its k-means inits with it; :func:`fit` ignores it.  ``max_iter``,
    ``min_obs_mass`` and ``seed`` are counts (:func:`~smcmix.core.check_count`).
    """

    max_iter: int = 100
    rel_tol: float = 1e-8
    z_round: float = 1e-4
    min_obs_mass: int = 7
    penalized: bool = True
    seed: int = 0

    def __post_init__(self):
        check_count("max_iter", self.max_iter, 1)
        check_count("min_obs_mass", self.min_obs_mass, 0)
        check_count("seed", self.seed, 0)
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")
        _check_z_round(self.z_round)


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of one EM run.

    ``objective_trace[0]`` is the objective of the starting model and each
    further entry follows one kept step: a plain EM map or a kept
    extrapolation.  The trace is non-decreasing up to a 1e-7 slack per step
    whenever the two small-sample safeguards (responsibility rounding and
    the pooled gamma fallback) stay inactive; when a safeguard does force a
    dip it is recorded in ``warnings``, never silently.  ``iterations``
    counts EM maps; ``extrapolations_tried`` counts the extrapolated
    parameter sets evaluated (not those dropped for breaking an
    invariant), ``extrapolations_kept`` those whose map was kept.
    ``loglik`` is the plain (unpenalized) mixture log-likelihood of
    ``model``, the value the information criteria read; it equals
    :func:`~smcmix.likelihood.mixture_loglik` of the panel under ``model``.
    """

    model: MixtureModel
    posteriors: PosteriorMatrix
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool
    loglik: float
    warnings: tuple[str, ...] = field(default_factory=tuple)
    extrapolations_tried: int = 0
    extrapolations_kept: int = 0

    def __post_init__(self):
        trace = tuple(float(v) for v in self.objective_trace)
        object.__setattr__(self, "objective_trace", trace)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def monotone(self) -> bool:
        """True when the trace never dips below the per-step slack."""
        deltas = np.diff(np.asarray(self.objective_trace))
        return bool(deltas.size == 0 or float(deltas.min()) >= -ASCENT_SLACK)


def _round_responsibilities(z: np.ndarray, z_round: float) -> np.ndarray:
    if z_round == 0.0:
        return z
    z = np.round(z / z_round) * z_round
    sums = z.sum(axis=1)
    if np.any(sums <= 0.0):
        raise NumericalError(
            "a responsibility row vanished after rounding; z_round is too "
            "coarse for this many components"
        )
    return z / sums[:, None]


def _responsibilities(scores: np.ndarray, norms: np.ndarray, z_round: float) -> np.ndarray:
    dead = ~np.isfinite(norms)
    if np.any(dead):
        raise AllComponentsImpossible(int(np.flatnonzero(dead)[0]))
    with np.errstate(invalid="ignore"):
        z = np.exp(scores - norms[:, None])
    return _round_responsibilities(z, z_round)


def e_step(panel: Panel, model: MixtureModel, z_round: float = EmConfig.z_round) -> PosteriorMatrix:
    """Posterior component responsibilities of every subject (Bayes rule in
    log space), rounded to multiples of ``z_round`` and renormalized.
    Raises ``ValueError`` when the model's state space is not the panel's."""
    _check_z_round(z_round)
    if model.space != panel.space:
        raise ValueError("model is defined on a different state space")
    stats = PanelStats.from_panel(panel)
    scores, norms = log_scores(subject_loglik_matrix(stats, model.params), model.weights)
    return PosteriorMatrix(_responsibilities(scores, norms, z_round))


# Why a (component, state) cell of an M-step took its component's pooled
# gamma fit (``_MStep.pooled``): not at all, too few weight-carrying
# observations, a degenerate sample or a shape off the search bracket.
OWN_FIT, POOLED_FALLBACK, DEGENERATE_FIT, BRACKET_EXHAUSTED = range(4)
# The code of a fitted cell, indexed by its own fit's solver status: every
# status but OK and DEGENERATE means the shape search failed.
_FITTED_CODE = np.full(4, BRACKET_EXHAUSTED)
_FITTED_CODE[[OK, DEGENERATE]] = OWN_FIT, DEGENERATE_FIT

_POOLED_MESSAGES = {
    POOLED_FALLBACK: "state {name} has {n} weight-carrying observations; pooled fallback",
    DEGENERATE_FIT: "degenerate sojourn sample in state {name}; pooled fallback",
    BRACKET_EXHAUSTED: "sojourn fit for state {name} left the shape bracket; pooled fallback",
}


class _MStep(NamedTuple):
    """The M-step of a stack, one row per component of every fit in order:
    the parameters (shape and rate NaN in the absorbing column), the
    fallbacks as a mask of the rows set to uniform and a ``pooled`` code
    per cell, each cell's weight-carrying observation count, and the
    solver status of each component's pooled fit."""

    alpha: np.ndarray
    trans: np.ndarray
    shape: np.ndarray
    rate: np.ndarray
    never_left: np.ndarray
    pooled: np.ndarray
    n_obs: np.ndarray
    pool_status: np.ndarray


def _m_step(stats: PanelStats, zs, penalty_c: float, min_obs_mass: int, z_round: float) -> _MStep:
    """The M-step of the fits whose responsibilities are ``zs``: weighted
    initial-state and transition frequencies, and per-state penalized gamma
    fits of the sojourn times.  A state never left gets a uniform row, so
    the next E-step cannot hit an artificial structural zero.  A state with
    at most ``min_obs_mass`` weight-carrying observations takes its
    component's fit pooled over all states, as does a degenerate state or
    one whose shape leaves the search bracket.  Every column of every ``z``
    carries mass: a fit aborts before an M-step on an empty component."""
    d = stats.n_states
    # Two products per fit, one per table block: a stacked one could round differently.
    chain = np.concatenate([z.T @ stats.table[:, : d + d * d] for z in zs])
    n_comp = chain.shape[0]
    alpha, rows = chain[:, :d], chain[:, d:].reshape(n_comp, d, d)
    totals = rows.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha /= alpha.sum(axis=1, keepdims=True)
        trans = rows / totals[:, :, None]
        trans[:, np.arange(d), np.arange(d)] = 0.0
        trans /= trans.sum(axis=2, keepdims=True)
    never_left = totals <= 0.0
    if stats.absorbing is not None:
        never_left[:, stats.absorbing] = False
        trans[:, stats.absorbing] = 0.0
    trans = np.where(never_left[:, :, None], (1.0 - np.eye(d)) / (d - 1), trans)

    sojourns = np.concatenate([z.T @ stats.table[:, d + d * d :] for z in zs])
    slog, sw, sx = sojourns.reshape(n_comp, 3, d).transpose(1, 0, 2)
    n_obs = np.concatenate([(z > z_round).astype(np.float64).T @ stats.soj_counts for z in zs])
    fitted = n_obs > min_obs_mass  # never the absorbing state: it has no sojourns
    # One solver call: the fitted cells in row-major order, then one
    # pooled cell per component.
    cell_sw, cell_slog, cell_sx = (
        np.concatenate([m[fitted], m.sum(axis=1)]) for m in (sw, slog, sx)
    )
    cell_shape, status = solve_shapes(cell_sw, cell_slog, cell_sx, penalty_c)
    cell_rate = cell_shape * cell_sw / cell_sx
    n_fit = int(fitted.sum())

    shape, rate = np.full((2, n_comp, d), np.nan)
    pooled = np.full((n_comp, d), POOLED_FALLBACK)
    shape[fitted], rate[fitted] = cell_shape[:n_fit], cell_rate[:n_fit]
    pooled[fitted] = _FITTED_CODE[status[:n_fit]]
    if stats.absorbing is not None:
        pooled[:, stats.absorbing] = OWN_FIT
    shape = np.where(pooled != OWN_FIT, cell_shape[n_fit:, None], shape)
    rate = np.where(pooled != OWN_FIT, cell_rate[n_fit:, None], rate)
    return _MStep(alpha, trans, shape, rate, never_left, pooled, n_obs, status[n_fit:])


def _fallbacks(step: _MStep, rows: slice, labels) -> tuple[list[str], Exception | None]:
    """The warnings of the fit that owns ``rows`` of ``step``, its
    components numbered from 0 and its states named by ``labels``: the
    uniform transition rows, then the pooled cells, each in row-major
    order.  Also the failure of the first pooled fit one of its states
    needed, or None."""
    warnings = [f"component {g}: state {labels[h]} never left; transition row set to uniform"
                for g, h in zip(*np.nonzero(step.never_left[rows]))]
    pooled, n_obs, pool_status = step.pooled[rows], step.n_obs[rows], step.pool_status[rows]
    error = None
    for g, j in zip(*np.nonzero(pooled)):
        text = _POOLED_MESSAGES[pooled[g, j]].format(name=labels[j], n=int(n_obs[g, j]))
        warnings.append(f"component {g}: {text}")
        if error is None and pool_status[g] != OK:
            cause = status_error(pool_status[g])
            error = type(cause)(f"component {g} pooled sojourn fit: {cause}")
            error.__cause__ = cause
    return warnings, error


def _project(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``x`` shaped as ``ref``, zero where ``ref`` is, clipped positive elsewhere
    and renormalised along the last axis (an all-zero row stays zero)."""
    x = np.where(ref > 0.0, np.maximum(x.reshape(ref.shape), np.finfo(float).tiny), 0.0)
    sums = x.sum(axis=-1, keepdims=True)
    return x / np.where(sums > 0.0, sums, 1.0)


def _extrapolate(p0: MixtureArrays, p1: MixtureArrays, p2: MixtureArrays) -> MixtureArrays:
    """The S3 SQUAREM point of two successive EM maps ``p0 -> p1 -> p2``
    (Varadhan & Roland, Scand. J. Stat. 2008), projected onto the zero
    pattern of ``p2``.  Unchecked: an extreme step leaves NaN or infinite
    values for :meth:`MixtureArrays.check` to reject."""
    live = p2.live

    def coords(p: MixtureArrays) -> np.ndarray:
        # probabilities raw, live gamma parameters in log coordinates
        return np.concatenate([p.weights, p.alpha.ravel(), p.trans.ravel(),
                               np.log(np.where(live, p.shape, 1.0)).ravel(),
                               np.log(np.where(live, p.rate, 1.0)).ravel()])

    c0, c1, c2 = map(coords, (p0, p1, p2))
    r, v = c1 - c0, c2 - 2.0 * c1 + c0
    v_norm = float(np.linalg.norm(v))
    step = min(-float(np.linalg.norm(r)) / v_norm, -1.0) if v_norm > 0.0 else -1.0
    n_comp, d = p2.alpha.shape
    with np.errstate(over="ignore", invalid="ignore"):
        c = c0 - 2.0 * step * r + step * step * v
        weights, alpha, trans, shape, rate = np.split(
            c, np.cumsum([n_comp, n_comp * d, n_comp * d * d, n_comp * d])
        )
        shape, rate = (np.where(live, np.exp(x.reshape(n_comp, d)), np.nan) for x in (shape, rate))
        return MixtureArrays(_project(weights, p2.weights), _project(alpha, p2.alpha),
                             _project(trans, p2.trans), shape, rate, p2.absorbing)


class _Point(NamedTuple):  # a parameter set with its objective and log scores
    params: MixtureArrays
    value: float
    scores: np.ndarray
    norms: np.ndarray


class _Stack:
    """What the fits of one stack share: the panel's state space and
    statistics, the configuration and the penalty weight."""

    def __init__(self, panel: Panel, stats: PanelStats, cfg: EmConfig):
        self.space, self.stats, self.cfg = panel.space, stats, cfg
        self.c = penalty_weight(panel) if cfg.penalized else 0.0

    def evaluate(self, p: MixtureArrays) -> _Point:
        # One likelihood matrix per parameter set serves both its
        # objective and the E-step that follows it.
        scores, norms = log_scores(subject_loglik_matrix(self.stats, p), p.weights)
        value = float(norms.sum())
        if self.cfg.penalized:
            value += penalty_term(p, self.c)
        return _Point(p, value, scores, norms)

    def m_step(self, zs) -> list:
        """One M-step per responsibility matrix of ``zs``: each fit's
        checked parameters with its warnings, or the error it raised."""
        cfg = self.cfg
        step = _m_step(self.stats, zs, self.c, cfg.min_obs_mass, cfg.z_round)
        out = []
        stop = 0
        for z in zs:
            rows = slice(stop, stop + z.shape[1])
            stop = rows.stop
            warnings, error = _fallbacks(step, rows, self.space.labels)
            if error is None:
                params = MixtureArrays(z.sum(axis=0) / z.shape[0], step.alpha[rows],
                                       step.trans[rows], step.shape[rows], step.rate[rows],
                                       self.space.absorbing)
                try:
                    params.check()
                except InvalidModelError as exc:
                    error = exc
            out.append((params, warnings) if error is None else error)
        return out


def _run(stack: _Stack, init: MixtureModel):
    """One fit of a stack, the SQUAREM cycles of :func:`fit` as a generator:
    it yields the responsibilities of each EM map, takes back the M-step's
    ``(params, warnings)`` or has its error thrown in at the ``yield``, and
    returns its :class:`FitReport`."""
    cfg = stack.cfg
    warnings: dict[str, None] = {}
    empty_streak = np.zeros(init.n_components, dtype=int)
    iterations = tried = kept = 0
    converged = False
    path = [stack.evaluate(init.params)]  # the kept points since the last extrapolation
    trace = [path[0].value]

    def report(point: _Point, z: np.ndarray, n_maps: int, converged: bool) -> FitReport:
        return FitReport(MixtureModel.from_arrays(stack.space, point.params), PosteriorMatrix(z),
                         tuple(trace), n_maps, converged, float(point.norms.sum()),
                         tuple(warnings), tried, kept)

    while not converged and iterations < cfg.max_iter:
        if len(path) < 3:  # the plain map of the last kept point
            point = path[-1]
            iterations += 1
            z = _responsibilities(point.scores, point.norms, cfg.z_round)
            ng = z.sum(axis=0)
            empty_streak = np.where(ng < 1.0, empty_streak + 1, 0)
            # the aborting map never completed its M-step
            if np.any(ng == 0.0):
                starved = int(np.argmin(ng))
                warnings[f"aborted: component {starved} has no subjects"] = None
                raise EmptyComponent(starved, report=report(point, z, iterations - 1, False))
            if np.any(empty_streak >= _EMPTY_STREAK_LIMIT):
                starved = int(np.argmax(empty_streak))
                warnings[f"aborted: component {starved} starved for "
                         f"{_EMPTY_STREAK_LIMIT} iterations"] = None
                raise EmptyComponent(starved, report=report(point, z, iterations - 1, False))
            params, msgs = yield z
            new = stack.evaluate(params)
            warnings.update(dict.fromkeys(msgs))
            trace.append(new.value)
            if new.value < point.value - ASCENT_SLACK:
                warnings[f"objective decreased by {point.value - new.value:.3e} at iteration "
                         f"{iterations} (small-sample safeguard side effect)"] = None
            converged = _small_change(new.value, point.value, cfg.rel_tol)
            path.append(new)
            continue
        # The end of a cycle: map p' extrapolated from p0 -> p1 -> p2, or
        # fall back to p2, whose plain map comes next.
        p0, p1, p2 = path
        path = [p2]
        jump = _extrapolate(p0.params, p1.params, p2.params)
        try:
            jump.check()
        except InvalidModelError:
            continue
        with np.errstate(all="ignore"):  # extreme shapes may overflow the gamma terms
            at_jump = stack.evaluate(jump)
        tried += 1
        if not np.isfinite(at_jump.value):
            continue
        z = _responsibilities(at_jump.scores, at_jump.norms, cfg.z_round)
        if z.sum(axis=0).min() < 1.0:
            continue
        iterations += 1
        params, msgs = yield z
        new = stack.evaluate(params)
        if new.value >= p2.value:  # the map of p' beats p2
            kept += 1
            empty_streak[:] = 0  # every component held a subject at p'
            warnings.update(dict.fromkeys(msgs))
            trace.append(new.value)
            path = [new]
            converged = _small_change(new.value, at_jump.value, cfg.rel_tol)
    point = path[-1]
    return report(point, _responsibilities(point.scores, point.norms, cfg.z_round),
                  iterations, converged)


def _small_change(new: float, old: float, rel_tol: float) -> bool:
    return abs(new - old) / (abs(new) + 1.0) < rel_tol


def fit_stack(
    panel: Panel, stats: PanelStats, inits, cfg: EmConfig
) -> list[FitReport | Exception]:
    """Run one EM fit from each model of ``inits`` on ``panel``, whose
    statistics are ``stats``, in lockstep; each fit is the run
    :func:`fit` describes.

    Each fit is a generator (:func:`_run`) that pauses at every M-step.
    Every round, each live fit is sent its M-step result (nothing at
    first) or has its M-step error thrown in, and runs on to the
    responsibilities of its next map; then all of them share one M-step
    (one shape-solver call over the cells of every fit, the normalisations
    on stacked arrays).  Matrix products stay per fit, so each fit
    computes exactly what it computes alone.  A fit leaves the stack when
    it returns, on convergence or after ``cfg.max_iter`` maps, or raises;
    the result holds, per init, its report or its error (an
    :class:`EmptyComponent` abort carries its partial report).
    """
    for init in inits:
        if init.space != panel.space:
            raise ValueError("init is defined on a different state space")
    stack = _Stack(panel, stats, cfg)
    runs = [_run(stack, init) for init in inits]
    outcomes: list = [None] * len(runs)
    results = dict.fromkeys(range(len(runs)))  # what each live fit is sent next
    while results:
        zs = {}
        for k, result in results.items():
            step = runs[k].throw if isinstance(result, Exception) else runs[k].send
            try:
                zs[k] = step(result)
            except StopIteration as done:
                outcomes[k] = done.value
            except Exception as exc:
                outcomes[k] = exc
        results = dict(zip(zs, stack.m_step(list(zs.values())))) if zs else {}
    return outcomes


def fit(panel: Panel, init: MixtureModel, cfg: EmConfig) -> FitReport:
    """Run the SQUAREM-accelerated penalized EM from ``init`` until the
    relative objective change of an EM map falls below ``cfg.rel_tol`` or
    ``cfg.max_iter`` EM maps have run: a stack of one fit
    (:func:`fit_stack`).

    Each cycle maps ``p0 -> p1 -> p2``, extrapolates ``p'`` from the three
    and keeps ``p''``, the map of ``p'``, when its objective is at least
    that of ``p2``; it keeps ``p2`` otherwise, or when ``p'`` breaks an
    invariant, has a non-finite objective or leaves a component less than
    one subject.  The maps ``p0 -> p1``, ``p1 -> p2`` and a kept
    ``p' -> p''`` are tested against ``cfg.rel_tol``.

    The reported objective is the penalized log-likelihood when
    ``cfg.penalized`` and the plain mixture log-likelihood otherwise; its
    trace includes the starting model.  A per-state gamma fit whose shape
    leaves the search bracket is replaced by the component-pooled fit with
    a warning (the same fallback used for starved states), so only a
    failure of the pooled fit itself propagates, its message naming the
    component: as :class:`~smcmix.errors.DegenerateSample` when the pooled
    sample has numerically zero variance and no penalty applies, and as
    :class:`NonConvergence` when the pooled shape search fails.  Aborts with
    :class:`EmptyComponent` (carrying the partial report) when a component
    keeps less than one subject of responsibility for three consecutive
    maps of the kept path, or loses all mass outright.  An M-step whose
    parameters break an invariant of the model types raises
    :class:`~smcmix.errors.InvalidModelError` in that map.  The fit has
    ``init``'s number of components.
    """
    (outcome,) = fit_stack(panel, PanelStats.from_panel(panel), [init], cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def map_cluster(z: PosteriorMatrix) -> np.ndarray:
    """Maximum a posteriori component per subject (ties go to the lowest
    component index)."""
    return np.argmax(z.z, axis=1)
