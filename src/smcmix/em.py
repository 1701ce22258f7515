"""Penalized EM driver for mixtures of semi-Markov chains.

One iteration alternates the responsibility update (E-step, computed in
log space, rounded to a configurable quantum and renormalized) with three
closed-form or one-dimensional M-step updates: mixture weights, initial
and transition probabilities, and per-state gamma sojourn parameters under
the shape penalty.  Clustering is read off the final responsibilities with
the maximum a posteriori rule.

The parameters are carried between iterations as one set of arrays
(:class:`~smcmix.core.MixtureArrays`: weights, initial and transition
probabilities, gamma shapes and rates), checked after every M-step against
the invariants of the model objects; the :class:`MixtureModel` is built
once, when the fit returns or aborts.  One subject log-likelihood matrix
per parameter set gives both its objective and the next responsibilities,
and each M-step solves every component-by-state gamma shape in one array
solver call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MixtureArrays, MixtureModel, Panel, PosteriorMatrix
from .errors import (
    AllComponentsImpossible,
    EmptyComponent,
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

    ``max_iter`` defaults to 100; complex fits (all transitions possible)
    may need 400.  ``z_round`` quantizes responsibilities so that near-zero
    weights drop out of the gamma fits; ``min_obs_mass`` is the number of
    weight-carrying observations a state needs before it gets its own
    gamma fit instead of the component-pooled one.
    """

    max_iter: int = 100
    rel_tol: float = 1e-8
    z_round: float = 1e-4
    min_obs_mass: int = 7
    penalized: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")
        _check_z_round(self.z_round)
        if self.min_obs_mass < 0:
            raise ValueError("min_obs_mass must be nonnegative")


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of one EM run.

    ``objective_trace[0]`` is the objective of the starting model and each
    further entry follows one EM iteration.  The trace is non-decreasing up
    to a 1e-7 slack per step whenever the two small-sample safeguards
    (responsibility rounding and the pooled gamma fallback) stay inactive;
    when a safeguard does force a dip it is recorded in ``warnings``,
    never silently.
    """

    model: MixtureModel
    posteriors: PosteriorMatrix
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool
    warnings: tuple[str, ...] = field(default_factory=tuple)

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


def e_step(panel: Panel, model: MixtureModel, z_round: float = 1e-4) -> PosteriorMatrix:
    """Posterior component responsibilities of every subject (Bayes rule in
    log space), rounded to multiples of ``z_round`` and renormalized."""
    _check_z_round(z_round)
    stats = PanelStats.from_panel(panel)
    scores, norms = log_scores(subject_loglik_matrix(stats, model), model.weights)
    return PosteriorMatrix(_responsibilities(scores, norms, z_round))


def m_step_weights(z: PosteriorMatrix) -> np.ndarray:
    """Updated mixture weights: column means of the responsibilities."""
    return z.z.sum(axis=0) / z.n_subjects


def _uniform_off_diagonal(d: int, row: int) -> np.ndarray:
    out = np.ones(d)
    out[row] = 0.0
    return out / out.sum()


def _m_step_alpha_trans_stats(
    stats: PanelStats, z: np.ndarray, labels=None
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Responsibility-weighted initial-state frequencies and transition
    rates per component.

    Returns ``(alpha, trans, warnings)`` with shapes (G, D) and (G, D, D).
    States never left under a component get a uniform row (recorded as a
    warning) so the next E-step cannot hit an artificial structural zero.
    """
    n, d = stats.first_counts.shape
    n_comp = z.shape[1]
    warnings: list[str] = []
    ng = z.sum(axis=0)
    rows = (z.T @ stats.trans_counts.reshape(n, d * d)).reshape(n_comp, d, d)
    totals = rows.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (z.T @ stats.first_counts) / (stats.n_replications * ng)[:, None]
        alpha /= alpha.sum(axis=1, keepdims=True)
        trans = rows / totals[:, :, None]
        trans[:, np.arange(d), np.arange(d)] = 0.0
        trans /= trans.sum(axis=2, keepdims=True)
    for g in range(n_comp):
        if ng[g] <= 0.0:
            warnings.append(f"component {g}: no responsibility mass; uniform fallback")
            live = np.ones(d)
            if stats.absorbing is not None:
                live[stats.absorbing] = 0.0
            alpha[g] = live / live.sum()
        for h in np.flatnonzero(totals[g] <= 0.0):
            if h == stats.absorbing:
                continue
            name = labels[h] if labels is not None else str(h)
            warnings.append(
                f"component {g}: state {name} never left; "
                "transition row set to uniform"
            )
            trans[g, h] = _uniform_off_diagonal(d, h)
    if stats.absorbing is not None:
        trans[:, stats.absorbing] = 0.0
    return alpha, trans, warnings


def _m_step_sojourn_stats(
    stats: PanelStats,
    z: np.ndarray,
    penalty_c: float,
    min_obs_mass: int,
    z_round: float,
    labels=None,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Per-component, per-state penalized gamma fits of the sojourn times.

    A state whose number of weight-carrying observations does not exceed
    ``min_obs_mass`` inherits the fit pooled over all of the component's
    observations regardless of state, as does a degenerate state or one
    whose shape leaves the search bracket.  Returns ``(shape, rate, warnings)``
    with shape and rate arrays of shape (G, D), NaN in the absorbing column.
    """
    n_comp = z.shape[1]
    d = stats.n_states
    warnings: list[str] = []
    sw = z.T @ stats.soj_counts
    slog = z.T @ stats.soj_logsum
    sx = z.T @ stats.soj_sum
    carrying = (z > z_round).astype(np.float64)
    n_obs = carrying.T @ stats.soj_counts
    fitted = n_obs > min_obs_mass  # never the absorbing state: it has no sojourns
    # One solver call: the fitted cells in row-major order, then one
    # pooled cell per component.
    cell_sw, cell_slog, cell_sx = (
        np.concatenate([m[fitted], m.sum(axis=1)]) for m in (sw, slog, sx)
    )
    cell_shape, status = solve_shapes(cell_sw, cell_slog, cell_sx, penalty_c)
    cell_rate = cell_shape * cell_sw / cell_sx
    n_fit = int(fitted.sum())

    shape = np.full((n_comp, d), np.nan)
    rate = np.full((n_comp, d), np.nan)
    fit_status = np.full((n_comp, d), OK)
    shape[fitted], rate[fitted], fit_status[fitted] = (
        cell_shape[:n_fit], cell_rate[:n_fit], status[:n_fit]
    )
    pooled = ~fitted | (fit_status != OK)
    if stats.absorbing is not None:
        pooled[:, stats.absorbing] = False
    for g, j in zip(*np.nonzero(pooled)):
        name = labels[j] if labels is not None else str(j)
        if not fitted[g, j]:
            warnings.append(
                f"component {g}: state {name} has {int(n_obs[g, j])} "
                "weight-carrying observations; pooled fallback"
            )
        elif fit_status[g, j] == DEGENERATE:
            warnings.append(
                f"component {g}: degenerate sojourn sample in state {name}; "
                "pooled fallback"
            )
        else:
            warnings.append(
                f"component {g}: sojourn fit for state {name} left the "
                "shape bracket; pooled fallback"
            )
        if status[n_fit + g] != OK:
            exc = status_error(status[n_fit + g])
            raise type(exc)(f"component {g} pooled sojourn fit: {exc}") from exc
    shape = np.where(pooled, cell_shape[n_fit:, None], shape)
    rate = np.where(pooled, cell_rate[n_fit:, None], rate)
    return shape, rate, warnings


def fit(panel: Panel, n_components: int, init: MixtureModel, cfg: EmConfig) -> FitReport:
    """Run the penalized EM from ``init`` until the relative objective
    change falls below ``cfg.rel_tol`` or ``cfg.max_iter`` is reached.

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
    iterations, or loses all mass outright.  An M-step whose parameters
    break an invariant of the model types raises
    :class:`~smcmix.errors.InvalidModelError` in that iteration.
    """
    if init.n_components != n_components:
        raise ValueError("init does not have the requested number of components")
    if init.space != panel.space:
        raise ValueError("init is defined on a different state space")

    stats = PanelStats.from_panel(panel)
    c = penalty_weight(panel, stats) if cfg.penalized else 0.0
    absorbing = panel.space.absorbing

    def evaluate(p: MixtureArrays) -> tuple[float, np.ndarray, np.ndarray]:
        # One likelihood matrix per parameter set serves both its
        # objective and the E-step that follows it.
        scores, norms = log_scores(subject_loglik_matrix(stats, p), p.weights)
        value = float(norms.sum())
        if cfg.penalized:
            value += penalty_term(p, c)
        return value, scores, norms

    params = init.arrays()
    value, scores, norms = evaluate(params)
    trace = [value]
    warnings: dict[str, None] = {}
    empty_streak = np.zeros(n_components, dtype=int)
    converged = False
    iterations = 0

    def partial_report(z_arr) -> FitReport:
        # the aborting iteration never completed its M-step
        return FitReport(
            model=params.to_model(panel.space),
            posteriors=PosteriorMatrix(z_arr),
            objective_trace=tuple(trace),
            iterations=iterations - 1,
            converged=False,
            warnings=tuple(warnings),
        )

    for iterations in range(1, cfg.max_iter + 1):
        z = _responsibilities(scores, norms, cfg.z_round)
        ng = z.sum(axis=0)

        empty_streak = np.where(ng < 1.0, empty_streak + 1, 0)
        starved = int(np.argmin(ng))
        if np.any(ng == 0.0):
            warnings[f"aborted: component {starved} has no subjects"] = None
            raise EmptyComponent(starved, report=partial_report(z))
        if np.any(empty_streak >= _EMPTY_STREAK_LIMIT):
            starved = int(np.argmax(empty_streak))
            warnings[f"aborted: component {starved} starved for "
                     f"{_EMPTY_STREAK_LIMIT} iterations"] = None
            raise EmptyComponent(starved, report=partial_report(z))

        pi = ng / z.shape[0]
        alpha, trans, w1 = _m_step_alpha_trans_stats(stats, z, labels=panel.space.labels)
        shape, rate, w2 = _m_step_sojourn_stats(
            stats, z, c, cfg.min_obs_mass, cfg.z_round, labels=panel.space.labels
        )
        for msg in (*w1, *w2):
            warnings[msg] = None

        # The M-steps normalize already; dividing every probability vector
        # and live row by its sum once more fixes the rounding of the
        # fitted values (pinned by tests/golden/em_fingerprint.json).
        row_sums = trans.sum(axis=2, keepdims=True)
        if absorbing is not None:
            row_sums[:, absorbing] = 1.0  # the absorbing row stays zero
        params = MixtureArrays(
            weights=pi / pi.sum(),
            alpha=alpha / alpha.sum(axis=1, keepdims=True),
            trans=trans / row_sums,
            shape=shape,
            rate=rate,
            absorbing=absorbing,
        )
        params.check()
        value, scores, norms = evaluate(params)
        trace.append(value)
        if value < trace[-2] - ASCENT_SLACK:
            warnings[
                f"objective decreased by {trace[-2] - value:.3e} at iteration "
                f"{iterations} (small-sample safeguard side effect)"
            ] = None
        if abs(value - trace[-2]) / (abs(value) + 1.0) < cfg.rel_tol:
            converged = True
            break

    return FitReport(
        model=params.to_model(panel.space),
        posteriors=PosteriorMatrix(_responsibilities(scores, norms, cfg.z_round)),
        objective_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
        warnings=tuple(warnings),
    )


def map_cluster(z: PosteriorMatrix) -> np.ndarray:
    """Maximum a posteriori component per subject (ties go to the lowest
    component index)."""
    return np.argmax(z.z, axis=1)
