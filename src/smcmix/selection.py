"""Information criteria and selection of the number of mixture components.

The criteria are computed on the plain (unpenalized) mixture
log-likelihood of the penalized-EM fit; folding the shape penalty into a
complexity-penalizing criterion would count complexity twice.

A sweep fits all its component counts as one lockstep stack of the EM
(:func:`smcmix.em.fit_stack`), on statistics it builds once for the
k-means inits and the stack together.  Each fit computes exactly what it
computes alone, and the sweep reports them in component-count order; of
the errors other than a starved-component abort, the one of the lowest
component count that raised is raised, the error a sweep fitting one
count after another would stop at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Panel, check_count, is_integer
from .em import EmConfig, EmptyComponent, FitReport, fit_stack
from .initialization import initial_model
from .likelihood import PanelStats

CRITERIA = ("bic", "aic", "aicc")


def param_count(n_components: int, n_states: int, has_absorbing: bool = False) -> int:
    """Number of free parameters of a mixture of Markov renewal processes.

    ``n_states`` counts every state, the absorbing one included.  Each
    sojourn law is a gamma law with 2 parameters.  With an absorbing
    state, the first state can never be absorbing, the absorbing row of
    the transition matrix is fixed, and the absorbing state carries no
    sojourn law: only the other, live, states take parameters.
    """
    check_count("n_components", n_components, 1)
    check_count("n_states", n_states, 2)
    g, live = n_components, n_states - bool(has_absorbing)
    # per component: first-state and transition probabilities, gamma laws
    return g - 1 + g * ((live - 1) + live * (n_states - 2) + live * 2)


def bic(loglik: float, q: int, n_obs: int) -> float:
    """Bayesian information criterion, ``q ln(n_obs) - 2 loglik`` (lower is
    better)."""
    return q * math.log(n_obs) - 2.0 * loglik


def aic(loglik: float, q: int) -> float:
    return 2.0 * q - 2.0 * loglik


def aicc(loglik: float, q: int, n_obs: int) -> float:
    """Small-sample corrected AIC; only defined when ``n_obs > q + 1``."""
    if n_obs <= q + 1:
        raise ValueError(
            f"aicc needs more observations than parameters (n_obs={n_obs}, q={q})"
        )
    return aic(loglik, q) + 2.0 * q * (q + 1.0) / (n_obs - q - 1.0)


@dataclass(frozen=True)
class SweepRow:
    n_components: int
    loglik: float
    q: int
    bic: float
    aic: float
    aicc: Optional[float]
    converged: bool
    aborted: bool = False


@dataclass(frozen=True, eq=False)
class GSweepResult:
    """Outcome of :func:`select_g`; ``init_labels`` holds, per component
    count, the k-means labels (one per subject) its fit started from."""

    rows: tuple[SweepRow, ...]
    chosen: dict  # criterion name -> chosen component count
    reports: dict  # component count -> FitReport
    init_labels: dict  # component count -> k-means labels
    warnings: tuple[str, ...]

    def best_report(self, criterion: str = "bic") -> FitReport:
        return self.reports[self.chosen[criterion]]


def _component_counts(g_range: Sequence[int]) -> list[int]:
    """The distinct counts of ``g_range`` in increasing order; raises
    ``ValueError`` unless there is one and all are positive integers."""
    counts = list(g_range)
    if not all(is_integer(g) for g in counts):
        raise ValueError("g_range must contain integer component counts")
    g_values = sorted(set(int(g) for g in counts))
    if not g_values or g_values[0] < 1:
        raise ValueError("g_range must contain positive component counts")
    return g_values


def select_g(
    panel: Panel,
    g_range: Sequence[int],
    cfg: EmConfig,
    sample_size: Optional[int] = None,
) -> GSweepResult:
    """Fit every component count in ``g_range`` and rank them by BIC, AIC
    and AICc.

    ``sample_size`` is the observation count entering the criteria; it
    defaults to subjects times replications.  What the right effective
    sample size is for temporal data is debatable, hence the override.
    The criteria read each fit's :attr:`FitReport.loglik`.  Fits aborted
    by a starved component are kept with their last valid model and
    flagged.  Ties pick the smallest component count.  Every fit starts
    from :func:`~smcmix.initialization.initial_model` under ``cfg``, and
    the k-means labels it started from are kept in
    :attr:`GSweepResult.init_labels`.  ``sample_size`` is a count
    (:func:`~smcmix.core.check_count`).
    """
    g_values = _component_counts(g_range)
    if sample_size is not None:
        check_count("sample_size", sample_size, 1)
    n_obs = sample_size if sample_size is not None else panel.n_subjects * panel.n_replications
    stats = PanelStats.from_panel(panel)
    has_absorbing = panel.space.absorbing is not None

    inits, init_labels, init_error = [], {}, []
    for g in g_values:
        try:
            init, init_labels[g] = initial_model(panel, g, cfg, stats)
        except Exception as exc:
            # raised after the fits of the lower counts, and only if none of them raises
            init_error = [exc]
            break
        inits.append(init)
    outcomes = fit_stack(panel, stats, inits, cfg) + init_error

    rows: list[SweepRow] = []
    reports: dict[int, FitReport] = {}
    warnings: list[str] = []
    for g, outcome in zip(g_values, outcomes):
        aborted = isinstance(outcome, EmptyComponent)
        if aborted:
            warnings.append(f"G={g}: {outcome}")
            report = outcome.report
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            report = outcome
        reports[g] = report
        ll = report.loglik
        q = param_count(g, panel.space.n_states, has_absorbing=has_absorbing)
        try:
            corrected = aicc(ll, q, n_obs)
        except ValueError:
            corrected = None
            warnings.append(f"G={g}: aicc undefined (q={q} too large for n_obs={n_obs})")
        rows.append(
            SweepRow(
                n_components=g,
                loglik=ll,
                q=q,
                bic=bic(ll, q, n_obs),
                aic=aic(ll, q),
                aicc=corrected,
                converged=report.converged,
                aborted=aborted,
            )
        )

    chosen = {}
    for name in CRITERIA:
        scored = [(getattr(r, name), r.n_components) for r in rows if getattr(r, name) is not None]
        if not scored:
            continue
        chosen[name] = min(scored)[1]
    return GSweepResult(rows=tuple(rows), chosen=chosen, reports=reports,
                        init_labels=init_labels, warnings=tuple(warnings))
