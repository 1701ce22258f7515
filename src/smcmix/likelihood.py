"""Log-likelihoods of subjects and mixtures, and the EM's shape penalty.

All computation stays in natural log; probability-space products are never
formed.  A structural zero (a trajectory hitting a zero initial or
transition probability) yields ``-inf`` rather than an error, so the
E-step can assign zero responsibility naturally.

:class:`PanelStats` holds the sufficient statistics of a panel (first-state
counts, transition counts, per-state sojourn sums) as one table with a row
per subject, so that subject log-likelihoods under any parameter set reduce
to one matrix product.  It reads the panel's flat arrays, where the
trajectories are stored back to back, in one pass that fills the table.
:func:`subject_loglik_matrix` transforms the parameters of all components
at once into one matrix and multiplies it with the table.  Its result is
component-major, so the per-subject reductions over components that follow
run over contiguous memory; they add the components in sequence, which for
G >= 8 can differ in the last bit from numpy's pairwise row sums.
This matrix is the package's one likelihood evaluation; the tests check
it against a per-trajectory, factor-by-factor reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import MixtureArrays, MixtureModel, Panel


@dataclass(frozen=True, eq=False)
class PanelStats:
    """Sufficient statistics of a panel, aggregated per subject over
    replications.

    ``table`` holds them side by side, one read-only row per subject, in
    the column blocks first-state counts (D), transition counts (D * D,
    row-major), sojourn log-sums, sojourn counts and sojourn sums (D
    each); the five named arrays are views of these blocks.  The sojourn
    blocks cover only states that contribute a sojourn factor (the
    absorbing state, if any, keeps zeros), each cell summed over its
    sojourns in panel order (replication, then position).
    """

    table: np.ndarray  # (n, D + D * D + 3 * D)
    n_states: int
    absorbing: int | None

    @classmethod
    def from_panel(cls, panel: Panel) -> "PanelStats":
        n, d = panel.n_subjects, panel.space.n_states
        absorbing = panel.space.absorbing
        states, durations = panel.states, panel.sojourns
        lengths = panel.lengths.ravel()
        subject_rows = panel.lengths.sum(axis=1)
        ends = np.cumsum(lengths)
        # Every row but the last of its trajectory starts a transition.
        moves = np.ones(states.size - 1, dtype=bool)
        moves[ends[:-1] - 1] = False

        # Filled in place: ``at`` is each row's state position in its subject's
        # table row, indexing views of the flat table that start at a block.
        table = np.zeros((n, d * d + 4 * d))
        flat = table.reshape(-1)
        at = np.repeat(np.arange(n) * table.shape[1], subject_rows) + states
        np.add.at(flat, at[ends - lengths], 1.0)
        np.add.at(flat[d:], (at[:-1] + states[:-1] * (d - 1) + states[1:])[moves], 1.0)
        if absorbing is not None:
            # the absorbing state can only end a trajectory and has no sojourn
            live = states != absorbing
            durations, at = durations[live], at[live]
        # Unbuffered accumulation in row order: each cell sums its sojourns
        # in panel order.
        sojourns = flat[d + d * d :]
        np.add.at(sojourns, at, np.log(durations))
        np.add.at(sojourns[d:], at, 1.0)
        np.add.at(sojourns[2 * d :], at, durations)
        table.flags.writeable = False
        return cls(table, d, absorbing)

    @property
    def n_subjects(self) -> int:
        return self.table.shape[0]

    @property
    def first_counts(self) -> np.ndarray:  # (n, D) first-state indicator counts
        return self.table[:, : self.n_states]

    @property
    def trans_counts(self) -> np.ndarray:  # (n, D, D) transition counts
        d = self.n_states
        return self.table[:, d : d + d * d].reshape(-1, d, d)

    def _sojourn_block(self, k: int) -> np.ndarray:
        d = self.n_states
        return self.table[:, d + d * d + k * d : d + d * d + (k + 1) * d]

    # (n, D) each: sum of log durations, number of sojourns, sum of durations per state
    soj_logsum = property(lambda self: self._sojourn_block(0))
    soj_counts = property(lambda self: self._sojourn_block(1))
    soj_sum = property(lambda self: self._sojourn_block(2))


def _safe_log(p: np.ndarray) -> np.ndarray:
    """Elementwise log with 0 in place of the -inf of zero cells."""
    return np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)


def subject_loglik_matrix(stats: PanelStats, p: MixtureArrays) -> np.ndarray:
    """n x G matrix of per-subject log-likelihoods under each component of
    the mixture parameters ``p``, stored component-major (Fortran order).

    The parameters of all components are transformed at once into one
    G x F matrix whose rows match the blocks of ``stats.table``: log
    initial and transition probabilities (0 at zero cells), ``a - 1``,
    ``a ln(rate) - ln Gamma(a)`` and ``-rate``.  The matrix is then one
    product with the table, and a subject that meets a zero initial or
    transition cell of a component gets ``-inf`` there.
    """
    g, d = len(p.weights), stats.n_states
    shape, rate = p.shape, p.rate
    if stats.absorbing is not None:
        live = np.arange(d) != stats.absorbing
        shape = np.where(live, shape, 1.0)
        rate = np.where(live, rate, 1.0)
    chain = np.concatenate([p.alpha, p.trans.reshape(g, d * d)], axis=1)
    theta = np.concatenate(
        [_safe_log(chain), shape - 1.0, shape * np.log(rate) - gammaln(shape), -rate], axis=1
    )
    ll = (theta @ stats.table.T).T
    # The counts are integers, so this product sums them exactly.
    impossible = ((chain == 0.0) @ stats.table[:, : d + d * d].T).T > 0
    ll[impossible] = -np.inf
    return ll


def log_scores(ll: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint log scores ``ll + log(weights)`` of an n x G likelihood matrix
    and their per-subject log-sum-exp, whose sum is the mixture
    log-likelihood.

    The reduction is scipy's ``logsumexp`` algorithm written out for rows
    (``scipy.special.logsumexp(scores, axis=1)`` bit for bit, without its
    array-API dispatch): the row maximum and its tie count ``m`` are taken
    apart from the sum ``s`` of the other shifted exponentials, giving
    ``log1p(s / m) + log(m) + max``; a row of ``-inf`` gives ``-inf``.
    """
    scores = ll + np.log(weights)[None, :]
    top = scores.max(axis=1, keepdims=True)
    at_top = scores == top
    ties = at_top.sum(axis=1, keepdims=True, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        rest = np.exp(np.where(at_top, -np.inf, scores) - top).sum(axis=1, keepdims=True)
        norms = (np.log1p(rest / ties) + np.log(ties) + top)[:, 0]
    norms[np.isneginf(top[:, 0])] = -np.inf
    return scores, norms


def mixture_loglik(panel: Panel, model: MixtureModel) -> float:
    """Observed-data log-likelihood of the panel under the mixture.

    Computed with a log-sum-exp reduction per subject; ``-inf`` only when
    some subject is impossible under every component.  Raises
    ``ValueError`` when the model's state space is not the panel's.
    """
    if model.space != panel.space:
        raise ValueError("model is defined on a different state space")
    stats = PanelStats.from_panel(panel)
    _, per_subject = log_scores(subject_loglik_matrix(stats, model.params), model.weights)
    return float(per_subject.sum())


def penalty_weight(panel: Panel) -> float:
    """Penalty normalizer: one over the square root of the total number of
    visited states across all trajectories, absorbing states included."""
    return 1.0 / np.sqrt(panel.states.size)


def penalty_term(p: MixtureArrays, c: float) -> float:
    """Shape penalty ``-c * sum over components and states of (a + ln a)`` of ``p``."""
    shape = p.shape[:, p.live]
    # Summed one term at a time, component by component, state by state.
    return -c * np.add.accumulate((shape + np.log(shape)).ravel())[-1]
