"""Reference implementations that the package's vectorised paths are
tested against.

The package evaluates likelihoods only through the statistics table
(:func:`smcmix.likelihood.subject_loglik_matrix`) and fits gamma shapes
only through the array solver (:func:`smcmix.sojourn.solve_shapes`).  The
functions here compute the same quantities one trajectory, or one weighted
sample, at a time: the likelihood factor by factor from its definition,
and the penalized gamma fit as a single-cell call of the solver with the
checks a stand-alone fit needs.  The alignments of :mod:`smcmix.metrics`
solve one assignment problem; the exhaustive search over all permutations
here finds the same minimum.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
from scipy.special import gammaln

from smcmix.core import ComponentParams, GammaParams, MixtureModel, Panel, Trajectory
from smcmix.errors import DegenerateSample
from smcmix.likelihood import mixture_loglik, penalty_term, penalty_weight
from smcmix.sojourn import OK, WeightedSample, solve_shapes, status_error


def gamma_log_density(t: float, p: GammaParams) -> float:
    """Log density of a gamma distribution with shape ``p.shape`` and rate
    ``p.rate`` evaluated at ``t > 0``."""
    if t <= 0.0:
        raise ValueError("gamma log-density is only defined for t > 0")
    a, lam = p.shape, p.rate
    return (a - 1.0) * math.log(t) + a * math.log(lam) - lam * t - float(gammaln(a))


def component_loglik(traj: Trajectory, comp: ComponentParams) -> float:
    """Log-likelihood of one trajectory under one renewal process.

    Returns ``-inf`` when the trajectory crosses a structural zero of the
    initial or transition probabilities.
    """
    states = traj.states
    if int(states.max()) >= comp.n_states:
        raise ValueError("trajectory references a state outside the component")
    a0 = comp.alpha[states[0]]
    if a0 == 0.0:
        return -np.inf
    total = float(np.log(a0))
    for k in range(1, len(states)):
        p = comp.trans[states[k - 1], states[k]]
        if p == 0.0:
            return -np.inf
        total += float(np.log(p))
    for k in range(len(states)):
        j = int(states[k])
        if comp.absorbing is not None and j == comp.absorbing:
            continue
        total += gamma_log_density(float(traj.sojourns[k]), comp.sojourn[j])
    return total


def subject_loglik(trajs, comp: ComponentParams) -> float:
    """Joint log-likelihood of a subject's replications (independent)."""
    return float(sum(component_loglik(t, comp) for t in trajs))


def penalized_objective(panel: Panel, model: MixtureModel) -> float:
    """Mixture log-likelihood plus the shape penalty (the EM objective)."""
    return mixture_loglik(panel, model) + penalty_term(model.params, penalty_weight(panel))


def _suff_stats(sample: WeightedSample) -> tuple[float, float, float, int]:
    w, x = sample.weights, sample.values
    sw = float(w.sum())
    swx = float(np.dot(w, x))
    swlog = float(np.dot(w, np.log(x)))
    n_pos = int(np.count_nonzero(w > 0.0))
    return sw, swlog, swx, n_pos


def fit_gamma_pmle(sample: WeightedSample, penalty_c: float) -> GammaParams:
    """Weighted penalized maximum-likelihood gamma fit.

    ``penalty_c`` is the penalty weight (zero gives the plain weighted MLE;
    :func:`smcmix.em.fit` passes ``1/sqrt(total visited-state count)``).  The
    returned shape satisfies ``|d objective / d shape| <= 1e-8`` and the
    rate is the exact profile maximizer given the shape.
    """
    if penalty_c < 0.0:
        raise ValueError("penalty_c must be nonnegative")
    sw, swlog, swx, n_pos = _suff_stats(sample)
    if n_pos < 2:
        raise DegenerateSample("need at least two positive-weight observations")
    shape, status = solve_shapes([sw], [swlog], [swx], penalty_c)
    if status[0] != OK:
        raise status_error(status[0])
    a = float(shape[0])
    return GammaParams(shape=a, rate=a * sw / swx)


def exhaustive_best_permutation(cost: np.ndarray) -> tuple[int, ...]:
    """Permutation ``perm`` minimizing ``sum(cost[t, perm[t]])``, searched
    over all G! permutations; the first minimizer in lexicographic order
    wins ties."""
    g = cost.shape[0]
    return min(permutations(range(g)), key=lambda perm: sum(cost[t, perm[t]] for t in range(g)))


def assignment_cost(cost: np.ndarray, perm) -> float:
    """``sum(cost[t, perm[t]])``, summed in row order."""
    return sum(cost[t, e] for t, e in enumerate(perm))
