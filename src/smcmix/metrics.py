"""Recovery metrics for simulation studies, with label-switching alignment.

Mixture likelihoods are invariant under permuting component labels, so
estimated components must be matched to the truth before any error is
computed.  Parameter metrics align by minimizing the summed relative
errors of transition matrices and initial probabilities; the
classification rate aligns by maximizing raw label agreement.  Every
alignment is one search over a G x G cost matrix, exhaustive over the G!
permutations (G <= 8); ties go to the lexicographically first permutation.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .core import MixtureModel

_MAX_COMPONENTS = 8


def err_matrix(true: np.ndarray, est: np.ndarray) -> float:
    """Relative squared error ``||true - est||_F^2 / ||true||_F^2`` (also
    used for vectors with the Euclidean norm)."""
    true = np.asarray(true, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if true.shape != est.shape:
        raise ValueError("shapes must match")
    denom = float(np.sum(true * true))
    if denom <= 0.0:
        raise ValueError("reference parameters have zero norm")
    diff = true - est
    return float(np.sum(diff * diff)) / denom


def _check_g(g: int) -> None:
    if g > _MAX_COMPONENTS:
        raise ValueError(f"exhaustive alignment supports at most {_MAX_COMPONENTS} components")


def _best_permutation(cost: np.ndarray) -> tuple[int, ...]:
    """Permutation ``perm`` minimizing ``sum(cost[t, perm[t]])``; the first
    minimizer in lexicographic order wins ties."""
    g = cost.shape[0]
    _check_g(g)
    return min(permutations(range(g)), key=lambda perm: sum(cost[t, perm[t]] for t in range(g)))


def align_components(truth: MixtureModel, est: MixtureModel) -> tuple[int, ...]:
    """Permutation ``perm`` such that estimated component ``perm[g]`` plays
    the role of true component ``g``, minimizing the total relative error
    of transition matrices plus initial probabilities."""
    g = truth.n_components
    if est.n_components != g:
        raise ValueError("models must have the same number of components")
    pt, pe = truth.params, est.params
    cost = np.zeros((g, g))
    for t in range(g):
        for e in range(g):
            cost[t, e] = err_matrix(pt.trans[t], pe.trans[e]) + err_matrix(pt.alpha[t], pe.alpha[e])
    return _best_permutation(cost)


def err_gamma(
    truth: MixtureModel,
    est: MixtureModel,
    which: str,
    perm: tuple[int, ...] | None = None,
) -> float:
    """Pooled relative squared error of the gamma shapes (``which="shape"``)
    or rates (``which="rate"``) over all states and components, after
    alignment."""
    if which not in ("shape", "rate"):
        raise ValueError("which must be 'shape' or 'rate'")
    if perm is None:
        perm = align_components(truth, est)
    live = truth.params.live
    a = getattr(truth.params, which)[:, live]
    b = getattr(est.params, which)[list(perm)][:, live]
    # Summed one term at a time, component by component, state by state.
    # float_power squares with libm pow, as a Python float's ** 2 does; the
    # x * x of ** 2 on an array can differ from it in the last bit.
    num = np.add.accumulate(np.float_power(a - b, 2.0).ravel())[-1]
    denom = np.add.accumulate((a * a).ravel())[-1]
    if denom <= 0.0:
        raise ValueError("reference parameters have zero norm")
    return float(num / denom)


def err_by_component(
    truth: MixtureModel,
    est: MixtureModel,
    which: str,
    perm: tuple[int, ...] | None = None,
) -> list[float]:
    """Per-component relative errors of ``which`` in {"alpha", "trans"},
    after alignment; index g corresponds to true component g."""
    if which not in ("alpha", "trans"):
        raise ValueError("which must be 'alpha' or 'trans'")
    if perm is None:
        perm = align_components(truth, est)
    a, b = getattr(truth.params, which), getattr(est.params, which)
    return [err_matrix(a[t], b[e]) for t, e in enumerate(perm)]


def classification_rate(true_labels, est_labels) -> float:
    """Fraction of matching labels under the best label permutation."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    est_labels = np.asarray(est_labels, dtype=np.int64)
    if true_labels.shape != est_labels.shape:
        raise ValueError("label vectors must have the same length")
    g = int(max(true_labels.max(), est_labels.max())) + 1
    _check_g(g)
    # agree[e, t]: subjects labelled e by the estimate and t by the truth
    agree = np.bincount(est_labels * g + true_labels, minlength=g * g).reshape(g, g)
    perm = _best_permutation(-agree)
    return int(agree[np.arange(g), perm].sum()) / true_labels.size


def pi_recovery(true_pi, est_pi, perm: tuple[int, ...] | None = None) -> np.ndarray:
    """Estimated mixture weights reordered to match the truth.

    With ``perm`` from :func:`align_components` the parameter-space
    alignment is used; otherwise the weight permutation minimizing the
    squared weight error is found by enumeration.
    """
    true_pi = np.asarray(true_pi, dtype=np.float64)
    est_pi = np.asarray(est_pi, dtype=np.float64)
    if true_pi.shape != est_pi.shape:
        raise ValueError("weight vectors must have the same length")
    if perm is None:
        perm = _best_permutation((est_pi[None, :] - true_pi[:, None]) ** 2)
    return est_pi[list(perm)]
