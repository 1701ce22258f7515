"""Recovery metrics for simulation studies, with label-switching alignment.

Mixture likelihoods are invariant under permuting component labels, so
estimated components must be matched to the truth before any error is
computed.  Parameter metrics align by minimizing the summed relative
errors of transition matrices and initial probabilities; the
classification rate aligns by maximizing raw label agreement.  Every
alignment is one linear assignment solve over a G x G cost matrix, in
O(G^3) time for any G.  Ties go to the solver's deterministic choice
(see :func:`_best_permutation`), not always the lexicographically first.
"""

from __future__ import annotations

import numpy as np

from .core import MixtureModel, index_array


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


def _best_permutation(cost: np.ndarray) -> tuple[int, ...]:
    """Permutation ``perm`` minimizing ``sum(cost[t, perm[t]])`` over a
    square ``cost``, by shortest augmenting paths with dual potentials
    (Crouse, IEEE TAES 2016), one row at a time; of equally short paths,
    the one to the lowest column index is taken."""
    g = cost.shape[0]
    u, v = np.zeros(g), np.zeros(g)
    col_of, row_of = np.full(g, -1), np.full(g, -1)
    for row in range(g):
        # per column: shortest path cost, its last row, and whether it is final
        dist, via, reached = np.full(g, np.inf), np.zeros(g, np.int64), np.zeros(g, bool)
        i, low = row, 0.0
        while i >= 0:  # from row i, the row assigned to the column reached last
            r = low + cost[i] - u[i] - v
            closer = ~reached & (r < dist)
            dist[closer], via[closer] = r[closer], i
            unreached = np.flatnonzero(~reached)
            j = unreached[np.argmin(dist[unreached])]
            low = dist[j]
            reached[j] = True
            i = row_of[j]
        tree = reached & (row_of >= 0)
        u[row] += low
        u[row_of[tree]] += low - dist[tree]
        v[reached] -= low - dist[reached]
        while i != row:  # flip the path's assignments back from column j
            i = via[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return tuple(col_of.tolist())


def align_components(truth: MixtureModel, est: MixtureModel) -> tuple[int, ...]:
    """Permutation ``perm`` such that estimated component ``perm[g]`` plays
    the role of true component ``g``, minimizing the total relative error
    of transition matrices plus initial probabilities."""
    g = truth.n_components
    if est.n_components != g:
        raise ValueError("models must have the same number of components")
    pt, pe = truth.params, est.params
    cost = np.array([[err_matrix(pt.trans[t], pe.trans[e]) + err_matrix(pt.alpha[t], pe.alpha[e])
                      for e in range(g)] for t in range(g)])
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
    true_labels = index_array("true labels", true_labels)
    est_labels = index_array("estimated labels", est_labels)
    if true_labels.shape != est_labels.shape:
        raise ValueError("label vectors must have the same length")
    if min(true_labels.min(), est_labels.min()) < 0:
        raise ValueError("labels must be nonnegative")
    g = int(max(true_labels.max(), est_labels.max())) + 1
    # agree[e, t]: subjects labelled e by the estimate and t by the truth
    agree = np.bincount(est_labels * g + true_labels, minlength=g * g).reshape(g, g)
    return int(agree[np.arange(g), _best_permutation(-agree)].sum()) / true_labels.size


def pi_recovery(true_pi, est_pi, perm: tuple[int, ...] | None = None) -> np.ndarray:
    """Estimated mixture weights reordered to match the truth.

    With ``perm`` from :func:`align_components` the parameter-space
    alignment is used; otherwise the weight permutation minimizing the
    summed squared weight error is found by one assignment solve.
    """
    true_pi = np.asarray(true_pi, dtype=np.float64)
    est_pi = np.asarray(est_pi, dtype=np.float64)
    if true_pi.shape != est_pi.shape:
        raise ValueError("weight vectors must have the same length")
    if perm is None:
        perm = _best_permutation((est_pi[None, :] - true_pi[:, None]) ** 2)
    return est_pi[list(perm)]
