"""Starting points for the EM: k-means on mean sojourn profiles, then
method-of-moments estimates within each cluster.

Subjects separate well on their mean sojourn time per state, so a cheap
k-means on those D-dimensional profiles gives hard labels from which all
model parameters are estimated by empirical frequencies and moments.  The
k-means here is Lloyd's algorithm with k-means++ seeding and restarts; any
local minimizer of the within-cluster squared error serves as an
initializer.
"""

from __future__ import annotations

import numpy as np

from .core import GammaParams, MixtureArrays, MixtureModel, Panel
from .errors import DegenerateSample
from .likelihood import PanelStats
from .sojourn import WeightedSample, fit_gamma_mom

# Mass added to every structurally-allowed probability cell of the initial
# model so no subject starts at -inf under any component.
_SMOOTHING = 1e-6


def mean_sojourn_features(panel: Panel) -> np.ndarray:
    """n x D matrix of each subject's mean sojourn time per state, pooled
    over replications; states the subject never visited give 0."""
    return _mean_sojourns(PanelStats.from_panel(panel))


def _mean_sojourns(stats: PanelStats) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        feats = np.where(stats.soj_counts > 0, stats.soj_sum / stats.soj_counts, 0.0)
    return feats


def _kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator, sse_trace=None):
    n = points.shape[0]
    # k-means++ seeding
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[c] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[c]) ** 2, axis=1))

    labels = np.full(n, -1)
    for _ in range(300):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        # Re-seed empty clusters from the point farthest from its center,
        # among points whose cluster keeps another member: moving a lone
        # point would empty its cluster, whose mean would then be NaN.
        for c in range(k):
            if not np.any(new_labels == c):
                shared = np.bincount(new_labels, minlength=k)[new_labels] > 1
                far = int(np.argmax(np.where(shared, d2[np.arange(n), new_labels], -1.0)))
                centers[c] = points[far]
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if sse_trace is not None:
            sse_trace.append(float(d2[np.arange(n), labels].sum()))
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    sse = float(d2[np.arange(n), labels].sum())
    if sse_trace is not None:
        sse_trace.append(sse)
    return labels, sse


def kmeans(points: np.ndarray, k: int, seed: int, restarts: int = 10) -> np.ndarray:
    """Cluster rows of ``points`` into ``k`` non-empty groups, minimizing
    within-cluster squared Euclidean distance over the restarts performed.

    Deterministic given ``seed``; the winner among restarts is the lowest
    (SSE, restart index) pair.
    """
    points = np.asarray(points, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    n = points.shape[0]
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    best = None
    for ss in np.random.SeedSequence(seed).spawn(restarts):
        labels, sse = _kmeans_once(points, k, np.random.Generator(np.random.PCG64(ss)))
        if best is None or sse < best[0]:
            best = (sse, labels)
    return best[1]


def _cluster_gammas(per_state: list[np.ndarray], absorbing, min_obs_mass: int):
    pooled = None

    def pooled_fit() -> GammaParams:
        nonlocal pooled
        if pooled is None:
            values = np.concatenate([v for v in per_state if v.size])
            try:
                pooled = fit_gamma_mom(WeightedSample(values, np.ones_like(values)))
            except DegenerateSample:
                # No spread at all: exponential with the observed mean.
                pooled = GammaParams(shape=1.0, rate=1.0 / float(values.mean()))
        return pooled

    out = []
    for j, values in enumerate(per_state):
        if absorbing is not None and j == absorbing:
            out.append(None)
            continue
        if values.size > min_obs_mass:
            try:
                out.append(fit_gamma_mom(WeightedSample(values, np.ones_like(values))))
                continue
            except DegenerateSample:
                pass
        out.append(pooled_fit())
    return out


def initial_model(
    panel: Panel,
    n_components: int,
    seed: int,
    restarts: int = 10,
    min_obs_mass: int = 7,
) -> MixtureModel:
    """Build an EM starting model by clustering subjects on their mean
    sojourn profiles and estimating each cluster empirically.

    Initial and transition probabilities get a small additive smoothing on
    every structurally-allowed cell so the starting log-likelihood is
    finite on the training panel; the EM may drive entries back to zero.
    """
    return _clustered_model(panel, n_components, seed, restarts, min_obs_mass)[0]


def _clustered_model(
    panel: Panel, n_components: int, seed: int, restarts: int, min_obs_mass: int
) -> tuple[MixtureModel, np.ndarray]:
    """:func:`initial_model` together with the k-means labels it was
    estimated from."""
    stats = PanelStats.from_panel(panel)
    d = panel.space.n_states
    absorbing = panel.space.absorbing
    labels = kmeans(_mean_sojourns(stats), n_components, seed, restarts)
    # Cluster and state of every observed sojourn, in panel order.
    row_labels = labels[stats.soj_cells // d]
    row_states = stats.soj_cells % d

    # Cluster membership indicators: the counts are integers, so the
    # products below sum them exactly, as a sum over each cluster would.
    members = (labels[:, None] == np.arange(n_components)).astype(np.float64)
    weights = members.sum(axis=0) / panel.n_subjects

    alpha = members.T @ stats.first_counts + _SMOOTHING
    trans = (members.T @ stats.trans_counts.reshape(-1, d * d)).reshape(-1, d, d) + _SMOOTHING
    trans[:, np.arange(d), np.arange(d)] = 0.0
    row_sums = trans.sum(axis=2, keepdims=True)
    if absorbing is not None:
        alpha[:, absorbing] = 0.0
        trans[:, absorbing] = 0.0
        row_sums[:, absorbing] = 1.0  # the absorbing row stays zero
    alpha /= alpha.sum(axis=1, keepdims=True)
    trans /= row_sums

    shape, rate = np.empty((2, n_components, d))
    for g in range(n_components):
        in_cluster = row_labels == g
        per_state = [stats.soj_durations[in_cluster & (row_states == j)] for j in range(d)]
        gammas = _cluster_gammas(per_state, absorbing, min_obs_mass)
        shape[g] = [np.nan if p is None else p.shape for p in gammas]
        rate[g] = [np.nan if p is None else p.rate for p in gammas]
    model = MixtureArrays(weights, alpha, trans, shape, rate, absorbing).to_model(panel.space)
    return model, labels
