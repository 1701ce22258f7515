"""Starting points for the EM: k-means on mean sojourn profiles, then
method-of-moments estimates within each cluster.

Subjects separate well on their mean sojourn time per state, so a cheap
k-means on those D-dimensional profiles gives hard labels from which all
model parameters are estimated by empirical frequencies and moments.  The
k-means here is Lloyd's algorithm with k-means++ seeding and restarts; any
local minimizer of the within-cluster squared error serves as an
initializer.  Each restart is seeded on its own random stream, one after
another; the Lloyd iterations of all restarts then run as one array loop
that drops each restart once its labels stop changing, and gives every
restart the labels and error its own loop would give, bit for bit.  The
distances of an iteration are one (D, restarts x k, n) array summed over
its D slabs in the pairwise order numpy sums a short axis in, so each
pass runs over long rows.  One cluster needs no search and draws nothing.

The moment estimates sort the panel's sojourns once by (cluster, state);
each cell's durations are then one slice, in panel order, fitted by the
arithmetic of :func:`smcmix.sojourn.fit_gamma_mom` without re-checking a
sample the panel has already checked.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .core import GammaParams, MixtureArrays, MixtureModel, Panel, check_count
from .em import EmConfig
from .errors import DegenerateSample
from .likelihood import PanelStats
from .sojourn import gamma_mom

# Mass added to every structurally-allowed probability cell of the initial
# model so no subject starts at -inf under any component.
_SMOOTHING = 1e-6


def _mean_sojourns(stats: PanelStats) -> np.ndarray:
    """n x D matrix of each subject's mean sojourn time per state, pooled
    over replications; states the subject never visited give 0."""
    with np.errstate(invalid="ignore"):
        feats = np.where(stats.soj_counts > 0, stats.soj_sum / stats.soj_counts, 0.0)
    return feats


# k-means restarts of an init unless the caller asks for another number.
RESTARTS = 10

# Lloyd iterations each restart may take before its labels are final.
_LLOYD_ITERATIONS = 300


def _seed_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: k rows of ``points`` drawn from ``rng``."""
    n = points.shape[0]
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
    return centers


def _sum_slabs(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` as numpy sums a short contiguous axis, bit for
    bit: pairwise, in eight running sums below 129 terms (numpy's
    ``pairwise_sum``), but each term a whole slab, so one array pass adds a
    slab to every sum at once.  ``x`` must be nonnegative (numpy starts a
    short sum from 0.0, which only a -0.0 term would notice), and is
    overwritten."""
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_slabs(x[:half]) + _sum_slabs(x[half:])
    if n < 8:
        total = x[0]
        for i in range(1, n):
            total += x[i]
        return total
    tail = n - n % 8
    sums = x[:8]
    for i in range(8, tail, 8):
        sums += x[i : i + 8]
    total = (sums[0] + sums[1]) + (sums[2] + sums[3])
    total += (sums[4] + sums[5]) + (sums[6] + sums[7])
    for i in range(tail, n):
        total += x[i]
    return total


def _sq_distances(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(A, k, n) squared distances from each of n points to every centre of
    A restarts (A, k, D), each summed over D as ``.sum(axis=-1)`` over the
    point's (D,) differences would sum it; ``columns`` is the (D, n)
    transpose of the points."""
    a, k, d = centers.shape
    diff = columns[:, None, :] - centers.reshape(a * k, d).T[:, :, None]
    return _sum_slabs(np.square(diff, out=diff)).reshape(a, k, -1)


def _cluster_sizes(labels: np.ndarray, k: int) -> np.ndarray:
    """(A, k) cluster sizes of the (A, n) labellings of A restarts."""
    a = len(labels)
    return np.bincount((labels + k * np.arange(a)[:, None]).ravel(), minlength=a * k).reshape(a, k)


def _reseed(points: np.ndarray, centers: np.ndarray, d2: np.ndarray, labels: np.ndarray) -> None:
    """Re-seed the empty clusters of one restart in place, each from the
    point farthest from its centre, among points whose cluster keeps another
    member: moving a lone point would empty its cluster, whose mean would
    then be NaN.  ``d2`` holds the (k, n) squared distances."""
    k, n = d2.shape
    for c in range(k):
        if not np.any(labels == c):
            shared = np.bincount(labels, minlength=k)[labels] > 1
            far = int(np.argmax(np.where(shared, d2[labels, np.arange(n)], -1.0)))
            centers[c] = points[far]
            labels[far] = c


def _means(points: np.ndarray, spread: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(A, k, D) cluster means of the (A, n) labellings ``labels``, every
    cluster non-empty.

    ``spread[i, c]`` is a zero (k, D) block with point i in row c; gathered
    by label and summed over the point axis, it adds each cluster's members
    in point order, as ``.mean(axis=0)`` over the members does when D >= 2,
    so the two agree bit for bit (the zeros of the other points change at
    most the sign of a zero sum).  A single column is summed pairwise by
    ``.mean``, so it keeps that call.
    """
    n, k = spread.shape[:2]
    if points.shape[1] == 1:
        return np.array([[points[row == c].mean(axis=0) for c in range(k)] for row in labels])
    sums = spread[np.arange(n)[:, None], labels.T].sum(axis=0)
    return sums / _cluster_sizes(labels, k)[:, :, None]


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from each of R seedings ``centers`` (R, k, D), run
    as one loop over the restarts still active; returns every restart's
    (R, n) labels and (R,) within-cluster squared error.

    A restart leaves the active set on the first iteration that leaves its
    labels unchanged, or after ``_LLOYD_ITERATIONS``.  The distances are
    point inner, (A, k, n), so that each elementwise pass runs over long
    contiguous rows, and are summed over D one (A·k, n) slab at a time.
    """
    r, k, d = centers.shape
    n = points.shape[0]
    columns = np.ascontiguousarray(points.T)
    spread = np.zeros((n, k, k, d))
    spread[:, np.arange(k), np.arange(k)] = points[:, None, :]
    centers = centers.copy()
    final_centers = np.empty_like(centers)
    final_labels = np.empty((r, n), dtype=np.intp)
    active = np.arange(r)
    labels = np.full((r, n), -1, dtype=np.intp)
    for _ in range(_LLOYD_ITERATIONS):
        d2 = _sq_distances(columns, centers)
        new = d2.argmin(axis=1)
        for i in np.flatnonzero((_cluster_sizes(new, k) == 0).any(axis=1)):
            _reseed(points, centers[i], d2[i], new[i])
        done = (new == labels).all(axis=1)
        final_centers[active[done]] = centers[done]
        final_labels[active[done]] = new[done]
        keep = ~done
        active, labels = active[keep], new[keep]
        if not active.size:
            break
        centers = _means(points, spread, labels)
    else:
        final_centers[active] = centers
        final_labels[active] = labels
    d2 = _sq_distances(columns, final_centers)
    # (R, n) rows, each summed as the 1-D errors of one restart would be.
    sse = d2[np.arange(r)[:, None], final_labels, np.arange(n)].sum(axis=1)
    return final_labels, sse


def kmeans(points: np.ndarray, k: int, seed: int, restarts: int = RESTARTS) -> np.ndarray:
    """Cluster rows of ``points`` into ``k`` non-empty groups, minimizing
    within-cluster squared Euclidean distance over the restarts performed.

    Each restart is seeded by k-means++ on its own stream spawned from
    ``seed``, drawn in sequence; the Lloyd iterations of all restarts then
    run together.  Deterministic given ``seed``; the winner among restarts
    is the lowest (SSE, restart index) pair.  A single cluster needs no
    search: every point gets label 0.  Raises ``ValueError`` unless ``k``,
    ``restarts`` and ``seed`` are counts (:func:`~smcmix.core.check_count`)
    and ``points`` is a finite 2-D array with at least ``k`` rows whose n
    squared distances sum to a finite value for ``k >= 2``.
    """
    points = np.asarray(points, dtype=np.float64)
    check_count("k", k, 1)
    check_count("restarts", restarts, 1)
    check_count("seed", seed, 0)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got {points.ndim} dimension(s)")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    n = points.shape[0]
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    if k == 1:
        return np.zeros(n, dtype=np.intp)
    with np.errstate(over="ignore"):  # n times a bound on every squared distance
        if not np.isfinite(n * (np.ptp(points, axis=0) ** 2).sum()):
            raise ValueError("points spread too widely: their squared distances overflow")
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    centers = np.array(
        [_seed_centers(points, k, np.random.Generator(np.random.PCG64(ss))) for ss in seeds]
    )
    labels, sse = _lloyd(points, centers)
    # a copy: a row view would keep every restart's labels alive
    return labels[int(np.argmin(sse))].copy()


def _cluster_gammas(durations: np.ndarray, bounds: list, absorbing, min_obs_mass: int):
    """One cluster's gamma shape and rate rows, NaN at the absorbing state;
    ``durations[bounds[j]:bounds[j + 1]]`` are the cluster's sojourns in
    state j, and ``durations[bounds[0]:bounds[-1]]`` all of them."""
    ones = np.ones(bounds[-1] - bounds[0])

    def moment_fit(values: np.ndarray) -> GammaParams | None:
        try:
            return gamma_mom(values, ones[: values.size])
        except DegenerateSample:
            return None

    @cache
    def pooled_fit() -> GammaParams:
        values = durations[bounds[0] : bounds[-1]]
        # No spread at all: exponential with the observed mean.
        return moment_fit(values) or GammaParams(shape=1.0, rate=1.0 / float(values.mean()))

    shape, rate = np.full((2, len(bounds) - 1), np.nan)
    for j, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        if j != absorbing:
            law = (stop - start > min_obs_mass and moment_fit(durations[start:stop])) or pooled_fit()
            shape[j], rate[j] = law.shape, law.rate
    return shape, rate


def initial_model(
    panel: Panel,
    n_components: int,
    seed: int,
    restarts: int = RESTARTS,
    min_obs_mass: int = EmConfig.min_obs_mass,
) -> MixtureModel:
    """Build an EM starting model by clustering subjects on their mean
    sojourn profiles and estimating each cluster empirically.

    Initial and transition probabilities get a small additive smoothing on
    every structurally-allowed cell so the starting log-likelihood is
    finite on the training panel; the EM may drive entries back to zero.
    """
    return _clustered_model(panel, n_components, seed, restarts, min_obs_mass)[0]


def _clustered_model(
    panel: Panel,
    n_components: int,
    seed: int,
    restarts: int,
    min_obs_mass: int,
    stats: PanelStats | None = None,
) -> tuple[MixtureModel, np.ndarray]:
    """:func:`initial_model` together with the k-means labels it was
    estimated from; ``stats`` are the panel's statistics when the caller
    has them already."""
    if stats is None:
        stats = PanelStats.from_panel(panel)
    d = panel.space.n_states
    absorbing = panel.space.absorbing
    labels = kmeans(_mean_sojourns(stats), n_components, seed, restarts)
    # Every observed sojourn sorted by (cluster, state), in panel order
    # within a cell, so that each cell's durations are one slice.  numpy
    # sorts keys of at most 16 bits stably by radix, in linear time.
    cells = labels[stats.soj_cells // d] * d + stats.soj_cells % d
    keys = cells.astype(np.min_scalar_type(n_components * d))
    durations = stats.soj_durations[np.argsort(keys, kind="stable")]
    bounds = [0, *np.cumsum(np.bincount(cells, minlength=n_components * d)).tolist()]

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
        cluster = bounds[g * d : (g + 1) * d + 1]
        shape[g], rate[g] = _cluster_gammas(durations, cluster, absorbing, min_obs_mass)
    params = MixtureArrays(weights, alpha, trans, shape, rate, absorbing)
    return MixtureModel.from_arrays(panel.space, params), labels
