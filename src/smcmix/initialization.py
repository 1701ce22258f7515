"""Starting points for the EM: k-means on mean sojourn profiles, then
method-of-moments estimates within each cluster.

Subjects separate well on their mean sojourn time per state, so a cheap
k-means on those D-dimensional profiles gives hard labels from which all
model parameters are estimated by empirical frequencies and moments.  The
k-means here is Lloyd's algorithm with k-means++ seeding and restarts; any
local minimizer of the within-cluster squared error serves as an
initializer.  The k-means++ seedings of all restarts run as one array
pass, each restart drawing from its own random stream: a pick is the
index ``Generator.choice`` would draw from the restart's distances, read
from one ``random()`` against cumulative sums built for all restarts at
once, so the pick and the stream after it are those of ``choice``.  The
Lloyd iterations of all restarts then run as one array loop that drops
each restart once its labels stop changing, or once a re-seed finds the
points of every shared cluster on its centre.  Each iteration labels every point
by one matrix product, |c|² - 2c·x + |x|², and hands the few (restart,
point) pairs the product's rounding leaves in doubt to the exact
distances.  Every restart gets the labels and error its own loop would
give, bit for bit.  One cluster needs no search and draws nothing.

The moment estimates read the panel's own sojourns: each is keyed by its
subject's cluster and its state, and one stable sort by that key makes
each cell's durations one slice, in panel order, fitted by
:func:`smcmix.sojourn.gamma_mom` without re-checking a sample the panel
has already checked.  The k-means profiles and the frequency estimates
come from the per-subject table of :class:`~smcmix.likelihood.PanelStats`.
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


# Lloyd iterations each restart may take before its labels are final.
_LLOYD_ITERATIONS = 300

# The smallest normal double: a bound on the error gradual underflow adds.
_TINY = np.finfo(np.float64).tiny


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``points`` and ``centers``,
    broadcast against each other, each summed over D as ``.sum()`` sums the
    (D,) squared differences of one pair: the arithmetic that defines every
    label and error :func:`kmeans` returns."""
    return np.square(points - centers).sum(axis=-1)


def _seed_restarts(points: np.ndarray, k: int, rngs: list) -> np.ndarray:
    """k-means++ seeding of one restart per generator in ``rngs``: (R, k, D)
    rows of ``points``.  Each restart draws from its own generator the
    values it would draw seeded alone; the distances to each restart's
    closest centre are updated for all R restarts in one (R, n) pass.

    A pick is ``rng.choice(n, p=closest / total)``, bit for bit: as
    ``Generator.choice`` does, the cumulative sum of the probabilities is
    divided by its last entry, and the pick is the number of its entries
    at or below one ``rng.random()`` (``searchsorted(side="right")``).
    The (R, n) sums are built once per centre for all restarts; a restart
    whose points all sit on its centres (``total == 0``) draws its pick
    by ``rng.integers(n)`` instead."""
    n = points.shape[0]
    picks = np.empty((len(rngs), k), dtype=np.intp)
    picks[:, 0] = [rng.integers(n) for rng in rngs]
    closest = _sq_distances(points, points[picks[:, 0], None])
    for c in range(1, k):
        totals = closest.sum(axis=1)
        live = totals > 0.0
        cdf = np.cumsum(closest[live] / totals[live, None], axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rng.random() for rng, on in zip(rngs, live) if on])
        picks[live, c] = (cdf <= u[:, None]).sum(axis=1)
        for i in np.flatnonzero(~live):
            picks[i, c] = rngs[i].integers(n)
        if c < k - 1:  # the last centre's distances would never be read
            np.minimum(closest, _sq_distances(points, points[picks[:, c], None]), out=closest)
    return points[picks]


def _nearest(
    points: np.ndarray,
    columns: np.ndarray | None,
    sq_norms: np.ndarray,
    norms: np.ndarray,
    centers: np.ndarray,
) -> np.ndarray:
    """(A, n) index of each point's nearest centre in each of A restarts'
    (A, k, D) ``centers``, the first on a tie: the ``argmin`` over k of
    :func:`_sq_distances`, bit for bit.  ``columns`` is the (D, n)
    transpose of the points times -2, or None where the product may
    overflow (below); ``sq_norms`` and ``norms`` are the points' (n,)
    squared and plain norms.

    Every distance is first estimated by one product, |c|² - 2c·x + |x|².
    A label is kept where each other centre's estimate exceeds the
    winner's by more than a margin γ·(S + λ), with S = (|x| + max|c|)²
    over the iteration's centres and λ the smallest normal double; the
    other (restart, point) pairs are labelled from the exact distances.

    The margin, from the dot-product error bounds of Higham, *Accuracy and
    Stability of Numerical Algorithms* (2nd ed.), §3.1, with u = 2⁻⁵³ and
    γ_m = mu/(1 - mu); note d = |x - c|² <= S:

    - the exact arithmetic rounds each difference, each square and D - 1
      sums of nonnegative terms, so it lies within γ_{D+2}·d of d;
    - |c|², |x|² and c·x are dot products, each within γ_D of its value
      summed in absolute terms (Higham (3.5), in any summation order, fused
      or not), which totals γ_D·(|c| + |x|)² <= γ_D·S by Cauchy–Schwarz;
      the two additions round partial sums no larger than S(1 + γ_D), so
      the estimate lies within γ_{D+2}·S of d;
    - gradual underflow adds at most u·λ per product, and the estimates
      and exact distances to the two centres hold 8D products between them.

    So where est_j - est_w > 4γ_{D+2}·S + 8D·u·λ, the exact distance to
    centre j exceeds that to the winner w, and ``argmin`` picks w.
    γ = 16(D + 4)u covers that bound four times over, which absorbs the
    rounding of the gap, of |x|, of max|c| and of the margin itself.

    Every centre is a point or a mean of points, so its norm is at most
    the largest point norm, up to rounding.  Below 2⁴⁹⁹ for that norm, S
    and every term of an estimate stay far below overflow; at or above it
    (or where a squared norm overflowed), the caller passes no
    ``columns`` and every pair is labelled exactly.  Scaling by -2 is
    exact, so -2c·x is c·(-2x) bit for bit, up to gradual underflow,
    which the margin already bounds per product.
    """
    a, k, d = centers.shape
    if columns is None:
        return _sq_distances(points[:, None], centers[:, None]).argmin(axis=2)
    flat = centers.reshape(a * k, d)
    c2 = np.einsum("ij,ij->i", flat, flat)
    est = flat @ columns
    est += c2[:, None]
    est += sq_norms
    est = est.reshape(a, k, -1)
    margin = norms + np.sqrt(c2.max())
    np.square(margin, out=margin)
    margin += _TINY
    margin *= 16 * (d + 4) * 2.0**-53
    # The smallest estimate over k, its index, and the next estimate above it.
    best = np.minimum(est[:, 0], est[:, 1])
    second = np.maximum(est[:, 0], est[:, 1])
    labels = (est[:, 1] < est[:, 0]).astype(np.intp)
    for j in range(2, k):
        closer = est[:, j] < best
        np.minimum(second, est[:, j], out=second)
        np.copyto(second, best, where=closer)
        np.copyto(best, est[:, j], where=closer)
        np.copyto(labels, j, where=closer)
    rows, cols = np.nonzero(~(second - best > margin))
    if rows.size:
        labels[rows, cols] = _sq_distances(points[cols, None], centers[rows]).argmin(axis=1)
    return labels


def _cluster_sizes(labels: np.ndarray, k: int) -> np.ndarray:
    """(A, k) cluster sizes of the (A, n) labellings of A restarts."""
    a = len(labels)
    return np.bincount((labels + k * np.arange(a)[:, None]).ravel(), minlength=a * k).reshape(a, k)


def _reseed(points: np.ndarray, centers: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> bool:
    """Re-seed the empty clusters of one restart in place, each from the
    point farthest from its centre, among points whose cluster keeps another
    member: moving a lone point would empty its cluster, whose mean would
    then be NaN.  ``sizes`` are the (k,) cluster sizes, kept up to date.  A
    moved point's cluster then has one member, so the distances to the
    centres as they were on entry serve every move.  Returns whether a moved
    point sat on its centre: every shared cluster's points then do, so no
    labelling lowers the error, and Lloyd's loop would only trade points
    between equal centres."""
    own = _sq_distances(points, centers[labels])
    stalled = False
    for c in np.flatnonzero(sizes == 0):
        far = int(np.argmax(np.where(sizes[labels] > 1, own, -1.0)))
        stalled |= bool(own[far] == 0.0)
        sizes[labels[far]] -= 1
        sizes[c] = 1
        centers[c] = points[far]
        labels[far] = c
    return stalled


def _means(points: np.ndarray, spread: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(A, k, D) cluster means of the (A, n) labellings ``labels``, whose
    (A, k) cluster ``sizes`` are all positive.

    ``spread[i * k + c]`` is a zero (k, D) block with point i in row c;
    gathered by label and summed over the point axis, it adds each
    cluster's members in point order, as ``.mean(axis=0)`` over the members
    does when D >= 2, so the two agree bit for bit (the zeros of the other
    points change at most the sign of a zero sum).  A single column is
    summed pairwise by ``.mean``, so it keeps that call.
    """
    k = spread.shape[1]
    if points.shape[1] == 1:
        return np.array([[points[row == c].mean(axis=0) for c in range(k)] for row in labels])
    rows = labels.T + np.arange(0, spread.shape[0], k)[:, None]
    return np.take(spread, rows, axis=0).sum(axis=0) / sizes[:, :, None]


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from each of R seedings ``centers`` (R, k, D),
    k >= 2, run as one loop over the restarts still active; returns every restart's
    (R, n) labels and (R,) within-cluster squared error.

    A restart leaves the active set on the first iteration that leaves its
    labels unchanged or whose re-seed moved a point at distance 0 from its
    centre (:func:`_reseed`), or after ``_LLOYD_ITERATIONS``; its error is
    that of its last labels about their means.  Each iteration labels
    the points of all active restarts by one matrix product, checked
    against its rounding margin (:func:`_nearest`); re-seeding and the
    final errors use the exact distances of :func:`_sq_distances`.
    """
    r, k, d = centers.shape
    n = points.shape[0]
    with np.errstate(over="ignore"):  # an infinite norm leaves every label to the exact distances
        sq_norms = np.einsum("ij,ij->i", points, points)
    norms = np.sqrt(sq_norms)
    # Past this norm the product estimates may overflow (see _nearest).
    columns = (-2.0 * points).T.copy() if norms.max() < 2.0**499 else None
    spread = np.zeros((n, k, k, d))
    spread[:, np.arange(k), np.arange(k)] = points[:, None, :]
    spread = spread.reshape(n * k, k, d)
    centers = centers.copy()
    final_labels = np.empty((r, n), dtype=np.intp)
    active = np.arange(r)
    labels = np.full((r, n), -1, dtype=np.intp)
    for _ in range(_LLOYD_ITERATIONS):
        new = _nearest(points, columns, sq_norms, norms, centers)
        sizes = _cluster_sizes(new, k)
        done = np.zeros(len(active), dtype=bool)
        if not sizes.all():
            for i in np.flatnonzero((sizes == 0).any(axis=1)):
                done[i] = _reseed(points, centers[i], new[i], sizes[i])
        done |= (new == labels).all(axis=1)
        if done.any():
            final_labels[active[done]] = new[done]
            keep = ~done
            active, new, sizes = active[keep], new[keep], sizes[keep]
            if not active.size:
                break
        labels = new
        centers = _means(points, spread, labels, sizes)
    else:
        final_labels[active] = labels
    # Where a restart's labels repeated, these are the centres it ended with
    # (a re-seeded one-point cluster is its own mean); else those it would take.
    means = _means(points, spread, final_labels, _cluster_sizes(final_labels, k))
    # (R, n) rows, each summed as the 1-D errors of one restart would be.
    sse = _sq_distances(points, means[np.arange(r)[:, None], final_labels]).sum(axis=1)
    return final_labels, sse


def kmeans(points: np.ndarray, k: int, seed: int, restarts: int = EmConfig.restarts) -> np.ndarray:
    """Cluster rows of ``points`` into ``k`` non-empty groups, minimizing
    within-cluster squared Euclidean distance over the restarts performed.

    Each restart is seeded by k-means++ on its own stream spawned from
    ``seed``; the seedings of all restarts, then their Lloyd iterations,
    run together, and each restart's labels and error equal those of the
    restart run alone, bit for bit.  Deterministic given ``seed``; the
    winner among restarts is the lowest (SSE, restart index) pair.  A
    single cluster needs no search: every point gets label 0.  Raises
    ``ValueError`` unless ``k``, ``restarts`` and ``seed`` are counts
    (:func:`~smcmix.core.check_count`) and ``points`` is a finite 2-D array
    with at least ``k`` rows whose n squared distances sum to a finite
    value for ``k >= 2``.
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
    rngs = [np.random.Generator(np.random.PCG64(ss)) for ss in seeds]
    labels, sse = _lloyd(points, _seed_restarts(points, k, rngs))
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
    panel: Panel, n_components: int, cfg: EmConfig, stats: PanelStats | None = None
) -> tuple[MixtureModel, np.ndarray]:
    """Build an EM starting model by clustering subjects on their mean
    sojourn profiles and estimating each cluster empirically; returns the
    model and the k-means labels (one per subject) it was estimated from.
    The k-means runs ``cfg.restarts`` restarts from ``cfg.seed``, and a
    cluster's state with at most ``cfg.min_obs_mass`` sojourns takes the
    cluster's pooled moment fit.

    Initial and transition probabilities get a small additive smoothing on
    every structurally-allowed cell so the starting log-likelihood is
    finite on the training panel; the EM may drive entries back to zero.
    ``stats`` are the panel's statistics when the caller has them already.
    ``n_components`` is a count (:func:`~smcmix.core.check_count`).
    """
    check_count("n_components", n_components, 1)
    if stats is None:
        stats = PanelStats.from_panel(panel)
    d = panel.space.n_states
    absorbing = panel.space.absorbing
    labels = kmeans(_mean_sojourns(stats), n_components, cfg.seed, cfg.restarts)
    # Every observed sojourn sorted by (cluster, state), in panel order
    # within a cell, so that each cell's durations are one slice.  numpy
    # sorts keys of at most 16 bits stably by radix, in linear time.
    cells = np.repeat(labels, panel.lengths.sum(axis=1)) * d + panel.states
    durations = panel.sojourns
    if absorbing is not None:  # the absorbing state has no sojourn
        live = panel.states != absorbing
        cells, durations = cells[live], durations[live]
    keys = cells.astype(np.min_scalar_type(n_components * d))
    durations = durations[np.argsort(keys, kind="stable")]
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
        shape[g], rate[g] = _cluster_gammas(durations, cluster, absorbing, cfg.min_obs_mass)
    params = MixtureArrays(weights, alpha, trans, shape, rate, absorbing)
    return MixtureModel.from_arrays(panel.space, params), labels
