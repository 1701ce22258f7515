"""Gamma sojourn-time density and weighted (penalized) estimation.

The penalized fit maximizes

    sum_i w_i * ln f(x_i; a, lambda)  -  c * (a + ln a)

over shape ``a`` and rate ``lambda``.  The penalty is free of ``lambda``,
so the rate is profiled out exactly (``lambda = a * sum(w) / sum(w x)``)
and the problem reduces to a one-dimensional search in ``a``.  Shrinking
``a`` prevents the unbounded spikes that weighted gamma likelihoods
develop when a weighted sample degenerates toward equal durations.

The one shape solver, :func:`solve_shapes`, works on arrays of cells: the
EM M-step passes all its cells in one call, a single-sample fit passes
one.  It refines the closed-form start of Minka, "Estimating a Gamma
distribution" (2002), by safeguarded Newton steps.

The sojourn family sits behind this small density/fit interface so that a
discrete-time family (e.g. negative binomial) could be added later without
touching the EM driver; only the gamma family ships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, psi, zeta

from .core import GammaParams
from .errors import DegenerateSample, NonConvergence

# Search bracket for the shape parameter and tolerance on the profile
# objective's derivative at the returned point.
SHAPE_MIN = 1e-3
SHAPE_MAX = 1e4
DERIV_TOL = 1e-8

_MAX_NEWTON_ITER = 200


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """Positive durations with nonnegative weights (responsibilities)."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        if values.ndim != 1 or weights.ndim != 1 or values.shape != weights.shape:
            raise ValueError("values and weights must be 1-D and of equal length")
        if not np.all(values > 0.0):
            raise ValueError("durations must be strictly positive")
        if not np.all(weights >= 0.0):
            raise ValueError("weights must be nonnegative")
        if float(weights.sum()) <= 0.0:
            raise ValueError("total weight must be positive")


def gamma_log_density(t: float, p: GammaParams) -> float:
    """Log density of a gamma distribution with shape ``p.shape`` and rate
    ``p.rate`` evaluated at ``t > 0``."""
    if t <= 0.0:
        raise ValueError("gamma log-density is only defined for t > 0")
    a, lam = p.shape, p.rate
    return (a - 1.0) * math.log(t) + a * math.log(lam) - lam * t - float(gammaln(a))


def _moments(sample: WeightedSample) -> tuple[float, float]:
    w, x = sample.weights, sample.values
    sw = float(w.sum())
    mean = float(np.dot(w, x)) / sw
    var = float(np.dot(w, (x - mean) ** 2)) / sw
    return mean, var


def fit_gamma_mom(sample: WeightedSample) -> GammaParams:
    """Method-of-moments fit: shape = mean^2/var, rate = mean/var.

    Raises :class:`DegenerateSample` when the weighted variance vanishes
    (all effective durations equal); callers fall back to a pooled fit.
    """
    mean, var = _moments(sample)
    if var <= 1e-12 * mean * mean:
        raise DegenerateSample("weighted variance is zero; no moment fit exists")
    rate = mean / var
    shape = rate * mean  # keeps shape/rate == mean to rounding
    return GammaParams(shape=shape, rate=rate)


def _suff_stats(sample: WeightedSample) -> tuple[float, float, float, int]:
    w, x = sample.weights, sample.values
    sw = float(w.sum())
    swx = float(np.dot(w, x))
    swlog = float(np.dot(w, np.log(x)))
    n_pos = int(np.count_nonzero(w > 0.0))
    return sw, swlog, swx, n_pos


def _profile_deriv(a, sw, s, c):
    return sw * (np.log(a) - psi(a) - s) - c * (1.0 + 1.0 / a)


# Per-cell outcome of :func:`solve_shapes`.
OK, DEGENERATE, BRACKET_EXHAUSTED, NOT_CONVERGED = range(4)


def solve_shapes(sw, swlog, swx, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the profile objective of every cell at once.

    ``sw``, ``swlog`` and ``swx`` hold each cell's total weight, weighted
    log-sum and weighted sum.  Every cell runs safeguarded Newton on the
    profile derivative inside its own ``[lo, hi]`` bracket (bisection when
    a step leaves it) until ``|derivative| <= DERIV_TOL``, and leaves the
    batch when done, so cells never affect each other.  Returns ``(shape,
    status)``; ``shape`` is valid where ``status == OK``.
    """
    sw, swlog, swx = (np.asarray(v, dtype=np.float64) for v in (sw, swlog, swx))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(swx / sw) - swlog / sw
    status = np.where((s <= 1e-12) & (c == 0.0), DEGENERATE, OK)
    s = np.maximum(s, 0.0)
    lo, hi = np.full(s.shape, SHAPE_MIN), np.full(s.shape, SHAPE_MAX)
    at_lo, at_hi = _profile_deriv(np.stack([lo, hi]), sw, s, c)
    status[(status == OK) & ~((at_lo > 0.0) & (at_hi < 0.0))] = BRACKET_EXHAUSTED

    # Minka's closed-form start; exact for the unweighted MLE up to the
    # log-gamma expansion it is derived from.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    a = np.clip(np.where(s > 0.0, a, SHAPE_MAX / 2.0), SHAPE_MIN * 1.0001, SHAPE_MAX * 0.9999)

    active = np.flatnonzero(status == OK)
    unfinished = []  # cells whose bracket collapsed before meeting the tolerance
    for _ in range(_MAX_NEWTON_ITER):
        x, w = a[active], sw[active]
        f = _profile_deriv(x, w, s[active], c)
        going = np.abs(f) > DERIV_TOL
        active, x, w, f = active[going], x[going], w[going], f[going]
        if active.size == 0:
            break
        up = f > 0.0
        l = np.where(up, x, lo[active])
        h = np.where(up, hi[active], x)
        fp = w * (1.0 / x - zeta(2.0, x)) + c / (x * x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fp < 0.0, x - f / fp, np.nan)
        inside = np.isfinite(step) & (l < step) & (step < h)
        a[active] = np.where(inside, step, 0.5 * (l + h))
        lo[active], hi[active] = l, h
        collapsed = h - l <= 1e-15 * h
        unfinished.append(active[collapsed])
        active = active[~collapsed]
    last = np.concatenate([active, *unfinished])
    if last.size:
        missed = np.abs(_profile_deriv(a[last], sw[last], s[last], c)) > DERIV_TOL
        status[last[missed]] = NOT_CONVERGED
    return a, status


def status_error(status: int) -> Exception:
    """The error a non-OK :func:`solve_shapes` status stands for."""
    if status == DEGENERATE:
        return DegenerateSample(
            "sample variance is numerically zero; the unpenalized likelihood has no maximizer"
        )
    if status == BRACKET_EXHAUSTED:
        return NonConvergence(f"shape search bracket [{SHAPE_MIN:g}, {SHAPE_MAX:g}] exhausted")
    return NonConvergence("shape search failed to meet the derivative tolerance")


def fit_gamma_pmle(sample: WeightedSample, penalty_c: float) -> GammaParams:
    """Weighted penalized maximum-likelihood gamma fit.

    ``penalty_c`` is the penalty weight (zero gives the plain weighted MLE;
    the EM driver passes ``1/sqrt(total visited-state count)``).  The
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
