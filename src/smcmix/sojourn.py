"""Weighted gamma sojourn-time estimation: the moment fit that
initialization uses and the penalized shape solver that the EM uses.

The EM's sojourn M-step maximizes, for every component and state,

    sum_i w_i * ln f(x_i; a, lambda)  -  c * (a + ln a)

over shape ``a`` and rate ``lambda``.  The penalty is free of ``lambda``,
so the rate is profiled out exactly (``lambda = a * sum(w) / sum(w x)``)
and the problem reduces to a one-dimensional search in ``a``.  Shrinking
``a`` prevents the unbounded spikes that weighted gamma likelihoods
develop when a weighted sample degenerates toward equal durations.

The shape solver, :func:`solve_shapes`, works on arrays of cells: the EM
M-step passes all its component-by-state cells in one call.  It refines
the closed-form start of Minka, "Estimating a Gamma distribution" (2002),
by safeguarded Newton steps.  The cells still moving are carried from
pass to pass as compacted arrays, and a cell's shape is written back
when it leaves; the derivative's cell-free terms at the bracket ends are
constants.  The gamma log-density itself is evaluated only inside the
likelihood matrix of :mod:`smcmix.likelihood`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import psi, zeta

from .core import GammaParams
from .errors import DegenerateSample, NonConvergence

# Search bracket for the shape parameter and tolerance on the profile
# objective's derivative at the returned point.
SHAPE_MIN = 1e-3
SHAPE_MAX = 1e4
DERIV_TOL = 1e-8

_MAX_NEWTON_ITER = 200

# The terms of the profile derivative at the bracket ends that are free of
# the cell: ln(a) - psi(a) and 1 + 1/a.
_BRACKET = np.array([SHAPE_MIN, SHAPE_MAX])
_LOG_PSI_MIN, _LOG_PSI_MAX = np.log(_BRACKET) - psi(_BRACKET)
_INV_MIN, _INV_MAX = 1.0 + 1.0 / _BRACKET


def gamma_mom(x: np.ndarray, w: np.ndarray) -> GammaParams:
    """Method-of-moments fit of durations ``x`` with weights ``w``:
    shape = mean^2/var, rate = mean/var.

    ``x`` and ``w`` are 1-D float arrays of equal length, every duration
    strictly positive, every weight nonnegative and their sum positive;
    they are taken unchecked, so they come from a checked
    :class:`~smcmix.core.Panel`.  Raises :class:`DegenerateSample` when the
    weighted variance vanishes (all effective durations equal); callers
    fall back to a pooled fit.
    """
    sw = float(w.sum())
    mean = float(np.dot(w, x)) / sw
    var = float(np.dot(w, (x - mean) ** 2)) / sw
    if var <= 1e-12 * mean * mean:
        raise DegenerateSample("weighted variance is zero; no moment fit exists")
    rate = mean / var
    shape = rate * mean  # keeps shape/rate == mean to rounding
    return GammaParams(shape=shape, rate=rate)


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
    # A step may divide by fp == 0; an empty or degenerate cell by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(swx / sw) - swlog / sw
        status = np.where((s <= 1e-12) & (c == 0.0), DEGENERATE, OK)
        s = np.maximum(s, 0.0)
        at_lo = sw * (_LOG_PSI_MIN - s) - c * _INV_MIN
        at_hi = sw * (_LOG_PSI_MAX - s) - c * _INV_MAX
        status[(status == OK) & ~((at_lo > 0.0) & (at_hi < 0.0))] = BRACKET_EXHAUSTED

        # Minka's closed-form start; exact for the unweighted MLE up to the
        # log-gamma expansion it is derived from.  NaN passes the clamp.
        a = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        a = np.minimum(np.maximum(np.where(s > 0.0, a, SHAPE_MAX / 2.0), SHAPE_MIN * 1.0001),
                       SHAPE_MAX * 0.9999)

        # The cells still moving, compacted: index, shape, weight, s, bracket.
        # A cell's shape goes back to ``a`` when it leaves.
        idx = (status == OK).nonzero()[0]
        x, w, sk = a[idx], sw[idx], s[idx]
        lo, hi = np.full(idx.size, SHAPE_MIN), np.full(idx.size, SHAPE_MAX)
        unfinished = []  # cells whose bracket collapsed before meeting the tolerance
        for _ in range(_MAX_NEWTON_ITER):
            if idx.size == 0:
                break
            f = _profile_deriv(x, w, sk, c)
            going = np.abs(f) > DERIV_TOL
            if not going.all():
                a[idx[~going]] = x[~going]
                idx, x, w, sk, lo, hi, f = (v[going] for v in (idx, x, w, sk, lo, hi, f))
                if idx.size == 0:
                    break
            up = f > 0.0
            lo = np.where(up, x, lo)
            hi = np.where(up, hi, x)
            fp = w * (1.0 / x - zeta(2.0, x)) + c / (x * x)
            # Newton's step where the derivative falls, bisection otherwise
            # and where the step leaves the bracket (a non-finite one does).
            step = x - f / fp
            x = np.where((fp < 0.0) & (lo < step) & (step < hi), step, 0.5 * (lo + hi))
            collapsed = hi - lo <= 1e-15 * hi
            if collapsed.any():
                a[idx[collapsed]] = x[collapsed]
                unfinished.append(idx[collapsed])
                idx, x, w, sk, lo, hi = (v[~collapsed] for v in (idx, x, w, sk, lo, hi))
        a[idx] = x
        last = np.concatenate([idx, *unfinished])
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
