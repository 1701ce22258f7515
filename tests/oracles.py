"""Reference implementations that the package's vectorised paths are
tested against.

The package evaluates likelihoods only through the statistics table
(:func:`smcmix.likelihood.subject_loglik_matrix`) and fits gamma shapes
only through the array solver (:func:`smcmix.sojourn.solve_shapes`).  The
functions here compute the same quantities one trajectory, or one weighted
sample, at a time: the likelihood factor by factor from its definition,
and the penalized gamma fit as a single-cell call of the solver with the
checks a stand-alone fit needs.  :func:`reference_solve_shapes` is the
same solver with each Newton pass gathering its cells from full arrays
and scattering them back.  The alignments of :mod:`smcmix.metrics` solve
one assignment problem; the exhaustive search over all permutations here
finds the same minimum.  :func:`reference_extrapolate` is the SQUAREM
point written out with numpy's helpers (``np.linalg.norm``,
``np.split``, ``np.clip``).  The EM of :mod:`smcmix.em` runs its fits
as one lockstep stack; :func:`sequential_fit` is the one-fit-at-a-time
loop with a per-fit M-step that it replaced, and
:func:`sequential_select_g` the sweep that ran it once per component
count.  Both reach the package's helpers through the :mod:`smcmix.em`
module, so a fault injected there reaches the oracle too.

:func:`reference_write_panel` is the row-by-row panel CSV writer, one
``csv.writer`` row per state, that the trajectory-at-a-time writer must
match byte for byte on every id and label without a ``"\r"``.  It keeps
that writer's quoting, which leaves a lone ``"\r"`` unquoted.

:func:`reference_panel` is the panel sampler that drew one trajectory at
a time with scalar calls: the labels from one ``rng.choice``, then one
:func:`smcmix.sim.simulate_trajectory` per trajectory in panel order.
The array sampler :func:`smcmix.sim.simulate_panel` draws the same law
from another stream, so tests whose subject is not the sampler, and
whose inputs were drawn before that sampler existed, draw their panels
here.
"""

from __future__ import annotations

import csv
import math
from itertools import accumulate, permutations

import numpy as np
from scipy.special import gammaln, zeta

from smcmix import em, sojourn
from smcmix.core import (
    ComponentParams,
    GammaParams,
    MixtureArrays,
    MixtureModel,
    Panel,
    PosteriorMatrix,
    Trajectory,
)
from smcmix.errors import DegenerateSample, EmptyComponent, InvalidModelError
from smcmix.initialization import initial_model
from smcmix.likelihood import PanelStats, log_scores, mixture_loglik, penalty_term, penalty_weight
from smcmix.selection import CRITERIA, GSweepResult, SweepRow, aic, aicc, bic, param_count
from smcmix.sim import simulate_trajectory
from smcmix.sojourn import DEGENERATE, OK, solve_shapes, status_error


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


def _suff_stats(values, weights) -> tuple[float, float, float, int]:
    w, x = weights, values
    sw = float(w.sum())
    swx = float(np.dot(w, x))
    swlog = float(np.dot(w, np.log(x)))
    n_pos = int(np.count_nonzero(w > 0.0))
    return sw, swlog, swx, n_pos


def fit_gamma_pmle(values, weights, penalty_c: float) -> GammaParams:
    """Weighted penalized maximum-likelihood gamma fit of durations
    ``values`` with weights ``weights``.

    ``penalty_c`` is the penalty weight (zero gives the plain weighted MLE;
    :func:`smcmix.em.fit` passes ``1/sqrt(total visited-state count)``).  The
    returned shape satisfies ``|d objective / d shape| <= 1e-8`` and the
    rate is the exact profile maximizer given the shape.
    """
    if penalty_c < 0.0:
        raise ValueError("penalty_c must be nonnegative")
    sw, swlog, swx, n_pos = _suff_stats(values, weights)
    if n_pos < 2:
        raise DegenerateSample("need at least two positive-weight observations")
    shape, status = solve_shapes([sw], [swlog], [swx], penalty_c)
    if status[0] != OK:
        raise status_error(status[0])
    a = float(shape[0])
    return GammaParams(shape=a, rate=a * sw / swx)


def reference_solve_shapes(sw, swlog, swx, c: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`smcmix.sojourn.solve_shapes` on full arrays: every Newton
    pass gathers the active cells and scatters their updates back, and the
    derivative is evaluated at each cell's bracket ends.  It reads
    ``_MAX_NEWTON_ITER`` from :mod:`smcmix.sojourn` at call time, so a
    patched iteration budget applies to both."""
    sw, swlog, swx = (np.asarray(v, dtype=np.float64) for v in (sw, swlog, swx))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(swx / sw) - swlog / sw
    status = np.where((s <= 1e-12) & (c == 0.0), sojourn.DEGENERATE, sojourn.OK)
    s = np.maximum(s, 0.0)
    lo, hi = np.full(s.shape, sojourn.SHAPE_MIN), np.full(s.shape, sojourn.SHAPE_MAX)
    at_lo, at_hi = sojourn._profile_deriv(np.stack([lo, hi]), sw, s, c)
    status[(status == sojourn.OK) & ~((at_lo > 0.0) & (at_hi < 0.0))] = sojourn.BRACKET_EXHAUSTED

    with np.errstate(divide="ignore", invalid="ignore"):
        a = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    a = np.clip(np.where(s > 0.0, a, sojourn.SHAPE_MAX / 2.0),
                sojourn.SHAPE_MIN * 1.0001, sojourn.SHAPE_MAX * 0.9999)

    active = np.flatnonzero(status == sojourn.OK)
    unfinished = []
    for _ in range(sojourn._MAX_NEWTON_ITER):
        x, w = a[active], sw[active]
        f = sojourn._profile_deriv(x, w, s[active], c)
        going = np.abs(f) > sojourn.DERIV_TOL
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
        missed = np.abs(sojourn._profile_deriv(a[last], sw[last], s[last], c)) > sojourn.DERIV_TOL
        status[last[missed]] = sojourn.NOT_CONVERGED
    return a, status


def exhaustive_best_permutation(cost: np.ndarray) -> tuple[int, ...]:
    """Permutation ``perm`` minimizing ``sum(cost[t, perm[t]])``, searched
    over all G! permutations; the first minimizer in lexicographic order
    wins ties."""
    g = cost.shape[0]
    return min(permutations(range(g)), key=lambda perm: sum(cost[t, perm[t]] for t in range(g)))


def assignment_cost(cost: np.ndarray, perm) -> float:
    """``sum(cost[t, perm[t]])``, summed in row order."""
    return sum(cost[t, e] for t, e in enumerate(perm))


def _sequential_m_step_alpha_trans(stats: PanelStats, z: np.ndarray, labels):
    d = stats.n_states
    n_comp = z.shape[1]
    chain = z.T @ stats.table[:, : d + d * d]
    alpha, rows = chain[:, :d], chain[:, d:].reshape(n_comp, d, d)
    totals = rows.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha /= alpha.sum(axis=1, keepdims=True)
        trans = rows / totals[:, :, None]
        trans[:, np.arange(d), np.arange(d)] = 0.0
        trans /= trans.sum(axis=2, keepdims=True)
    never_left = totals <= 0.0
    if stats.absorbing is not None:
        never_left[:, stats.absorbing] = False
        trans[:, stats.absorbing] = 0.0
    trans = np.where(never_left[:, :, None], (1.0 - np.eye(d)) / (d - 1), trans)
    warnings = [
        f"component {g}: state {labels[h]} never left; transition row set to uniform"
        for g, h in zip(*np.nonzero(never_left))
    ]
    return alpha, trans, warnings


def _sequential_m_step_sojourn(stats: PanelStats, z: np.ndarray, penalty_c, min_obs_mass,
                               z_round, labels):
    n_comp = z.shape[1]
    d = stats.n_states
    warnings = []
    slog, sw, sx = (z.T @ stats.table[:, d + d * d :]).reshape(n_comp, 3, d).transpose(1, 0, 2)
    carrying = (z > z_round).astype(np.float64)
    n_obs = carrying.T @ stats.soj_counts
    fitted = n_obs > min_obs_mass
    cell_sw, cell_slog, cell_sx = (
        np.concatenate([m[fitted], m.sum(axis=1)]) for m in (sw, slog, sx)
    )
    cell_shape, status = em.solve_shapes(cell_sw, cell_slog, cell_sx, penalty_c)
    cell_rate = cell_shape * cell_sw / cell_sx
    n_fit = int(fitted.sum())
    shape = np.full((n_comp, d), np.nan)
    rate = np.full((n_comp, d), np.nan)
    fit_status = np.full((n_comp, d), OK)
    shape[fitted], rate[fitted], fit_status[fitted] = (
        cell_shape[:n_fit], cell_rate[:n_fit], status[:n_fit]
    )
    pooled = ~fitted | (fit_status != OK)
    if stats.absorbing is not None:
        pooled[:, stats.absorbing] = False
    for g, j in zip(*np.nonzero(pooled)):
        name = labels[j]
        if not fitted[g, j]:
            warnings.append(
                f"component {g}: state {name} has {int(n_obs[g, j])} "
                "weight-carrying observations; pooled fallback"
            )
        elif fit_status[g, j] == DEGENERATE:
            warnings.append(
                f"component {g}: degenerate sojourn sample in state {name}; pooled fallback"
            )
        else:
            warnings.append(
                f"component {g}: sojourn fit for state {name} left the "
                "shape bracket; pooled fallback"
            )
        if status[n_fit + g] != OK:
            exc = status_error(status[n_fit + g])
            raise type(exc)(f"component {g} pooled sojourn fit: {exc}") from exc
    shape = np.where(pooled, cell_shape[n_fit:, None], shape)
    rate = np.where(pooled, cell_rate[n_fit:, None], rate)
    return shape, rate, warnings


def reference_extrapolate(p0: MixtureArrays, p1: MixtureArrays, p2: MixtureArrays) -> MixtureArrays:
    """The S3 SQUAREM point of the maps ``p0 -> p1 -> p2`` (Varadhan &
    Roland, Scand. J. Stat. 2008).  Coordinates: the probabilities as they
    are, the live gamma shapes and rates in logs (0 in the absorbing
    column).  With ``r = c1 - c0`` and ``v = c2 - 2 c1 + c0`` the step is
    ``min(-|r| / |v|, -1)``, or -1 when ``v`` vanishes, and the point is
    ``c0 - 2 step r + step^2 v``.  Each probability block is projected onto
    ``p2``'s zero pattern: zero where ``p2`` is, at least the smallest
    normal float elsewhere, and renormalised along its last axis where
    the row's sum is positive.  The gamma parameters are exponentiated back, NaN in
    the absorbing column.  Non-finite values are left in place."""
    g, d = p2.alpha.shape
    live = np.arange(d) != p2.absorbing

    def coords(p):
        gamma = [np.log(np.where(live, x, 1.0)).ravel() for x in (p.shape, p.rate)]
        return np.concatenate([p.weights, p.alpha.ravel(), p.trans.ravel(), *gamma])

    c0, c1, c2 = coords(p0), coords(p1), coords(p2)
    r = c1 - c0
    v = c2 - 2.0 * c1 + c0
    v_norm = np.linalg.norm(v)
    step = -1.0 if v_norm == 0.0 else min(-np.linalg.norm(r) / v_norm, -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        c = c0 - 2.0 * step * r + step * step * v
        blocks = np.split(c, np.cumsum([g, g * d, g * d * d, g * d]))

        def project(x, ref):
            x = np.where(ref > 0.0, np.clip(x.reshape(ref.shape), np.finfo(float).tiny, None), 0.0)
            total = x.sum(axis=-1, keepdims=True)
            return np.divide(x, total, out=x, where=total > 0.0)

        shape, rate = (np.where(live, np.exp(x.reshape(g, d)), np.nan) for x in blocks[3:])
        return MixtureArrays(project(blocks[0], p2.weights), project(blocks[1], p2.alpha),
                             project(blocks[2], p2.trans), shape, rate, p2.absorbing)


def sequential_fit(panel: Panel, init: MixtureModel, cfg) -> em.FitReport:
    """The SQUAREM-accelerated penalized EM of :func:`smcmix.em.fit`, one
    fit on its own with its own M-step, as a plain loop over its cycles."""
    if init.space != panel.space:
        raise ValueError("init is defined on a different state space")

    stats = PanelStats.from_panel(panel)
    c = penalty_weight(panel) if cfg.penalized else 0.0
    labels = panel.space.labels

    def evaluate(p):
        scores, norms = log_scores(em.subject_loglik_matrix(stats, p), p.weights)
        value = float(norms.sum())
        if cfg.penalized:
            value += penalty_term(p, c)
        return (p, value, scores, norms)

    def m_step(z):
        alpha, trans, w1 = _sequential_m_step_alpha_trans(stats, z, labels)
        shape, rate, w2 = _sequential_m_step_sojourn(
            stats, z, c, cfg.min_obs_mass, cfg.z_round, labels
        )
        params = MixtureArrays(z.sum(axis=0) / z.shape[0], alpha, trans, shape, rate,
                               panel.space.absorbing)
        params.check()
        return evaluate(params), w1 + w2

    def small_change(new, old):
        return abs(new - old) / (abs(new) + 1.0) < cfg.rel_tol

    warnings = {}
    empty_streak = np.zeros(init.n_components, dtype=int)
    iterations = tried = kept = 0
    path = [evaluate(init.params)]
    trace = [path[0][1]]

    def report(point, z, n_maps, converged):
        return em.FitReport(MixtureModel.from_arrays(panel.space, point[0]), PosteriorMatrix(z),
                            tuple(trace), n_maps, converged, float(point[3].sum()),
                            tuple(warnings), tried, kept)

    def plain_map(point):
        nonlocal iterations, empty_streak
        iterations += 1
        z = em._responsibilities(point[2], point[3], cfg.z_round)
        ng = z.sum(axis=0)
        empty_streak = np.where(ng < 1.0, empty_streak + 1, 0)
        if np.any(ng == 0.0):
            starved = int(np.argmin(ng))
            warnings[f"aborted: component {starved} has no subjects"] = None
            raise EmptyComponent(starved, report=report(point, z, iterations - 1, False))
        if np.any(empty_streak >= 3):
            starved = int(np.argmax(empty_streak))
            warnings[f"aborted: component {starved} starved for 3 iterations"] = None
            raise EmptyComponent(starved, report=report(point, z, iterations - 1, False))
        new, msgs = m_step(z)
        warnings.update(dict.fromkeys(msgs))
        trace.append(new[1])
        if new[1] < point[1] - em.ASCENT_SLACK:
            warnings[
                f"objective decreased by {point[1] - new[1]:.3e} at iteration "
                f"{iterations} (small-sample safeguard side effect)"
            ] = None
        return new, small_change(new[1], point[1])

    def accelerated(p0, p1, p2):
        nonlocal iterations, tried, kept
        jump = em._extrapolate(p0[0], p1[0], p2[0])
        try:
            jump.check()
        except InvalidModelError:
            return p2, False
        with np.errstate(all="ignore"):
            at_jump = evaluate(jump)
        tried += 1
        if not np.isfinite(at_jump[1]):
            return p2, False
        z = em._responsibilities(at_jump[2], at_jump[3], cfg.z_round)
        if z.sum(axis=0).min() < 1.0:
            return p2, False
        iterations += 1
        landed, msgs = m_step(z)
        if not landed[1] >= p2[1]:
            return p2, False
        kept += 1
        empty_streak[:] = 0
        warnings.update(dict.fromkeys(msgs))
        trace.append(landed[1])
        return landed, small_change(landed[1], at_jump[1])

    converged = False
    while not converged and iterations < cfg.max_iter:
        if len(path) < 3:
            point, converged = plain_map(path[-1])
            path.append(point)
        else:
            point, converged = accelerated(*path)
            path = [point]
    point = path[-1]
    return report(point, em._responsibilities(point[2], point[3], cfg.z_round),
                  iterations, converged)


def sequential_select_g(panel: Panel, g_range, cfg, sample_size=None) -> GSweepResult:
    """The sweep of :func:`smcmix.selection.select_g`, initialising and
    fitting one component count after another with :func:`sequential_fit`."""
    g_values = sorted(set(g_range))
    n_obs = sample_size if sample_size is not None else panel.n_subjects * panel.n_replications
    stats = PanelStats.from_panel(panel)
    has_absorbing = panel.space.absorbing is not None
    rows, reports, init_labels, warnings = [], {}, {}, []
    for g in g_values:
        init, init_labels[g] = initial_model(panel, g, cfg, stats)
        aborted = False
        try:
            report = sequential_fit(panel, init, cfg)
        except EmptyComponent as exc:
            report = exc.report
            aborted = True
            warnings.append(f"G={g}: {exc}")
        reports[g] = report
        ll = report.loglik
        q = param_count(g, panel.space.n_states, has_absorbing=has_absorbing)
        try:
            corrected = aicc(ll, q, n_obs)
        except ValueError:
            corrected = None
            warnings.append(f"G={g}: aicc undefined (q={q} too large for n_obs={n_obs})")
        rows.append(SweepRow(g, ll, q, bic(ll, q, n_obs), aic(ll, q), corrected,
                             report.converged, aborted))
    chosen = {}
    for name in CRITERIA:
        scored = [(getattr(r, name), r.n_components) for r in rows if getattr(r, name) is not None]
        if scored:
            chosen[name] = min(scored)[1]
    return GSweepResult(tuple(rows), chosen, reports, init_labels, tuple(warnings))


def reference_write_panel(path, panel: Panel, subject_ids=None) -> None:
    """The panel CSV writer that formatted and wrote every row through one
    ``csv.writer`` with ``"\n"`` line ends, kept as an oracle for
    :func:`smcmix.dataio.write_panel`."""
    if subject_ids is None:
        subject_ids = [str(i + 1) for i in range(panel.n_subjects)]
    if len(subject_ids) != panel.n_subjects:
        raise ValueError("one subject id per subject required")
    labels = panel.space.labels

    states = panel.states.tolist()
    sojourns = panel.sojourns.tolist()
    a = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("subject", "replication", "attribute", "onset", "end"))
        for sid, lengths in zip(subject_ids, panel.lengths.tolist()):
            for b, n in enumerate(lengths, start=1):
                onsets = list(accumulate(sojourns[a : a + n], initial=0.0))
                for j, t in zip(states[a : a + n], onsets):
                    writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                                     for v in (sid, b, labels[j], t, onsets[-1])])
                a += n


def reference_panel(scenario, rng=None) -> tuple[Panel, np.ndarray]:
    """``scenario``'s panel and true labels drawn one trajectory at a time
    on ``rng`` (by default the stream of ``scenario.seed``)."""
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    model = scenario.model
    labels = rng.choice(model.n_components, size=scenario.n_subjects, p=model.weights)
    trajs = [simulate_trajectory(model.components[g], scenario.stop_rule, rng)
             for g in labels.tolist() for _ in range(scenario.n_replications)]
    lengths = np.array([len(t.states) for t in trajs]).reshape(scenario.n_subjects, -1)
    states = np.concatenate([t.states for t in trajs])
    sojourns = np.concatenate([t.sojourns for t in trajs])
    return Panel.from_arrays(model.space, states, sojourns, lengths), labels
