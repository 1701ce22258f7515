import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln as scipy_gammaln
from scipy.special import psi as scipy_psi
from scipy.special import zeta as scipy_zeta

from smcmix import (
    DegenerateSample,
    GammaParams,
    NonConvergence,
    WeightedSample,
    fit_gamma_mom,
)
from smcmix import sojourn
from smcmix.sojourn import (
    BRACKET_EXHAUSTED,
    DEGENERATE,
    DERIV_TOL,
    NOT_CONVERGED,
    OK,
    SHAPE_MAX,
    SHAPE_MIN,
    _profile_deriv,
    solve_shapes,
    status_error,
)

from oracles import _suff_stats, fit_gamma_pmle, gamma_log_density, reference_solve_shapes


def unit_sample(values):
    values = np.asarray(values, dtype=float)
    return WeightedSample(values=values, weights=np.ones_like(values))


def independent_objective(sample: WeightedSample, a: float, c: float) -> float:
    """Penalized weighted gamma log-likelihood with the rate profiled out,
    written directly from the definition (test-local oracle)."""
    w, x = sample.weights, sample.values
    sw = float(w.sum())
    lam = a * sw / float(np.dot(w, x))
    ll = float(
        np.dot(w, (a - 1.0) * np.log(x) + a * math.log(lam) - lam * x)
    ) - sw * float(scipy_gammaln(a))
    return ll - c * (a + math.log(a))


class TestGammaLogDensity:
    def test_exponential_special_case(self):
        assert gamma_log_density(1.0, GammaParams(1.0, 1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_shape_two_closed_form(self):
        val = gamma_log_density(2.0, GammaParams(2.0, 1.0))
        assert val == pytest.approx(math.log(2.0) - 2.0, abs=1e-12)

    def test_reference_point_high_precision(self):
        # mpmath 50-digit evaluation of the same expression
        expected = -2.359649636334879138369393
        assert gamma_log_density(6.9, GammaParams(2.83, 0.41)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_log_density(0.0, GammaParams(1.0, 1.0))
        with pytest.raises(ValueError):
            gamma_log_density(-1.0, GammaParams(1.0, 1.0))

    @pytest.mark.parametrize(
        "shape,rate",
        [(2.83, 0.41), (1.18, 0.15), (3.86, 1.45), (0.7, 0.9), (1.0, 1.0)],
    )
    def test_integrates_to_one(self, shape, rate):
        p = GammaParams(shape, rate)
        upper = p.mean + 40.0 / rate
        total, _ = quad(
            lambda t: math.exp(gamma_log_density(t, p)), 0.0, upper, limit=200
        )
        assert 1.0 - 1e-6 <= total <= 1.0 + 1e-9


class TestSpecialFunctionAccuracy:
    """The solver leans on scipy's digamma/log-gamma; verify them against an
    arbitrary-precision oracle over the search bracket."""

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for x in np.geomspace(1e-3, 1e4, 60):
            d_true = float(mp.digamma(mp.mpf(float(x))))
            g_true = float(mp.log(mp.gamma(mp.mpf(float(x)))))
            assert abs(float(scipy_psi(x)) - d_true) <= 1e-12
            assert abs(float(scipy_gammaln(x)) - g_true) <= max(1e-12, 5e-15 * abs(g_true))


class TestWeightedSample:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            WeightedSample(values=np.array([1.0, 0.0]), weights=np.array([1.0, 1.0]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            WeightedSample(values=np.array([1.0, 2.0]), weights=np.array([1.0, -1.0]))

    def test_rejects_zero_total_weight(self):
        with pytest.raises(ValueError):
            WeightedSample(values=np.array([1.0, 2.0]), weights=np.array([0.0, 0.0]))


class TestFitGammaMom:
    def test_closed_form(self):
        p = fit_gamma_mom(unit_sample([1.0, 2.0, 3.0]))
        assert p.shape == pytest.approx(6.0, rel=1e-12)
        assert p.rate == pytest.approx(3.0, rel=1e-12)

    def test_zero_weight_equals_dropping(self):
        with_zero = WeightedSample(
            values=np.array([1.0, 2.0, 3.0]), weights=np.array([1.0, 1.0, 0.0])
        )
        dropped = unit_sample([1.0, 2.0])
        a = fit_gamma_mom(with_zero)
        b = fit_gamma_mom(dropped)
        assert (a.shape, a.rate) == (b.shape, b.rate)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(41)
        draws = rng.gamma(2.4, 1.0 / 0.5, size=100_000)
        p = fit_gamma_mom(unit_sample(draws))
        assert 2.3 <= p.shape <= 2.5
        assert 0.47 <= p.rate <= 0.53

    def test_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_gamma_mom(unit_sample([2.0, 2.0, 2.0]))

    def test_mean_identity(self):
        rng = np.random.default_rng(7)
        values = rng.gamma(2.0, 3.0, size=50)
        weights = rng.random(50)
        sample = WeightedSample(values=values, weights=weights)
        p = fit_gamma_mom(sample)
        mean = float(np.dot(weights, values) / weights.sum())
        assert p.mean == pytest.approx(mean, rel=1e-12)


class TestFitGammaPmle:
    def test_agrees_with_mom_on_large_sample(self):
        rng = np.random.default_rng(2029)
        draws = rng.gamma(2.2, 1.0 / 0.7, size=100_000)
        sample = unit_sample(draws)
        mle = fit_gamma_pmle(sample, penalty_c=0.0)
        mom = fit_gamma_mom(sample)
        assert mle.shape == pytest.approx(mom.shape, rel=0.05)
        assert mle.rate == pytest.approx(mom.rate, rel=0.05)

    def test_shape_grows_toward_degeneracy(self):
        # values squeezed toward equality: the unpenalized shape blows up
        base = np.arange(10, dtype=float)
        a_mild = fit_gamma_pmle(unit_sample(1.0 + 1e-2 * base), penalty_c=0.0).shape
        assert a_mild > 500.0
        with pytest.raises(NonConvergence):
            fit_gamma_pmle(unit_sample(1.0 + 1e-3 * base), penalty_c=0.0)

    def test_penalty_tames_degeneracy(self):
        sample = unit_sample(1.0 + 1e-2 * np.arange(10, dtype=float))
        fitted = fit_gamma_pmle(sample, penalty_c=0.1)
        a_hat = fitted.shape
        assert np.isfinite(a_hat) and a_hat < 1e4
        assert independent_objective(sample, a_hat, 0.1) > independent_objective(
            sample, 10.0 * a_hat, 0.1
        )
        # grid-scan oracle: no grid point beats the solver's maximizer
        grid = np.geomspace(1e-3, 1e4, 4000)
        best_grid = max(independent_objective(sample, a, 0.1) for a in grid)
        assert independent_objective(sample, a_hat, 0.1) >= best_grid - 1e-9

    def test_profile_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            values = rng.gamma(2.0, 2.0, size=200)
            weights = rng.random(200) + 0.01
            sample = WeightedSample(values=values, weights=weights)
            p = fit_gamma_pmle(sample, penalty_c=0.05)
            lam_profile = p.shape * weights.sum() / np.dot(weights, values)
            assert p.rate == pytest.approx(lam_profile, rel=1e-10)

    def test_penalty_monotone_in_c(self):
        rng = np.random.default_rng(3)
        sample = unit_sample(rng.gamma(3.0, 1.5, size=60))
        shapes = [
            fit_gamma_pmle(sample, penalty_c=c).shape for c in (0.0, 0.01, 0.1, 1.0, 10.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(shapes, shapes[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        values = rng.gamma(2.5, 1.2, size=80)
        weights = rng.random(80) + 0.05
        sample = WeightedSample(values=values, weights=weights)
        sw, swlog, swx, _ = _suff_stats(sample)
        s = math.log(swx / sw) - swlog / sw
        c = 0.07
        for a in rng.uniform(0.2, 30.0, size=20):
            h = 1e-5 * a
            numeric = (
                independent_objective(sample, a + h, c)
                - independent_objective(sample, a - h, c)
            ) / (2 * h)
            analytic = _profile_deriv(a, sw, s, c)
            assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-7)

    def test_returned_derivative_small(self):
        rng = np.random.default_rng(13)
        sample = unit_sample(rng.gamma(2.0, 3.0, size=500))
        p = fit_gamma_pmle(sample, penalty_c=0.02)
        sw, swlog, swx, _ = _suff_stats(sample)
        s = math.log(swx / sw) - swlog / sw
        assert abs(_profile_deriv(p.shape, sw, s, 0.02)) <= 1e-8

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateSample):
            fit_gamma_pmle(unit_sample([2.0, 2.0, 2.0, 2.0]), penalty_c=0.0)
        with pytest.raises(DegenerateSample):
            fit_gamma_pmle(
                WeightedSample(values=np.array([1.0, 2.0]), weights=np.array([1.0, 0.0])),
                penalty_c=0.1,
            )
        with pytest.raises(ValueError):
            fit_gamma_pmle(unit_sample([1.0, 2.0]), penalty_c=-0.5)

    def test_overwhelming_penalty_exhausts_lower_bracket(self):
        # a penalty far heavier than the data pushes the maximizer below
        # the smallest admissible shape
        with pytest.raises(NonConvergence):
            fit_gamma_pmle(unit_sample([1.0, 2.0]), penalty_c=50.0)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=8, max_size=40),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_profile_identity_property(values, penalty_c):
    values = np.asarray(values)
    if np.ptp(values) < 1e-3:
        return
    sample = WeightedSample(values=values, weights=np.ones_like(values))
    try:
        p = fit_gamma_pmle(sample, penalty_c=penalty_c)
    except NonConvergence:
        return
    lam = p.shape * len(values) / values.sum()
    assert p.rate == pytest.approx(lam, rel=1e-10)


def _cells(samples):
    stats = [_suff_stats(s)[:3] for s in samples]
    return [np.array(col) for col in zip(*stats)]


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=8, max_size=30),
        min_size=1,
        max_size=6,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_solve_shapes_matches_single_cell_fits(batch, penalty_c):
    samples = [unit_sample(values) for values in batch]
    sw, swlog, swx = _cells(samples)
    shapes, status = solve_shapes(sw, swlog, swx, penalty_c)
    for k, sample in enumerate(samples):
        if status[k] != OK:
            with pytest.raises((DegenerateSample, NonConvergence)):
                fit_gamma_pmle(sample, penalty_c=penalty_c)
            continue
        s = math.log(swx[k] / sw[k]) - swlog[k] / sw[k]
        assert abs(_profile_deriv(shapes[k], sw[k], max(s, 0.0), penalty_c)) <= DERIV_TOL
        assert shapes[k] == fit_gamma_pmle(sample, penalty_c=penalty_c).shape


def test_solve_shapes_mixed_batch_keeps_cells_apart():
    rng = np.random.default_rng(17)
    degenerate = unit_sample([2.0, 2.0, 2.0, 2.0])
    exhausted = unit_sample(1.0 + 1e-3 * np.arange(10, dtype=float))
    normal = unit_sample(rng.gamma(2.5, 1.5, size=40))
    batch = [degenerate, exhausted, normal]
    shapes, status = solve_shapes(*_cells(batch), 0.0)
    assert status.tolist() == [DEGENERATE, BRACKET_EXHAUSTED, OK]
    assert shapes[2] == fit_gamma_pmle(normal, penalty_c=0.0).shape
    # the same cells in reverse order, and each cell on its own, agree
    rev_shapes, rev_status = solve_shapes(*_cells(batch[::-1]), 0.0)
    assert rev_status.tolist() == status.tolist()[::-1]
    assert rev_shapes[0] == shapes[2]
    for k, sample in enumerate(batch):
        solo_shape, solo_status = solve_shapes(*_cells([sample]), 0.0)
        assert solo_status[0] == status[k]
        if status[k] == OK:
            assert solo_shape[0] == shapes[k]
    assert isinstance(status_error(DEGENERATE), DegenerateSample)
    assert "bracket" in str(status_error(BRACKET_EXHAUSTED))
    with pytest.raises(DegenerateSample):
        fit_gamma_pmle(degenerate, penalty_c=0.0)
    with pytest.raises(NonConvergence, match="bracket"):
        fit_gamma_pmle(exhausted, penalty_c=0.0)


def _newton_updates(sw, swlog, swx, c):
    """Updates one cell of :func:`solve_shapes` makes, replayed on its own:
    Minka's start, then safeguarded Newton steps (bisection when a step
    leaves the bracket) until the derivative meets the tolerance."""
    sw, swlog, swx = (np.array([v]) for v in (sw, swlog, swx))
    s = np.maximum(np.log(swx / sw) - swlog / sw, 0.0)
    a = np.clip((3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s),
                SHAPE_MIN * 1.0001, SHAPE_MAX * 0.9999)
    lo, hi, updates = SHAPE_MIN, SHAPE_MAX, 0
    while abs(f := _profile_deriv(a, sw, s, c)[0]) > DERIV_TOL:
        lo, hi = (a[0], hi) if f > 0.0 else (lo, a[0])
        fp = sw * (1.0 / a - scipy_zeta(2.0, a)) + c / (a * a)
        step = a - f / fp
        a = step if lo < step[0] < hi else np.array([0.5 * (lo + hi)])
        updates += 1
    return updates


def test_solve_shapes_calls_trigamma_once_per_newton_update(monkeypatch):
    calls = []

    def counting(n, x):
        calls.append(np.size(x))
        return scipy_zeta(n, x)

    monkeypatch.setattr(sojourn, "zeta", counting)
    rng = np.random.default_rng(23)
    samples = [unit_sample(rng.gamma(a, 1.0, size=30)) for a in (0.3, 1.0, 2.5, 12.0, 80.0)]
    cells = _cells(samples)
    for c in (0.0, 0.05):
        updates = [_newton_updates(*cell, c) for cell in zip(*cells)]
        assert min(updates) >= 1 and max(updates) >= 3
        for k, cell in enumerate(zip(*cells)):
            calls.clear()
            shape, status = solve_shapes(*([v] for v in cell), c)
            assert status[0] == OK
            assert len(calls) == updates[k]
        # a batch makes one call per pass, and no pass without an update
        calls.clear()
        solve_shapes(*cells, c)
        assert len(calls) == max(updates)
        assert min(calls) > 0


def test_solve_shapes_never_evaluates_the_derivative_on_no_cells(monkeypatch):
    sizes = []

    def counting(a, sw, s, c):
        sizes.append(np.size(a))
        return _profile_deriv(a, sw, s, c)

    monkeypatch.setattr(sojourn, "_profile_deriv", counting)
    rng = np.random.default_rng(29)
    cells = _cells([unit_sample(rng.gamma(a, 1.0, size=30)) for a in (0.3, 2.5, 80.0)])
    shapes, status = solve_shapes(*cells, 0.0)
    assert status.tolist() == [OK] * 3
    assert min(sizes) > 0
    # cells still moving when the iteration budget runs out are rechecked
    monkeypatch.setattr(sojourn, "_MAX_NEWTON_ITER", 1)
    sizes.clear()
    _, status = solve_shapes(*cells, 0.0)
    assert min(sizes) > 0
    assert NOT_CONVERGED in status.tolist()


def _same_solve(cells, c, budget):
    """Shapes and statuses of :func:`solve_shapes` and of the full-array
    reference under one Newton budget, asserted bit for bit equal."""
    with mock.patch.object(sojourn, "_MAX_NEWTON_ITER", budget):
        shape, status = solve_shapes(*cells, c)
        ref_shape, ref_status = reference_solve_shapes(*cells, c)
    assert status.tolist() == ref_status.tolist()
    assert shape.tobytes() == ref_shape.tobytes()
    return status


@st.composite
def shape_cells(draw):
    """(sw, swlog, swx) of weighted samples: spread-out durations, equal
    ones (degenerate without a penalty) and nearly equal ones (a shape
    past the bracket).  Total weights up to 1e12 leave the derivative
    tolerance out of reach, so some brackets collapse first."""
    cells = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(2, 30))
        kind = draw(st.sampled_from(["spread", "equal", "tight"]))
        if kind == "spread":
            values = np.array(draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n)))
        elif kind == "equal":
            values = np.full(n, draw(st.floats(0.01, 100.0)))
        else:
            values = draw(st.floats(0.5, 5.0)) * (1.0 + 1e-4 * np.arange(n))
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        weights *= 10.0 ** draw(st.sampled_from([0, 0, 4, 8, 12]))
        cells.append((weights.sum(), weights @ np.log(values), weights @ values))
    return [np.array(column) for column in zip(*cells)]


@settings(deadline=None, max_examples=200)
@given(shape_cells(), st.sampled_from([0.0, 1e-3, 0.05, 1.0]), st.sampled_from([1, 2, 3, 200]))
def test_solve_shapes_matches_the_full_array_reference(cells, c, budget):
    _same_solve(cells, c, budget)


@pytest.mark.parametrize("c,budget,statuses", [
    (0.0, 1, [DEGENERATE, BRACKET_EXHAUSTED, NOT_CONVERGED, NOT_CONVERGED, OK]),
    (0.0, 200, [DEGENERATE, BRACKET_EXHAUSTED, OK, OK, OK]),
    (0.05, 1, [NOT_CONVERGED] * 5),
    (0.05, 200, [OK] * 5),
])
def test_solve_shapes_matches_the_reference_in_every_status(c, budget, statuses):
    rng = np.random.default_rng(31)
    samples = [unit_sample([2.0] * 4), unit_sample(1.0 + 1e-3 * np.arange(10)),
               *(unit_sample(rng.gamma(a, 1.0, size=30)) for a in (0.3, 2.5, 80.0))]
    assert _same_solve(_cells(samples), c, budget).tolist() == statuses
