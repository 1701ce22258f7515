import math

import numpy as np
import pytest

from smcmix import EmConfig, aic, aicc, bic, fixtures, param_count, select_g
from smcmix import em, likelihood
from smcmix.initialization import _clustered_model
from smcmix.sim import Scenario, simulate_panel


class TestParamCount:
    def test_two_components_ten_states(self):
        assert param_count(2, 10, d=2) == 219

    def test_one_component_two_states(self):
        # by hand: 0  +  (1 alpha + 0 transition + 4 gamma) = 5
        assert param_count(1, 2, d=2) == 5

    def test_absorbing_variant(self):
        # 2-1 + 2*(8 + 72 + 18) = 197
        assert param_count(2, 10, d=2, has_absorbing=True) == 197

    def test_closed_form_identity(self):
        for g in (1, 2, 3, 5):
            for d_states in (2, 4, 10):
                assert param_count(g, d_states, 2) == g * d_states * (d_states + 1) - 1

    def test_strictly_increasing(self):
        for absorbing in (False, True):
            values_g = [param_count(g, 6, 2, absorbing) for g in range(1, 6)]
            assert all(a < b for a, b in zip(values_g, values_g[1:]))
            values_d = [param_count(2, d, 2, absorbing) for d in range(2, 12)]
            assert all(a < b for a, b in zip(values_d, values_d[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            param_count(0, 10)


class TestCriteria:
    def test_zero_case(self):
        assert bic(0.0, 0, 100) == 0.0
        assert aic(0.0, 0) == 0.0
        assert aicc(0.0, 0, 100) == 0.0

    def test_bic_aic_gap_identity(self):
        ll, q, n = -1234.5, 37, 600
        assert bic(ll, q, n) - aic(ll, q) == pytest.approx(q * (math.log(n) - 2.0))
        # the gap is positive exactly when n > e^2
        assert bic(ll, q, 8) - aic(ll, q) > 0
        assert bic(ll, q, 7) - aic(ll, q) < 0

    def test_aicc_domain(self):
        with pytest.raises(ValueError):
            aicc(-10.0, 100, 101)

    def test_reference_table_format_conventions(self):
        """Published two-component criteria row: BIC 86720.10, AIC 85494.05,
        AICc 85710.59 for a 665-subject, 3-replication panel with 10
        attributes (q = 219).  The BIC/AIC gap pins the BIC sample size to
        n*B = 1995; the AICc/AIC gap pins the AICc sample size to n = 665,
        which is exactly why the sample-size knob exists."""
        q = 219
        loglik = q - 85494.05 / 2.0  # invert the AIC definition
        assert bic(loglik, q, 1995) == pytest.approx(86720.10, abs=0.05)
        assert aicc(loglik, q, 665) - aic(loglik, q) == pytest.approx(216.54, abs=0.02)


def _count_calls(monkeypatch, module, name) -> list:
    """The arguments of every call of ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture(scope="module")
def small_two_component_panel():
    scenario = Scenario(
        model=fixtures.well_separated_model(),
        n_subjects=100,
        n_replications=3,
        stop_rule=10,
        seed=101,
        replicate_count=1,
    )
    return simulate_panel(scenario)[0]


class TestSelectG:
    def test_trivial_range(self, small_two_component_panel):
        sweep = select_g(small_two_component_panel, [1], EmConfig(seed=1))
        assert sweep.chosen["bic"] == 1
        assert len(sweep.rows) == 1

    def test_picks_two_on_separated_panel(self, small_two_component_panel):
        sweep = select_g(small_two_component_panel, [1, 2], EmConfig(seed=1))
        assert sweep.chosen["bic"] == 2
        assert sweep.chosen["aic"] == 2
        row1, row2 = sweep.rows
        assert row2.loglik > row1.loglik
        assert row2.q == param_count(2, 10, 2)

    def test_deterministic(self, small_two_component_panel):
        a = select_g(small_two_component_panel, [1, 2], EmConfig(seed=9))
        b = select_g(small_two_component_panel, [1, 2], EmConfig(seed=9))
        assert a.rows == b.rows
        assert a.chosen == b.chosen

    def test_sample_size_override(self, small_two_component_panel):
        default = select_g(small_two_component_panel, [1], EmConfig(seed=1))
        overridden = select_g(
            small_two_component_panel, [1], EmConfig(seed=1), sample_size=100
        )
        assert default.rows[0].loglik == overridden.rows[0].loglik
        assert default.rows[0].bic != overridden.rows[0].bic

    @pytest.mark.parametrize("sample_size", [0, -5])
    def test_sample_size_must_be_positive(self, small_two_component_panel, sample_size):
        with pytest.raises(ValueError, match="^sample_size must be positive$"):
            select_g(small_two_component_panel, [1], EmConfig(), sample_size=sample_size)

    def test_criteria_finite(self, small_two_component_panel):
        sweep = select_g(small_two_component_panel, [1, 2], EmConfig(seed=2))
        for row in sweep.rows:
            assert np.isfinite(row.loglik) and np.isfinite(row.bic) and np.isfinite(row.aic)

    def test_criteria_read_the_reported_loglik(self, small_two_component_panel, monkeypatch):
        """A sweep evaluates one likelihood matrix per parameter set its
        fits visit, all inside ``fit``, and no mixture log-likelihood of
        its own (``mixture_loglik`` reaches the matrix through the
        binding in ``likelihood``)."""
        in_fits = _count_calls(monkeypatch, em, "subject_loglik_matrix")
        elsewhere = _count_calls(monkeypatch, likelihood, "subject_loglik_matrix")
        sweep = select_g(small_two_component_panel, [1, 2, 3], EmConfig(seed=4))
        reports = sweep.reports.values()
        assert len(in_fits) == sum(1 + r.iterations + r.extrapolations_tried for r in reports)
        assert elsewhere == []
        for row in sweep.rows:
            assert row.loglik == sweep.reports[row.n_components].loglik

    def test_init_labels_are_the_clustering_each_fit_started_from(
        self, small_two_component_panel
    ):
        cfg = EmConfig(seed=6)
        sweep = select_g(small_two_component_panel, [1, 2, 3], cfg, restarts=4)
        assert sorted(sweep.init_labels) == [1, 2, 3]
        for g, labels in sweep.init_labels.items():
            _, expected = _clustered_model(
                small_two_component_panel, g, cfg.seed, 4, cfg.min_obs_mass
            )
            assert np.array_equal(labels, expected)
