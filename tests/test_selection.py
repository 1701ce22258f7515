import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcmix import EmConfig, aic, aicc, bic, fixtures, param_count, select_g
from smcmix import em, likelihood
from smcmix.core import MixtureArrays, Panel, StateSpace
from smcmix.errors import DegenerateSample, InvalidModelError, NonConvergence
from smcmix.initialization import initial_model
from smcmix.sim import Scenario, simulate_panel

from conftest import traj
from oracles import reference_panel, sequential_select_g


class TestParamCount:
    def test_two_components_ten_states(self):
        assert param_count(2, 10) == 219

    def test_one_component_two_states(self):
        # by hand: 0  +  (1 alpha + 0 transition + 4 gamma) = 5
        assert param_count(1, 2) == 5

    def test_absorbing_variant(self):
        # 2-1 + 2*(8 + 72 + 18) = 197
        assert param_count(2, 10, has_absorbing=True) == 197

    def test_closed_form_identity(self):
        for g in (1, 2, 3, 5):
            for d_states in (2, 4, 10):
                assert param_count(g, d_states) == g * d_states * (d_states + 1) - 1

    def test_strictly_increasing(self):
        for absorbing in (False, True):
            values_g = [param_count(g, 6, absorbing) for g in range(1, 6)]
            assert all(a < b for a, b in zip(values_g, values_g[1:]))
            values_d = [param_count(2, d, absorbing) for d in range(2, 12)]
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


def _two_component_scenario():
    return Scenario(
        model=fixtures.well_separated_model(),
        n_subjects=100,
        n_replications=3,
        stop_rule=10,
        seed=101,
        replicate_count=1,
    )


@pytest.fixture(scope="module")
def small_two_component_panel():
    return simulate_panel(_two_component_scenario())[0]


@pytest.fixture(scope="module")
def reference_two_component_panel():
    """The same design drawn one trajectory at a time, as the failures
    injected below were counted on."""
    return reference_panel(_two_component_scenario())[0]


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
        assert row2.q == param_count(2, 10)

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
        with pytest.raises(ValueError, match="^sample_size must be at least 1$"):
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
            _, expected = initial_model(
                small_two_component_panel, g, cfg.seed, 4, cfg.min_obs_mass
            )
            assert np.array_equal(labels, expected)


class TestCountValidation:
    @pytest.mark.parametrize(
        "g_range", [[2.7, True], [1, 2.0], [np.float64(2.0)], [np.bool_(True), 2], ["2"]]
    )
    def test_non_integer_counts_are_rejected(self, small_two_component_panel, g_range):
        with pytest.raises(ValueError, match="^g_range must contain integer component counts$"):
            select_g(small_two_component_panel, g_range, EmConfig(seed=1))

    @pytest.mark.parametrize("sample_size", [True, 2.5, 100.0])
    def test_sample_size_must_be_an_integer(self, small_two_component_panel, sample_size):
        with pytest.raises(ValueError, match="^sample_size must be an integer$"):
            select_g(small_two_component_panel, [1], EmConfig(seed=1), sample_size=sample_size)

    @pytest.mark.parametrize("restarts", [True, 2.5])
    def test_restarts_must_be_an_integer(self, small_two_component_panel, restarts):
        with pytest.raises(ValueError, match="^restarts must be an integer$"):
            select_g(small_two_component_panel, [1, 2], EmConfig(seed=1), restarts=restarts)

    def test_numpy_integers_are_counts(self, small_two_component_panel):
        sweep = select_g(small_two_component_panel, np.array([2, 1]), EmConfig(seed=1))
        assert [row.n_components for row in sweep.rows] == [1, 2]
        assert all(type(row.n_components) is int for row in sweep.rows)


def assert_same_report(got, want):
    assert got.objective_trace == want.objective_trace
    assert (got.iterations, got.converged, got.loglik, got.warnings) == (
        want.iterations, want.converged, want.loglik, want.warnings
    )
    assert (got.extrapolations_tried, got.extrapolations_kept) == (
        want.extrapolations_tried, want.extrapolations_kept
    )
    assert np.array_equal(got.posteriors.z, want.posteriors.z)
    for a, b in zip(got.model.params[:5], want.model.params[:5]):
        assert np.array_equal(a, b, equal_nan=True)


def assert_same_sweep(got, want):
    """Two sweeps, or the errors they raised, are identical bit for bit."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert (got.rows, got.chosen, got.warnings) == (want.rows, want.chosen, want.warnings)
    assert list(got.reports) == list(want.reports) == list(got.init_labels)
    for g, report in want.reports.items():
        assert_same_report(got.reports[g], report)
        assert np.array_equal(got.init_labels[g], want.init_labels[g])


def _outcome(run):
    try:
        return run()
    except Exception as exc:
        return exc


def _sweep_scenario(name: str, n_subjects: int, seed: int, transitions: int = 6):
    if name == "absorbing":
        from test_absorbing import two_group_model

        return Scenario(model=two_group_model(), n_subjects=n_subjects, n_replications=3,
                        stop_rule="absorbing", seed=seed)
    else:
        scenario = fixtures.benchmark_scenario(
            name, n_subjects=n_subjects, transitions=transitions, seed=seed
        )
    return scenario


def _sweep_panel(name: str, n_subjects: int, seed: int, transitions: int = 6):
    return simulate_panel(_sweep_scenario(name, n_subjects, seed, transitions))[0]


@st.composite
def sweep_cases(draw):
    panel = _sweep_panel(
        draw(st.sampled_from(["chocolate70", "well_separated", "absorbing"])),
        draw(st.integers(20, 60)), draw(st.integers(0, 2**16)), draw(st.integers(3, 10)),
    )
    g_range = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    cfg = EmConfig(max_iter=draw(st.integers(1, 40)), z_round=draw(st.sampled_from([0.0, 1e-4])),
                   penalized=draw(st.booleans()), seed=draw(st.integers(0, 99)))
    return panel, g_range, cfg, draw(st.integers(1, 4))


class TestLockstepStack:
    """A sweep runs its fits as one lockstep stack; every fit must come out
    as the one-fit-at-a-time loop computes it, bit for bit, and a failing
    sweep must raise what that loop raises."""

    @settings(max_examples=40, deadline=None)
    @given(sweep_cases())
    def test_sweep_matches_the_sequential_oracle(self, case):
        panel, g_range, cfg, restarts = case
        assert_same_sweep(_outcome(lambda: select_g(panel, g_range, cfg, restarts=restarts)),
                          _outcome(lambda: sequential_select_g(panel, g_range, cfg,
                                                               restarts=restarts)))

    def test_an_aborted_fit_leaves_the_others_running(self):
        # G = 4 starves at its third map; G = 3 goes on for 20
        panel = reference_panel(_sweep_scenario("chocolate70", 30, 29, transitions=4))[0]
        cfg = EmConfig(seed=1)
        sweep = select_g(panel, [1, 2, 3, 4], cfg)
        assert_same_sweep(sweep, sequential_select_g(panel, [1, 2, 3, 4], cfg))
        assert [row.n_components for row in sweep.rows if row.aborted] == [4]
        assert "G=4: mixture component 0 lost all its subjects" in sweep.warnings
        assert (sweep.reports[4].iterations, sweep.reports[3].iterations) == (2, 20)
        assert all(row.converged for row in sweep.rows if not row.aborted)

    def test_an_m_step_error_ends_only_its_fit(self, monkeypatch):
        # the third shared M-step fails for the G = 3 fit alone; the error
        # is thrown into that fit, and the G = 2 fit runs on as it does solo
        panel = _sweep_panel("chocolate70", 30, 29, transitions=4)
        cfg = EmConfig(seed=1)
        inits = [initial_model(panel, g, 1, 10, cfg.min_obs_mass)[0] for g in (3, 2)]
        solo = em.fit(panel, inits[1], cfg)
        injected = NonConvergence("injected")
        rounds = []
        original = em._Stack.m_step

        def failing(stack, zs):
            results = original(stack, zs)
            rounds.append([z.shape[1] for z in zs])
            return [injected] + results[1:] if len(rounds) == 3 else results

        monkeypatch.setattr(em._Stack, "m_step", failing)
        three, two = em.fit_stack(panel, likelihood.PanelStats.from_panel(panel), inits, cfg)
        assert three is injected
        assert rounds[:3] == [[3, 2]] * 3 and all(r == [2] for r in rounds[3:])
        assert two.iterations == len(rounds) > 3
        assert_same_report(two, solo)


def _fail_likelihoods(monkeypatch, at: dict):
    """Make the ``k``-th likelihood matrix of the fit with ``g`` components
    raise, for each ``g: k`` of ``at``; returns the per-count tallies,
    which the caller clears between runs."""
    tallies = collections.Counter()
    original = em.subject_loglik_matrix

    def failing(stats, params):
        g = len(params.weights)
        tallies[g] += 1
        if at.get(g) == tallies[g]:
            raise NonConvergence(f"injected at G={g}, evaluation {tallies[g]}")
        return original(stats, params)

    monkeypatch.setattr(em, "subject_loglik_matrix", failing)
    return tallies


class TestSweepErrors:
    """The errors a sweep raises are those of the sequential loop: the
    error of the lowest component count that raised."""

    @pytest.mark.parametrize("at,raised", [
        ({3: 5}, "G=3, evaluation 5"),
        ({3: 2, 2: 6}, "G=2, evaluation 6"),
        ({1: 2, 3: 1}, "G=1, evaluation 2"),
    ])
    def test_injected_likelihood_failure(self, reference_two_component_panel, monkeypatch, at,
                                         raised):
        tallies = _fail_likelihoods(monkeypatch, at)
        cfg = EmConfig(seed=3)
        want = _outcome(lambda: sequential_select_g(reference_two_component_panel, [1, 2, 3], cfg))
        tallies.clear()
        got = _outcome(lambda: select_g(reference_two_component_panel, [1, 2, 3], cfg))
        assert isinstance(want, NonConvergence) and str(want) == f"injected at {raised}"
        assert_same_sweep(got, want)

    def test_injected_m_step_invariant_failure(self, reference_two_component_panel, monkeypatch):
        # every parameter check of G = 3 fails from its sixth on, so one of
        # its M-steps breaks an invariant
        checks = collections.Counter()
        original = MixtureArrays.check

        def failing(params):
            checks[len(params.weights)] += 1
            if len(params.weights) == 3 and checks[3] >= 6:
                raise InvalidModelError("injected")
            original(params)

        monkeypatch.setattr(MixtureArrays, "check", failing)
        cfg = EmConfig(seed=3)
        want = _outcome(lambda: sequential_select_g(reference_two_component_panel, [1, 2, 3], cfg))
        checks.clear()
        got = _outcome(lambda: select_g(reference_two_component_panel, [1, 2, 3], cfg))
        assert isinstance(want, InvalidModelError) and str(want) == "injected"
        assert_same_sweep(got, want)

    @pytest.mark.parametrize("penalized,raised", [(False, DegenerateSample), (True, ValueError)])
    def test_an_init_error_waits_for_the_lower_counts(self, penalized, raised):
        # three equal subjects: no k-means init for G = 4 exists, and
        # without the penalty the G = 1 fit fails first
        space = StateSpace(labels=("A", "B"))
        panel = Panel(space=space, subjects=((traj([0, 1], [2.0, 2.0]),),) * 3)
        cfg = EmConfig(penalized=penalized)
        want = _outcome(lambda: sequential_select_g(panel, [1, 4], cfg))
        assert type(want) is raised
        assert_same_sweep(_outcome(lambda: select_g(panel, [1, 4], cfg)), want)
