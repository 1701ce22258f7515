import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from smcmix import (
    AllComponentsImpossible,
    DegenerateSample,
    StateSpace,
    initial_model,
    EmConfig,
    EmptyComponent,
    MixtureModel,
    Panel,
    PosteriorMatrix,
    e_step,
    fit,
    fixtures,
    m_step_weights,
    map_cluster,
    mixture_loglik,
    subject_loglik,
)
from smcmix.em import _m_step_alpha_trans_stats, _m_step_sojourn_stats, _responsibilities
from smcmix.likelihood import PanelStats, log_scores, penalized_objective, penalty_weight
from smcmix.sim import Scenario, simulate_panel
from smcmix.sojourn import WeightedSample, fit_gamma_pmle

from conftest import make_component, traj


def well_separated_panel(n=120, transitions=10, seed=5):
    scenario = Scenario(
        model=fixtures.well_separated_model(),
        n_subjects=n,
        n_replications=3,
        stop_rule=transitions,
        seed=seed,
        replicate_count=1,
    )
    return simulate_panel(scenario)


class TestEStep:
    def test_identical_components_uniform(self, tiny_panel, simple_component):
        model = MixtureModel(
            space=tiny_panel.space,
            weights=np.array([0.5, 0.5]),
            components=(simple_component, simple_component),
        )
        z = e_step(tiny_panel, model, z_round=1e-4)
        np.testing.assert_array_equal(z.z, np.full((3, 2), 0.5))

    def test_structural_zero_gives_hard_assignment(self, tiny_panel, simple_component):
        blocked = make_component(
            alpha=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], gammas=[(1, 1), (1, 1)]
        )
        model = MixtureModel(
            space=tiny_panel.space,
            weights=np.array([0.5, 0.5]),
            components=(simple_component, blocked),
        )
        z = e_step(tiny_panel, model, z_round=0.0)
        # subject 0 starts a replication in state 1, impossible under `blocked`
        assert subject_loglik(tiny_panel.subjects[0], blocked) == -math.inf
        np.testing.assert_array_equal(z.z[0], [1.0, 0.0])

    def test_bayes_quotient_extended_precision(self, tiny_panel, simple_model):
        mp.mp.dps = 50

        def mp_subject_lik(reps, comp):
            total = mp.mpf(1)
            for t in reps:
                value = mp.mpf(float(comp.alpha[t.states[0]]))
                for a, b in zip(t.states[:-1], t.states[1:]):
                    value *= mp.mpf(float(comp.trans[a, b]))
                for j, x in zip(t.states, t.sojourns):
                    p = comp.sojourn[int(j)]
                    x = mp.mpf(float(x))
                    value *= (
                        x ** (mp.mpf(p.shape) - 1)
                        * mp.mpf(p.rate) ** mp.mpf(p.shape)
                        * mp.e ** (-mp.mpf(p.rate) * x)
                        / mp.gamma(mp.mpf(p.shape))
                    )
                total *= value
            return total

        z = e_step(tiny_panel, simple_model, z_round=0.0)
        for i, reps in enumerate(tiny_panel.subjects):
            liks = [
                mp.mpf(float(w)) * mp_subject_lik(reps, comp)
                for w, comp in zip(simple_model.weights, simple_model.components)
            ]
            total = sum(liks)
            for g in range(2):
                assert z.z[i, g] == pytest.approx(float(liks[g] / total), abs=1e-12)

    def test_rounding_to_quantum(self, tiny_panel, simple_model):
        z = e_step(tiny_panel, simple_model, z_round=0.01)
        scaled = z.z * 100
        # multiples of the quantum before the final renormalization stay
        # recognizable: row sums are exactly 1 and entries near multiples
        np.testing.assert_allclose(z.z.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.abs(scaled - np.round(scaled)) < 1e-6)

    def test_rounding_too_coarse_for_many_components(self):
        from smcmix.errors import NumericalError

        ll = np.zeros((2, 5000))  # equal likelihoods: every entry is 2e-4
        with pytest.raises(NumericalError, match="too\\s+coarse"):
            _responsibilities(*log_scores(ll, np.full(5000, 1 / 5000)), z_round=0.1)

    @pytest.mark.parametrize("z_round", [5.0, -0.3, math.nan, 0.1000001])
    def test_z_round_follows_the_config_rule(self, tiny_panel, simple_model, z_round):
        message = r"^z_round must be 0 or in \(0, 0\.1\]$"
        with pytest.raises(ValueError, match=message):
            EmConfig(z_round=z_round)
        with pytest.raises(ValueError, match=message):
            e_step(tiny_panel, simple_model, z_round=z_round)

    def test_all_components_impossible(self, tiny_panel):
        blocked = make_component(
            alpha=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], gammas=[(1, 1), (1, 1)]
        )
        model = MixtureModel(
            space=tiny_panel.space, weights=np.array([1.0]), components=(blocked,)
        )
        with pytest.raises(AllComponentsImpossible) as err:
            e_step(tiny_panel, model, z_round=0.0)
        assert err.value.subject == 0


@settings(deadline=None, max_examples=50)
@given(
    hnp.arrays(
        np.float64,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 5)),
        elements=st.floats(min_value=-1e6, max_value=0.0),
    )
)
def test_e_step_log_sum_exp_stability(ll):
    """Huge negative log-likelihoods must never overflow or produce NaN."""
    g = ll.shape[1]
    weights = np.full(g, 1.0 / g)
    z = _responsibilities(*log_scores(ll, weights), 0.0)
    assert np.all(np.isfinite(z))
    np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-9)


class TestMStepWeights:
    def test_hard_assignment(self):
        z = PosteriorMatrix(z=np.array([[1.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(m_step_weights(z), [1.0, 0.0])

    def test_uniform(self):
        z = PosteriorMatrix(z=np.full((4, 2), 0.5))
        np.testing.assert_array_equal(m_step_weights(z), [0.5, 0.5])

    def test_column_means_oracle(self):
        rng = np.random.default_rng(3)
        raw = rng.random((7, 3))
        raw /= raw.sum(axis=1, keepdims=True)
        z = PosteriorMatrix(z=raw)
        expected = [sum(raw[i, g] for i in range(7)) / 7 for g in range(3)]
        np.testing.assert_allclose(m_step_weights(z), expected, rtol=1e-12)


class TestMStepAlphaTrans:
    def test_single_component_classical(self, tiny_panel):
        z = PosteriorMatrix(z=np.ones((3, 1)))
        alpha, trans, warnings = _m_step_alpha_trans_stats(PanelStats.from_panel(tiny_panel), z.z)
        # hand counts over the six trajectories of the fixture panel
        # first states: 0,1 / 0,0 / 1,0  -> state 0: 4, state 1: 2
        np.testing.assert_allclose(alpha[0], [4 / 6, 2 / 6], rtol=1e-12)
        # transitions: 0->1: subj0 (1) + subj1 (1+1) + subj2 (1+1) = 5... recount below
        n01 = n10 = 0
        for reps in tiny_panel.subjects:
            for t in reps:
                for a, b in zip(t.states[:-1], t.states[1:]):
                    if (a, b) == (0, 1):
                        n01 += 1
                    else:
                        n10 += 1
        np.testing.assert_allclose(trans[0], [[0, 1], [1, 0]], rtol=1e-12)
        assert n01 > 0 and n10 > 0
        assert warnings == []

    def test_unvisited_state_uniform_row(self, two_state_space):
        space3 = Panel(
            space=StateSpace(labels=("A", "B", "C")),
            subjects=((traj([0, 1, 0], [1.0, 1.0, 1.0]),),),
        )
        z = PosteriorMatrix(z=np.ones((1, 1)))
        alpha, trans, warnings = _m_step_alpha_trans_stats(PanelStats.from_panel(space3), z.z)
        np.testing.assert_allclose(trans[0, 2], [0.5, 0.5, 0.0], rtol=1e-12)
        assert any("never left" in w for w in warnings)

    def test_weighted_counts_pencil_oracle(self, two_state_space):
        panel = Panel(
            space=two_state_space,
            subjects=(
                (traj([0, 1, 0], [1, 1, 1]),),  # first state 0; 0->1, 1->0
                (traj([1, 0], [1, 1]),),  # first state 1; 1->0
            ),
        )
        z = PosteriorMatrix(z=np.array([[0.3, 0.7], [0.6, 0.4]]))
        alpha, trans, _ = _m_step_alpha_trans_stats(PanelStats.from_panel(panel), z.z)
        # component 0: alpha = (0.3*1 + 0.6*0, 0.3*0 + 0.6*1) / (0.9)
        np.testing.assert_allclose(alpha[0], [0.3 / 0.9, 0.6 / 0.9], rtol=1e-12)
        np.testing.assert_allclose(alpha[1], [0.7 / 1.1, 0.4 / 1.1], rtol=1e-12)
        # component 0 transition counts: 0->1: 0.3 ; 1->0: 0.3 + 0.6
        np.testing.assert_allclose(trans[0], [[0, 1.0], [1.0, 0]], atol=1e-12)


class TestMStepSojourn:
    def test_reduces_to_direct_fit(self, two_state_space):
        rng = np.random.default_rng(8)
        subjects = []
        all_state0 = []
        for _ in range(10):
            durations = rng.gamma(2.5, 2.0, size=9)
            states = [0, 1] * 4 + [0]
            subjects.append((traj(states, durations),))
            all_state0.extend(durations[0::2])
        panel = Panel(space=two_state_space, subjects=tuple(subjects))
        z = PosteriorMatrix(z=np.ones((10, 1)))
        c = penalty_weight(panel)
        shape, rate, warnings = _m_step_sojourn_stats(
            PanelStats.from_panel(panel), z.z, c, 7, 1e-4
        )
        direct = fit_gamma_pmle(
            WeightedSample(values=np.array(all_state0), weights=np.ones(len(all_state0))),
            penalty_c=c,
        )
        assert shape[0, 0] == pytest.approx(direct.shape, rel=1e-9)
        assert rate[0, 0] == pytest.approx(direct.rate, rel=1e-9)
        assert warnings == []

    def test_starved_state_pooled_fallback(self, two_state_space):
        rng = np.random.default_rng(9)
        space = StateSpace(labels=("A", "B", "C"))
        subjects = []
        for i in range(8):
            durations = list(rng.gamma(2.0, 2.0, size=6))
            states = [0, 1] * 3
            if i == 0:  # state C shows up three times total, all here
                states = [0, 2, 0, 2, 0, 2]
            subjects.append((traj(states, durations),))
        panel = Panel(space=space, subjects=tuple(subjects))
        z = PosteriorMatrix(z=np.ones((8, 1)))
        shape, _, warnings = _m_step_sojourn_stats(
            PanelStats.from_panel(panel), z.z, penalty_weight(panel), 7, 1e-4
        )
        assert any("pooled fallback" in w for w in warnings)
        # the starved state inherits the pooled fit over every observation
        pooled_values = np.concatenate(
            [t.sojourns for reps in panel.subjects for t in reps]
        )
        pooled = fit_gamma_pmle(
            WeightedSample(values=pooled_values, weights=np.ones_like(pooled_values)),
            penalty_c=penalty_weight(panel),
        )
        assert shape[0, 2] == pytest.approx(pooled.shape, rel=1e-9)

    def test_penalty_shrinks_near_degenerate_state(self, two_state_space):
        rng = np.random.default_rng(10)
        subjects = []
        for i in range(10):
            x0 = 5.0 + 0.03 * i  # state 0 nearly degenerate across the panel
            subjects.append((traj([0, 1], [x0, float(rng.gamma(2.0, 2.0))]),))
        panel = Panel(space=two_state_space, subjects=tuple(subjects))
        z = PosteriorMatrix(z=np.ones((10, 1)))
        stats = PanelStats.from_panel(panel)
        pen, _, _ = _m_step_sojourn_stats(stats, z.z, penalty_weight(panel), 7, 1e-4)
        unpen, _, _ = _m_step_sojourn_stats(stats, z.z, 0.0, 7, 1e-4)
        assert pen[0, 0] < unpen[0, 0]

    def test_nonconvergence_context(self, two_state_space):
        # state 0 durations nearly equal (relative spread ~1e-5): the
        # unpenalized shape search must leave the bracket
        subjects = tuple(
            (traj([0, 1], [1.0 + i * 1e-5, 1.0 + 0.37 * i]),) for i in range(10)
        )
        panel = Panel(space=two_state_space, subjects=subjects)
        z = PosteriorMatrix(z=np.ones((10, 1)))
        _, _, warnings = _m_step_sojourn_stats(
            PanelStats.from_panel(panel), z.z, 0.0, 7, 1e-4, labels=panel.space.labels
        )
        assert warnings == [
            "component 0: sojourn fit for state A left the shape bracket; pooled fallback"
        ]


    def test_pooled_fit_failure_is_raised(self, two_state_space):
        # every sojourn equal and no penalty: the state fits and the pooled
        # fallback are all degenerate
        panel = Panel(space=two_state_space, subjects=((traj([0, 1], [2.0, 2.0]),),) * 10)
        z = np.ones((10, 1))
        with pytest.raises(
            DegenerateSample, match="^component 0 pooled sojourn fit: sample variance"
        ):
            _m_step_sojourn_stats(PanelStats.from_panel(panel), z, 0.0, 7, 1e-4)


class TestFit:
    def test_pooled_fit_failure_propagates(self, two_state_space):
        panel = Panel(space=two_state_space, subjects=((traj([0, 1], [2.0, 2.0]),),) * 10)
        init = initial_model(panel, 1, seed=0)
        with pytest.raises(
            DegenerateSample, match="^component 0 pooled sojourn fit: sample variance"
        ):
            fit(panel, 1, init, EmConfig(penalized=False))

    def test_single_component_fixed_point(self, tiny_panel):
        init = initial_model(tiny_panel, 1, seed=0)
        cfg = EmConfig(min_obs_mass=2)
        report = fit(tiny_panel, 1, init, cfg)
        assert report.converged
        assert report.iterations <= 2
        # the single-component M-step is an exact maximizer: one more pass
        # from the fitted model must not move the objective
        again = fit(tiny_panel, 1, report.model, cfg)
        assert again.iterations == 1
        assert again.objective_trace[-1] == pytest.approx(
            report.objective_trace[-1], rel=1e-12
        )

    def test_reproducible_bit_identical(self):
        panel, _ = well_separated_panel(n=60, transitions=4, seed=21)
        init = initial_model(panel, 2, seed=3)
        cfg = EmConfig()
        r1 = fit(panel, 2, init, cfg)
        r2 = fit(panel, 2, init, cfg)
        assert r1.objective_trace == r2.objective_trace
        assert r1.model == r2.model
        assert np.array_equal(r1.posteriors.z, r2.posteriors.z)
        assert r1.iterations == r2.iterations and r1.converged == r2.converged

    def test_label_swap_equivalence_exact(self):
        panel, _ = well_separated_panel(n=50, transitions=6, seed=33)
        init = initial_model(panel, 2, seed=4)
        swapped_init = MixtureModel(
            space=init.space,
            weights=init.weights[::-1].copy(),
            components=init.components[::-1],
        )
        cfg = EmConfig()
        r1 = fit(panel, 2, init, cfg)
        r2 = fit(panel, 2, swapped_init, cfg)
        assert r1.objective_trace == r2.objective_trace
        assert r1.model.components[0] == r2.model.components[1]
        assert r1.model.components[1] == r2.model.components[0]
        np.testing.assert_array_equal(r1.posteriors.z, r2.posteriors.z[:, ::-1])

    def test_fixed_point_restart(self):
        panel, _ = well_separated_panel(n=50, transitions=6, seed=34)
        init = initial_model(panel, 2, seed=4)
        cfg = EmConfig()
        report = fit(panel, 2, init, cfg)
        restart = fit(panel, 2, report.model, cfg)
        assert restart.converged and restart.iterations == 1

    def test_ascent_on_well_separated_fixture(self):
        for seed in (1, 2, 3):
            panel, _ = well_separated_panel(n=200, transitions=10, seed=seed)
            init = initial_model(panel, 2, seed=seed)
            report = fit(panel, 2, init, EmConfig())
            assert report.monotone, report.warnings
            assert report.objective_trace[-1] >= report.objective_trace[0]

    def test_safeguard_dips_are_recorded(self):
        """On hard small panels the pooled fallback may force the objective
        down a step; any such dip must be visible in the warnings."""
        scenario = Scenario(
            model=fixtures.not_well_separated_model(),
            n_subjects=60,
            n_replications=3,
            stop_rule=4,
            seed=0,
            replicate_count=1,
        )
        panel, _ = simulate_panel(scenario)
        init = initial_model(panel, 2, seed=1000)
        report = fit(panel, 2, init, EmConfig())
        if not report.monotone:
            assert any("objective decreased" in w for w in report.warnings)

    def test_empty_component_abort(self, tiny_panel, simple_component):
        # the second component is astronomically unlikely for every subject,
        # its responsibilities round to zero and the fit must abort
        losing = make_component(
            alpha=[1e-280, 1.0 - 1e-280],
            trans=[[0.0, 1.0], [1.0, 0.0]],
            gammas=[(1.0, 1e-3), (1.0, 1e-3)],
        )
        init = MixtureModel(
            space=tiny_panel.space,
            weights=np.array([0.5, 0.5]),
            components=(simple_component, losing),
        )
        with pytest.raises(EmptyComponent) as err:
            fit(tiny_panel, 2, init, EmConfig(min_obs_mass=2))
        assert err.value.report is not None
        assert not err.value.report.converged

    def test_init_mismatch(self, tiny_panel, simple_component):
        init = MixtureModel(
            space=tiny_panel.space, weights=np.array([1.0]), components=(simple_component,)
        )
        with pytest.raises(ValueError):
            fit(tiny_panel, 2, init, EmConfig())

    def test_penalty_immaterial_at_large_n(self):
        """With plenty of data both estimation flavors recover the
        transition matrices to about a percent."""
        from smcmix.metrics import align_components, err_by_component
        from smcmix.sim import run_benchmark

        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=600, n_replications=3, stop_rule=10,
            seed=606, replicate_count=5,
        )
        for penalized in (True, False):
            table = run_benchmark(scenario, EmConfig(penalized=penalized)).table()
            assert table["err_trans_1"][0] <= 0.015
            assert table["err_trans_2"][0] <= 0.015

    def test_unpenalized_objective_is_plain_loglik(self):
        panel, _ = well_separated_panel(n=40, transitions=6, seed=35)
        init = initial_model(panel, 2, seed=1)
        report = fit(panel, 2, init, EmConfig(penalized=False))
        assert report.objective_trace[-1] == pytest.approx(
            mixture_loglik(panel, report.model), rel=1e-12
        )
        pen_report = fit(panel, 2, init, EmConfig(penalized=True))
        assert pen_report.objective_trace[-1] == pytest.approx(
            penalized_objective(panel, pen_report.model), rel=1e-12
        )


class TestSharedLikelihood:
    """One likelihood matrix per model: it yields the model's objective and
    the responsibilities that follow, so both must equal the stand-alone
    evaluations exactly."""

    @staticmethod
    def _g3_fit(name, seed):
        scenario = fixtures.benchmark_scenario(name, n_subjects=80, seed=seed)
        panel, _ = simulate_panel(scenario)
        return panel, initial_model(panel, 3, seed=seed), EmConfig()

    @pytest.mark.parametrize("name,seed", [("well_separated", 41), ("chocolate70", 42)])
    def test_final_posteriors_and_objective_exact(self, name, seed):
        panel, init, cfg = self._g3_fit(name, seed)
        report = fit(panel, 3, init, cfg)
        expected_z = e_step(panel, report.model, cfg.z_round).z
        assert np.array_equal(report.posteriors.z, expected_z)
        assert report.objective_trace[-1] == penalized_objective(panel, report.model)

    @pytest.mark.parametrize("name,seed", [("well_separated", 41), ("chocolate70", 42)])
    def test_one_likelihood_per_model(self, name, seed, monkeypatch):
        import smcmix.em as em_module

        panel, init, cfg = self._g3_fit(name, seed)
        calls = []
        original = em_module.subject_loglik_matrix

        def counting(stats, model):
            calls.append(model)
            return original(stats, model)

        monkeypatch.setattr(em_module, "subject_loglik_matrix", counting)
        report = fit(panel, 3, init, cfg)
        assert len(calls) == report.iterations + 1


class TestIterationInvariants:
    """The parameters are checked after every M-step, with the messages of
    the model constructors, before any likelihood is evaluated on them."""

    @staticmethod
    def _fit_counting_likelihoods(monkeypatch):
        import smcmix.em as em_module

        panel, _ = well_separated_panel(n=60, transitions=4, seed=21)
        init = initial_model(panel, 2, seed=3)
        calls = []
        original = em_module.subject_loglik_matrix

        def counting(stats, params):
            calls.append(params)
            return original(stats, params)

        monkeypatch.setattr(em_module, "subject_loglik_matrix", counting)
        return lambda: fit(panel, 2, init, EmConfig()), calls

    @pytest.mark.parametrize("bad_shape", [math.nan, -1.0])
    def test_bad_shape_from_solver(self, monkeypatch, bad_shape):
        import smcmix.em as em_module
        from smcmix import InvalidModelError
        from smcmix.sojourn import OK

        run, calls = self._fit_counting_likelihoods(monkeypatch)
        original = em_module.solve_shapes
        solves = []

        def corrupting(*args):
            shape, status = original(*args)
            solves.append(None)
            if len(solves) == 2:  # the M-step of iteration 2
                shape[0], status[0] = bad_shape, OK
            return shape, status

        monkeypatch.setattr(em_module, "solve_shapes", corrupting)
        with pytest.raises(InvalidModelError, match="^gamma shape must be positive$"):
            run()
        assert len(calls) == 2  # the start and iteration 1; not the bad set

    def test_negative_transition(self, monkeypatch):
        import smcmix.em as em_module
        from smcmix import InvalidModelError

        run, calls = self._fit_counting_likelihoods(monkeypatch)
        original = em_module._m_step_alpha_trans_stats

        def corrupting(*args, **kwargs):
            alpha, trans, warnings = original(*args, **kwargs)
            trans[1, 0, 1] = -trans[1, 0, 1]
            return alpha, trans, warnings

        monkeypatch.setattr(em_module, "_m_step_alpha_trans_stats", corrupting)
        with pytest.raises(
            InvalidModelError, match="^transition probabilities must be nonnegative$"
        ):
            run()
        assert len(calls) == 1


class TestPartialReport:
    """The model of an aborted fit is the one after its last completed
    iteration: what a fit stopped there returns, or the start."""

    def test_abort_after_iterations(self):
        scenario = fixtures.benchmark_scenario(
            "chocolate70", n_subjects=30, transitions=4, seed=29
        )
        panel, _ = simulate_panel(scenario)
        init = initial_model(panel, 4, seed=29)
        with pytest.raises(EmptyComponent) as err:
            fit(panel, 4, init, EmConfig())
        partial = err.value.report
        assert partial.iterations == 2
        stopped = fit(panel, 4, init, EmConfig(max_iter=partial.iterations))
        assert partial.model == stopped.model
        assert partial.objective_trace == stopped.objective_trace
        assert np.array_equal(partial.posteriors.z, stopped.posteriors.z)

    def test_abort_before_any_iteration(self, tiny_panel, simple_component):
        losing = make_component(
            alpha=[1e-280, 1.0 - 1e-280],
            trans=[[0.0, 1.0], [1.0, 0.0]],
            gammas=[(1.0, 1e-3), (1.0, 1e-3)],
        )
        init = MixtureModel(
            space=tiny_panel.space,
            weights=np.array([0.5, 0.5]),
            components=(simple_component, losing),
        )
        with pytest.raises(EmptyComponent) as err:
            fit(tiny_panel, 2, init, EmConfig(min_obs_mass=2))
        assert err.value.report.iterations == 0
        assert err.value.report.model == init


def test_m_step_sojourn_fallbacks_fire_in_order():
    """Crafted statistics that reach every pooled fallback of one M-step:
    a degenerate state (A), a state whose unpenalized shape leaves the
    bracket (B) and a starved state (C); D gets its own fit."""
    space = StateSpace(labels=("A", "B", "C", "D"))
    rng = np.random.default_rng(12)
    subjects = []
    for i in range(10):
        states = [0, 1, 3] + ([2] if i < 3 else [])
        durations = [2.0, 1.0 + 1e-3 * i, float(rng.gamma(2.0, 2.0)), 0.5 + i][: len(states)]
        subjects.append((traj(states, durations),))
    panel = Panel(space=space, subjects=tuple(subjects))
    stats = PanelStats.from_panel(panel)
    z = np.full((10, 2), 0.5)
    shape, rate, warnings = _m_step_sojourn_stats(stats, z, 0.0, 7, 1e-4, labels=space.labels)
    per_component = [
        "degenerate sojourn sample in state A; pooled fallback",
        "sojourn fit for state B left the shape bracket; pooled fallback",
        "state C has 3 weight-carrying observations; pooled fallback",
    ]
    assert warnings == [f"component {g}: {w}" for g in (0, 1) for w in per_component]
    # the pooled cells hold the component's one pooled fit; D has its own
    for params in (shape, rate):
        assert np.all(params[:, :3] == params[:, :1])
        assert np.all(params[:, 3] != params[:, 0])


class TestMapCluster:
    def test_argmax(self):
        z = PosteriorMatrix(z=np.array([[0.7, 0.3], [0.2, 0.8]]))
        np.testing.assert_array_equal(map_cluster(z), [0, 1])

    def test_tie_breaks_low(self):
        z = PosteriorMatrix(z=np.array([[0.5, 0.5]]))
        np.testing.assert_array_equal(map_cluster(z), [0])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(12)
        raw = rng.random((20, 3))
        raw /= raw.sum(axis=1, keepdims=True)
        scaled = raw * rng.uniform(0.5, 2.0, size=(20, 1))
        scaled /= scaled.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(
            map_cluster(PosteriorMatrix(z=raw)), map_cluster(PosteriorMatrix(z=scaled))
        )


class TestEmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmConfig(max_iter=0)
        with pytest.raises(ValueError):
            EmConfig(rel_tol=1.5)
        with pytest.raises(ValueError):
            EmConfig(z_round=0.5)
        EmConfig(z_round=0.0)  # rounding may be disabled
