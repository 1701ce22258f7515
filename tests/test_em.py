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
    map_cluster,
    mixture_loglik,
)
from smcmix.em import (
    BRACKET_EXHAUSTED,
    DEGENERATE_FIT,
    OWN_FIT,
    POOLED_FALLBACK,
    _fallbacks,
    _m_step,
    _responsibilities,
    _Stack,
)
from smcmix.likelihood import PanelStats, log_scores, penalty_weight
from smcmix.sim import Scenario, simulate_panel

from conftest import make_component, traj
from oracles import fit_gamma_pmle, penalized_objective, reference_panel, subject_loglik


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


def _model_on_another_space(model: MixtureModel, how: str) -> MixtureModel:
    """``model`` moved to a state space unlike its own: relabelled, with its
    last state made absorbing, or without its last state."""
    p, labels = model.params, model.space.labels
    if how == "relabelled":
        return MixtureModel.from_arrays(StateSpace(labels=tuple("ABCDEFGHIJ"[: len(labels)])), p)
    last = len(labels) - 1
    if how == "absorbing":
        alpha = np.where(np.arange(last + 1) == last, 0.0, p.alpha)
        trans = p.trans.copy()
        trans[:, last] = 0.0
        shape, rate = (np.where(np.arange(last + 1) == last, np.nan, x) for x in (p.shape, p.rate))
        return MixtureModel.from_arrays(
            StateSpace(labels=labels, absorbing=last),
            p._replace(alpha=alpha / alpha.sum(axis=1, keepdims=True), trans=trans,
                       shape=shape, rate=rate, absorbing=last))
    alpha, trans = p.alpha[:, :last], p.trans[:, :last, :last]
    return MixtureModel.from_arrays(StateSpace(labels=labels[:last]), p._replace(
        alpha=alpha / alpha.sum(axis=1, keepdims=True),
        trans=trans / trans.sum(axis=2, keepdims=True), shape=p.shape[:, :last],
        rate=p.rate[:, :last]))


@pytest.mark.parametrize("how", ["relabelled", "absorbing", "fewer states"])
@pytest.mark.parametrize("score", [e_step, mixture_loglik])
def test_a_model_on_another_state_space_is_rejected(score, how):
    panel, _ = well_separated_panel(n=30)
    model = _model_on_another_space(fixtures.well_separated_model(), how)
    assert model.space != panel.space
    with pytest.raises(ValueError, match="model is defined on a different state space"):
        score(panel, model)


@pytest.mark.parametrize("how", ["relabelled", "absorbing", "fewer states"])
def test_fit_from_an_init_on_another_state_space_is_rejected(how):
    panel, _ = well_separated_panel(n=30)
    init = _model_on_another_space(fixtures.well_separated_model(), how)
    with pytest.raises(ValueError, match="^init is defined on a different state space$"):
        fit(panel, init, EmConfig())


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
        # started from the truth on a well-separated panel, every subject is
        # assigned whole, so one EM map gives each component its share of
        # subjects
        panel, _ = well_separated_panel(n=40, transitions=10, seed=3)
        truth = fixtures.well_separated_model()
        cfg = EmConfig(max_iter=1)
        z = e_step(panel, truth, cfg.z_round).z
        assert set(np.unique(z)) == {0.0, 1.0}
        counts = z.sum(axis=0)
        assert counts.min() >= 1
        weights = fit(panel, truth, cfg).model.weights
        np.testing.assert_array_equal(weights, counts / z.shape[0])

    def test_uniform(self):
        # two identical components share every subject equally, so one EM
        # map keeps the weights at one half each
        panel, _ = well_separated_panel(n=40, transitions=6, seed=3)
        comp = initial_model(panel, 1, seed=3)[0].components[0]
        init = MixtureModel(space=panel.space, weights=np.array([0.5, 0.5]),
                            components=(comp, comp))
        cfg = EmConfig(max_iter=1)
        np.testing.assert_array_equal(e_step(panel, init, cfg.z_round).z,
                                      np.full((40, 2), 0.5))
        weights = fit(panel, init, cfg).model.weights
        np.testing.assert_array_equal(weights, [0.5, 0.5])

    def test_column_means_oracle(self):
        # one EM map: the weights it returns are the column means of the
        # responsibilities of its starting model
        panel, _ = well_separated_panel(n=40, transitions=6, seed=3)
        init, _ = initial_model(panel, 3, seed=3)
        cfg = EmConfig(max_iter=1)
        z = e_step(panel, init, cfg.z_round).z
        expected = [sum(z[i, g] for i in range(z.shape[0])) / z.shape[0] for g in range(3)]
        weights = fit(panel, init, cfg).model.weights
        np.testing.assert_allclose(weights, expected, rtol=1e-12)


def m_step(panel, zs, penalty_c=0.0, min_obs_mass=7, z_round=1e-4):
    """The shared M-step of the fits whose responsibilities are ``zs`` on
    ``panel``, and each fit's rendered ``(warnings, error)``."""
    step = _m_step(PanelStats.from_panel(panel), zs, penalty_c, min_obs_mass, z_round)
    bounds = np.cumsum([0] + [z.shape[1] for z in zs])
    return step, [_fallbacks(step, slice(a, b), panel.space.labels)
                  for a, b in zip(bounds[:-1], bounds[1:])]


class TestMStepAlphaTrans:
    def test_single_component_classical(self, tiny_panel):
        z = PosteriorMatrix(z=np.ones((3, 1)))
        step, [(warnings, _)] = m_step(tiny_panel, [z.z])
        alpha, trans = step.alpha, step.trans
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
        assert not step.never_left.any()
        assert not any("never left" in w for w in warnings)

    def test_unvisited_state_uniform_row(self, two_state_space):
        space3 = Panel(
            space=StateSpace(labels=("A", "B", "C")),
            subjects=((traj([0, 1, 0], [1.0, 1.0, 1.0]),),),
        )
        z = PosteriorMatrix(z=np.ones((1, 1)))
        step, [(warnings, _)] = m_step(space3, [z.z])
        np.testing.assert_allclose(step.trans[0, 2], [0.5, 0.5, 0.0], rtol=1e-12)
        assert warnings[0] == "component 0: state C never left; transition row set to uniform"

    def test_weighted_counts_pencil_oracle(self, two_state_space):
        panel = Panel(
            space=two_state_space,
            subjects=(
                (traj([0, 1, 0], [1, 1, 1]),),  # first state 0; 0->1, 1->0
                (traj([1, 0], [1, 1]),),  # first state 1; 1->0
            ),
        )
        z = PosteriorMatrix(z=np.array([[0.3, 0.7], [0.6, 0.4]]))
        step, _ = m_step(panel, [z.z])
        alpha, trans = step.alpha, step.trans
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
        step, [(warnings, _)] = m_step(panel, [z.z], c)
        direct = fit_gamma_pmle(np.array(all_state0), np.ones(len(all_state0)), penalty_c=c)
        assert step.shape[0, 0] == pytest.approx(direct.shape, rel=1e-9)
        assert step.rate[0, 0] == pytest.approx(direct.rate, rel=1e-9)
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
        step, [(warnings, _)] = m_step(panel, [z.z], penalty_weight(panel))
        assert "component 0: state C has 3 weight-carrying observations; pooled fallback" in warnings
        # the starved state inherits the pooled fit over every observation
        pooled_values = np.concatenate(
            [t.sojourns for reps in panel.subjects for t in reps]
        )
        pooled = fit_gamma_pmle(
            pooled_values, np.ones_like(pooled_values), penalty_c=penalty_weight(panel)
        )
        assert step.shape[0, 2] == pytest.approx(pooled.shape, rel=1e-9)

    def test_penalty_shrinks_near_degenerate_state(self, two_state_space):
        rng = np.random.default_rng(10)
        subjects = []
        for i in range(10):
            x0 = 5.0 + 0.03 * i  # state 0 nearly degenerate across the panel
            subjects.append((traj([0, 1], [x0, float(rng.gamma(2.0, 2.0))]),))
        panel = Panel(space=two_state_space, subjects=tuple(subjects))
        z = PosteriorMatrix(z=np.ones((10, 1)))
        pen, _ = m_step(panel, [z.z], penalty_weight(panel))
        unpen, _ = m_step(panel, [z.z], 0.0)
        assert pen.shape[0, 0] < unpen.shape[0, 0]

    def test_nonconvergence_context(self, two_state_space):
        # state 0 durations nearly equal (relative spread ~1e-5): the
        # unpenalized shape search must leave the bracket
        subjects = tuple(
            (traj([0, 1], [1.0 + i * 1e-5, 1.0 + 0.37 * i]),) for i in range(10)
        )
        panel = Panel(space=two_state_space, subjects=subjects)
        z = PosteriorMatrix(z=np.ones((10, 1)))
        step, [(warnings, _)] = m_step(panel, [z.z])
        assert step.pooled.tolist() == [[BRACKET_EXHAUSTED, OWN_FIT]]
        assert warnings == [
            "component 0: state B never left; transition row set to uniform",
            "component 0: sojourn fit for state A left the shape bracket; pooled fallback",
        ]


    def test_pooled_fit_failure_is_raised(self, two_state_space):
        # every sojourn equal and no penalty: the state fits and the pooled
        # fallback are all degenerate
        # for the fit that weighs only those subjects; the fit stacked with
        # it, which weighs ten more subjects with spread sojourns, is
        # untouched by its failure
        spread = tuple((traj([0, 1], [1.0 + 0.3 * i, 2.0 + 0.7 * i]),) for i in range(10))
        panel = Panel(space=two_state_space,
                      subjects=((traj([0, 1], [2.0, 2.0]),),) * 10 + spread)
        degenerate = np.repeat([[1.0], [0.0]], 10, axis=0)
        everyone = np.ones((20, 1))
        step, [(_, failure), (_, ok)] = m_step(panel, [degenerate, everyone])
        assert ok is None
        with pytest.raises(
            DegenerateSample, match="^component 0 pooled sojourn fit: sample variance"
        ):
            raise failure
        assert isinstance(failure.__cause__, DegenerateSample)
        alone, [(_, alone_error)] = m_step(panel, [everyone])
        assert alone_error is None
        assert np.array_equal(step.shape[1:], alone.shape)
        assert np.array_equal(step.rate[1:], alone.rate)
        # of several failing components, a fit reports its first
        _, [(_, both)] = m_step(panel, [np.repeat([[0.5, 0.5], [0.0, 0.0]], 10, axis=0)])
        assert str(both).startswith("component 0 pooled sojourn fit: ")


class TestFit:
    def test_pooled_fit_failure_propagates(self, two_state_space):
        panel = Panel(space=two_state_space, subjects=((traj([0, 1], [2.0, 2.0]),),) * 10)
        init, _ = initial_model(panel, 1, seed=0)
        with pytest.raises(
            DegenerateSample, match="^component 0 pooled sojourn fit: sample variance"
        ):
            fit(panel, init, EmConfig(penalized=False))

    def test_single_component_fixed_point(self, tiny_panel):
        init, _ = initial_model(tiny_panel, 1, seed=0)
        cfg = EmConfig(min_obs_mass=2)
        report = fit(tiny_panel, init, cfg)
        assert report.converged
        assert report.iterations <= 2
        # the single-component M-step is an exact maximizer: one more pass
        # from the fitted model must not move the objective
        again = fit(tiny_panel, report.model, cfg)
        assert again.iterations == 1
        assert again.objective_trace[-1] == pytest.approx(
            report.objective_trace[-1], rel=1e-12
        )

    def test_reproducible_bit_identical(self):
        panel, _ = well_separated_panel(n=60, transitions=4, seed=21)
        init, _ = initial_model(panel, 2, seed=3)
        cfg = EmConfig()
        r1 = fit(panel, init, cfg)
        r2 = fit(panel, init, cfg)
        assert r1.objective_trace == r2.objective_trace
        assert r1.model == r2.model
        assert np.array_equal(r1.posteriors.z, r2.posteriors.z)
        assert r1.iterations == r2.iterations and r1.converged == r2.converged

    def test_label_swap_equivalence_exact(self):
        panel, _ = well_separated_panel(n=50, transitions=6, seed=33)
        init, _ = initial_model(panel, 2, seed=4)
        swapped_init = MixtureModel(
            space=init.space,
            weights=init.weights[::-1].copy(),
            components=init.components[::-1],
        )
        cfg = EmConfig()
        r1 = fit(panel, init, cfg)
        r2 = fit(panel, swapped_init, cfg)
        assert r1.objective_trace == r2.objective_trace
        assert r1.model.components[0] == r2.model.components[1]
        assert r1.model.components[1] == r2.model.components[0]
        np.testing.assert_array_equal(r1.posteriors.z, r2.posteriors.z[:, ::-1])

    def test_fixed_point_restart(self):
        panel, _ = well_separated_panel(n=50, transitions=6, seed=34)
        init, _ = initial_model(panel, 2, seed=4)
        cfg = EmConfig()
        report = fit(panel, init, cfg)
        restart = fit(panel, report.model, cfg)
        assert restart.converged and restart.iterations == 1

    def test_ascent_on_well_separated_fixture(self):
        for seed in (1, 2, 3):
            panel, _ = well_separated_panel(n=200, transitions=10, seed=seed)
            init, _ = initial_model(panel, 2, seed=seed)
            report = fit(panel, init, EmConfig())
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
        init, _ = initial_model(panel, 2, seed=1000)
        report = fit(panel, init, EmConfig())
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
            fit(tiny_panel, init, EmConfig(min_obs_mass=2))
        assert err.value.report is not None
        assert not err.value.report.converged

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
        init, _ = initial_model(panel, 2, seed=1)
        report = fit(panel, init, EmConfig(penalized=False))
        assert report.objective_trace[-1] == pytest.approx(
            mixture_loglik(panel, report.model), rel=1e-12
        )
        pen_report = fit(panel, init, EmConfig(penalized=True))
        assert pen_report.objective_trace[-1] == pytest.approx(
            penalized_objective(panel, pen_report.model), rel=1e-12
        )


def _count_likelihoods(monkeypatch) -> list:
    """The parameter sets of the likelihood matrices ``fit`` computes from now on."""
    import smcmix.em as em_module

    calls = []
    original = em_module.subject_loglik_matrix

    def counting(stats, params):
        calls.append(params)
        return original(stats, params)

    monkeypatch.setattr(em_module, "subject_loglik_matrix", counting)
    return calls


class TestSharedLikelihood:
    """One likelihood matrix per model: it yields the model's objective and
    the responsibilities that follow, so both must equal the stand-alone
    evaluations exactly."""

    @staticmethod
    def _g3_fit(name, seed):
        scenario = fixtures.benchmark_scenario(name, n_subjects=80, seed=seed)
        panel, _ = simulate_panel(scenario)
        return panel, initial_model(panel, 3, seed=seed)[0], EmConfig()

    @pytest.mark.parametrize("name,seed", [("well_separated", 41), ("chocolate70", 42)])
    def test_final_posteriors_and_objective_exact(self, name, seed):
        panel, init, cfg = self._g3_fit(name, seed)
        report = fit(panel, init, cfg)
        expected_z = e_step(panel, report.model, cfg.z_round).z
        assert np.array_equal(report.posteriors.z, expected_z)
        assert report.objective_trace[-1] == penalized_objective(panel, report.model)

    @pytest.mark.parametrize("name,seed", [("well_separated", 41), ("chocolate70", 42)])
    def test_one_likelihood_per_model(self, name, seed, monkeypatch):
        panel, init, cfg = self._g3_fit(name, seed)
        calls = _count_likelihoods(monkeypatch)
        report = fit(panel, init, cfg)
        assert report.extrapolations_tried > 0
        assert len(calls) == report.iterations + 1 + report.extrapolations_tried


class TestSquarem:
    """Each cycle of two EM maps, an extrapolated point and its stabilising
    map keeps the stabilising map only when it beats the second map, and
    falls back to the second map whenever the extrapolated point fails."""

    @pytest.mark.parametrize("name,seed", [("well_separated", 41), ("chocolate70", 42)])
    def test_trace_monotone_with_kept_extrapolations(self, name, seed):
        panel, init, cfg = TestSharedLikelihood._g3_fit(name, seed)
        report = fit(panel, init, cfg)
        assert report.converged and report.monotone, report.warnings
        assert 0 < report.extrapolations_kept <= report.extrapolations_tried
        # every kept step is one trace entry: the plain maps and the kept
        # stabilising maps, while a rejected one still counts as a map
        assert len(report.objective_trace) <= report.iterations + 1

    def test_rejected_extrapolation_keeps_the_second_map(self, monkeypatch):
        import smcmix.em as em_module

        panel, init, cfg = TestSharedLikelihood._g3_fit("well_separated", 41)
        # p' = p0 maps to p1, whose objective is below p2's
        monkeypatch.setattr(em_module, "_extrapolate", lambda p0, p1, p2: p0)
        two = fit(panel, init, EmConfig(max_iter=2))
        three = fit(panel, init, EmConfig(max_iter=3))
        assert not two.converged and not three.converged
        assert (three.iterations, three.extrapolations_tried, three.extrapolations_kept) == (3, 1, 0)
        assert two.extrapolations_tried == 0
        assert three.model == two.model
        assert three.objective_trace == two.objective_trace
        assert np.array_equal(three.posteriors.z, two.posteriors.z)

    def test_rejected_stabilising_map_does_not_stop_the_fit(self, monkeypatch):
        import smcmix.em as em_module

        panel, init, cfg = TestSharedLikelihood._g3_fit("well_separated", 41)
        # p' is a stationary point far below the fit: three equal copies of
        # one component, fitted to convergence.  Its map p' -> p'' meets
        # rel_tol, but p'' lies below p2, so the cycle keeps p2 and the fit
        # goes on.
        one = initial_model(panel, 1, seed=41)[0].params
        copies = [0, 0, 0]
        symmetric = MixtureModel.from_arrays(panel.space, one._replace(
            weights=np.full(3, 1.0 / 3.0), alpha=one.alpha[copies], trans=one.trans[copies],
            shape=one.shape[copies], rate=one.rate[copies]))
        stationary = fit(panel, symmetric, cfg)
        assert stationary.converged
        monkeypatch.setattr(em_module, "_extrapolate", lambda p0, p1, p2: self._negative_shape(p2))
        plain = fit(panel, init, cfg)
        monkeypatch.setattr(em_module, "_extrapolate", lambda p0, p1, p2: stationary.model.params)
        report = fit(panel, init, cfg)
        assert report.extrapolations_tried > 0 and report.extrapolations_kept == 0
        assert report.converged and plain.converged
        assert report.objective_trace == plain.objective_trace
        assert report.model == plain.model
        assert report.iterations == plain.iterations + report.extrapolations_tried

    def test_kept_extrapolation_resets_the_empty_streak(self, monkeypatch):
        """A component holds less than one subject for two maps; a kept
        extrapolation (where every component held a subject) restarts its
        streak, so the next starved map counts 1, not the 3 that would
        abort the fit."""
        import smcmix.em as em_module

        panel, _ = well_separated_panel(n=10, transitions=4, seed=3)
        init, _ = initial_model(panel, 2, seed=3)
        starved = np.column_stack([np.full(10, 0.95), np.full(10, 0.05)])
        held = np.full((10, 2), 0.5)
        # responsibilities and objective of each point evaluated, in order:
        # p0, p1, p2, the extrapolated p', its map p'' and the map of p''
        points = [starved, starved, starved, held, starved, starved]
        zs, values = iter(points), iter(range(len(points)))

        class Stack:
            space, cfg = panel.space, EmConfig(max_iter=4)

            def evaluate(self, p):
                return em_module._Point(p, float(next(values)), next(zs), np.zeros(10))

        monkeypatch.setattr(em_module, "_responsibilities", lambda scores, norms, z_round: scores)
        run = em_module._run(Stack(), init)
        # maps of p0, p1, p' and p'': the last one is the third starved map
        # in a row, which aborts the fit unless the kept p'' reset the streak
        mapped = [run.send(None)] + [run.send((init.params, [])) for _ in range(3)]
        assert [z is held for z in mapped] == [False, False, True, False]
        with pytest.raises(StopIteration) as done:
            run.send((init.params, []))
        report = done.value.value
        assert report.iterations == 4 and not report.converged
        assert (report.extrapolations_tried, report.extrapolations_kept) == (1, 1)
        assert report.objective_trace == (0.0, 1.0, 2.0, 4.0, 5.0)

    @staticmethod
    def _negative_shape(p):
        return p._replace(shape=-p.shape)

    @staticmethod
    def _nan_transition(p):
        trans = p.trans.copy()
        trans[0, 0, 1] = math.nan
        return p._replace(trans=trans)

    @staticmethod
    def _emptying(p):
        # three copies of component 0, two of them with no weight to speak of
        copies = [0, 0, 0]
        return p._replace(weights=np.array([1.0, 1e-300, 1e-300]), alpha=p.alpha[copies],
                          trans=p.trans[copies], shape=p.shape[copies], rate=p.rate[copies])

    @staticmethod
    def _infinite_objective(p):
        return p._replace(rate=np.full(p.rate.shape, 1e308))

    @pytest.mark.parametrize("corrupt,evaluated", [
        (_negative_shape, False), (_nan_transition, False),
        (_emptying, True), (_infinite_objective, True),
    ])
    def test_failed_extrapolation_falls_back(self, monkeypatch, corrupt, evaluated):
        import smcmix.em as em_module

        panel, init, cfg = TestSharedLikelihood._g3_fit("well_separated", 41)
        calls = _count_likelihoods(monkeypatch)
        monkeypatch.setattr(em_module, "_extrapolate", lambda p0, p1, p2: corrupt(p2))
        report = fit(panel, init, cfg)
        # every cycle falls back to p2 without a stabilising map: plain EM
        assert report.converged and report.monotone
        assert report.extrapolations_kept == 0
        assert len(report.objective_trace) == report.iterations + 1
        assert (report.extrapolations_tried > 0) == evaluated
        assert len(calls) == report.iterations + 1 + report.extrapolations_tried


class TestIterationInvariants:
    """The parameters are checked after every M-step, with the messages of
    the model constructors, before any likelihood is evaluated on them."""

    @staticmethod
    def _fit_counting_likelihoods(monkeypatch):
        import smcmix.em as em_module

        panel, _ = well_separated_panel(n=60, transitions=4, seed=21)
        init, _ = initial_model(panel, 2, seed=3)
        calls = []
        original = em_module.subject_loglik_matrix

        def counting(stats, params):
            calls.append(params)
            return original(stats, params)

        monkeypatch.setattr(em_module, "subject_loglik_matrix", counting)
        return lambda: fit(panel, init, EmConfig()), calls

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
        original = em_module._m_step

        def corrupting(*args, **kwargs):
            step = original(*args, **kwargs)
            step.trans[1, 0, 1] = -step.trans[1, 0, 1]
            return step

        monkeypatch.setattr(em_module, "_m_step", corrupting)
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
        panel, _ = reference_panel(scenario)
        init, _ = initial_model(panel, 4, seed=29)
        with pytest.raises(EmptyComponent) as err:
            fit(panel, init, EmConfig())
        partial = err.value.report
        assert partial.iterations == 2
        stopped = fit(panel, init, EmConfig(max_iter=partial.iterations))
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
            fit(tiny_panel, init, EmConfig(min_obs_mass=2))
        assert err.value.report.iterations == 0
        assert err.value.report.model == init


def _converged_fit():
    panel, _ = well_separated_panel(n=60, transitions=6, seed=12)
    report = fit(panel, initial_model(panel, 2, seed=12)[0], EmConfig())
    assert report.converged
    return panel, report


def _fit_stopped_at_max_iter():
    panel, init, _ = TestSharedLikelihood._g3_fit("chocolate70", 42)
    report = fit(panel, init, EmConfig(max_iter=5))
    assert not report.converged and report.iterations == 5
    return panel, report


def _aborted_fit():
    scenario = fixtures.benchmark_scenario("chocolate70", n_subjects=30, transitions=4, seed=29)
    panel, _ = reference_panel(scenario)
    with pytest.raises(EmptyComponent) as err:
        fit(panel, initial_model(panel, 4, seed=29)[0], EmConfig())
    return panel, err.value.report


def _unpenalized_fit():
    panel, _ = well_separated_panel(n=40, transitions=6, seed=35)
    return panel, fit(panel, initial_model(panel, 2, seed=1)[0], EmConfig(penalized=False))


def _absorbing_fit():
    from test_absorbing import two_group_model

    scenario = Scenario(
        model=two_group_model(), n_subjects=60, n_replications=3,
        stop_rule="absorbing", seed=88, replicate_count=1,
    )
    panel, _ = simulate_panel(scenario)
    return panel, fit(panel, initial_model(panel, 2, seed=88)[0], EmConfig())


@pytest.mark.parametrize(
    "make",
    [_converged_fit, _fit_stopped_at_max_iter, _aborted_fit, _unpenalized_fit, _absorbing_fit],
)
def test_reported_loglik_is_the_mixture_loglik_exactly(make):
    """``FitReport.loglik`` is the plain mixture log-likelihood of the
    returned model, bit for bit, however the fit ended."""
    panel, report = make()
    assert report.loglik == mixture_loglik(panel, report.model)


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
    z = np.full((10, 2), 0.5)
    step, [(warnings, _)] = m_step(panel, [z])
    shape, rate = step.shape, step.rate
    assert step.pooled.tolist() == [[DEGENERATE_FIT, BRACKET_EXHAUSTED, POOLED_FALLBACK,
                                     OWN_FIT]] * 2
    # C ends every trajectory it is in: its rows come first, set to uniform
    uniform = [f"component {g}: state C never left; transition row set to uniform" for g in (0, 1)]
    per_component = [
        "degenerate sojourn sample in state A; pooled fallback",
        "sojourn fit for state B left the shape bracket; pooled fallback",
        "state C has 3 weight-carrying observations; pooled fallback",
    ]
    assert warnings == uniform + [f"component {g}: {w}" for g in (0, 1) for w in per_component]
    # the pooled cells hold the component's one pooled fit; D has its own
    for params in (shape, rate):
        assert np.all(params[:, :3] == params[:, :1])
        assert np.all(params[:, 3] != params[:, 0])


def test_stacked_fallbacks_belong_to_their_fit():
    """A stack of a G = 2 and a G = 3 fit whose M-step fires every fallback
    code: each fit gets the warnings and the pooled-fit error it gets as a
    stack of one, naming its own components 0..G-1."""
    space = StateSpace(labels=("A", "B", "C", "D", "E"))  # E is never visited
    rng = np.random.default_rng(12)
    subjects = []
    for i in range(10):
        states = [0, 1, 3] + ([2] if i < 3 else [])
        durations = [2.0, 1.0 + 1e-3 * i, float(rng.gamma(2.0, 2.0)), 0.5 + i][: len(states)]
        subjects.append((traj(states, durations),))
    subjects += [(traj([0, 1, 0, 1], [2.0] * 4),)] * 8  # every sojourn equal
    panel = Panel(space=space, subjects=tuple(subjects))
    # the G = 3 fit gives the flat subjects a component of their own, whose
    # pooled fit is degenerate
    two = np.vstack([np.full((10, 2), 0.5), np.tile([1.0, 0.0], (8, 1))])
    three = np.vstack([np.tile([0.5, 0.5, 0.0], (10, 1)), np.tile([0.0, 0.0, 1.0], (8, 1))])
    step, stacked = m_step(panel, [two, three])
    assert step.never_left.any()
    assert set(step.pooled.ravel()) == {OWN_FIT, POOLED_FALLBACK, DEGENERATE_FIT, BRACKET_EXHAUSTED}
    for z, (warnings, error) in zip((two, three), stacked):
        _, [(alone, alone_error)] = m_step(panel, [z])
        assert warnings == alone
        assert {int(w.split(":")[0].split()[1]) for w in warnings} == set(range(z.shape[1]))
        assert type(error) is type(alone_error) and str(error) == str(alone_error)
    assert stacked[0][1] is None
    error = stacked[1][1]
    assert isinstance(error, DegenerateSample) and isinstance(error.__cause__, DegenerateSample)
    assert str(error).startswith("component 2 pooled sojourn fit: sample variance")
    # the stack hands the G = 2 fit its checked parameters and those warnings
    stack = _Stack(panel, PanelStats.from_panel(panel), EmConfig(penalized=False))
    (params, warnings), raised = stack.m_step([two, three])
    assert warnings == stacked[0][0]
    assert type(raised) is type(error) and str(raised) == str(error)
    [(alone_params, _)] = stack.m_step([two])
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(params[:5], alone_params[:5]))


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

    @pytest.mark.parametrize("field", ["max_iter", "min_obs_mass", "seed"])
    @pytest.mark.parametrize("value", [2.5, 6.5, True, "7"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            EmConfig(**{field: value})
        assert getattr(EmConfig(**{field: np.int64(3)}), field) == 3

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            EmConfig(seed=-1)
        assert EmConfig(seed=0).seed == 0
