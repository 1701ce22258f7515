import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln

from smcmix import (
    EmConfig,
    MixtureModel,
    Panel,
    StateSpace,
    em,
    fit,
    fixtures,
    mixture_loglik,
    penalty_term,
    initial_model,
    penalty_weight,
    select_g,
)
from smcmix.core import MixtureArrays
from smcmix.likelihood import PanelStats, log_scores, subject_loglik_matrix
from smcmix.sim import Scenario, simulate_panel

from conftest import make_component, traj
from oracles import component_loglik, penalized_objective, subject_loglik
from test_absorbing import two_group_model


def absorbing_unit_component():
    """Deterministic start, one transition into the terminal state, unit
    exponential sojourn: every probability factor is 1."""
    return make_component(
        alpha=[1.0, 0.0],
        trans=[[0.0, 1.0], [0.0, 0.0]],
        gammas=[(1.0, 1.0), None],
        absorbing=1,
    )


class TestComponentLoglik:
    def test_all_unit_factors(self):
        comp = absorbing_unit_component()
        t = traj([0, 1], [1.0, 1.0])
        assert component_loglik(t, comp) == pytest.approx(-1.0, abs=1e-12)

    def test_structural_zero_first_state(self, simple_model):
        comp = make_component([1.0, 0.0], [[0, 1], [1, 0]], [(1, 1), (1, 1)])
        t = traj([1, 0], [1.0, 1.0])
        assert component_loglik(t, comp) == -math.inf

    def test_structural_zero_transition(self):
        comp = make_component(
            alpha=[0.5, 0.5, 0.0],
            trans=[[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.4, 0.6, 0.0]],
            gammas=[(1, 1), (1, 1), (1, 1)],
        )
        assert component_loglik(traj([0, 2], [1.0, 1.0]), comp) == -math.inf

    def test_dimension_mismatch(self, simple_component):
        with pytest.raises(ValueError):
            component_loglik(traj([0, 5], [1.0, 1.0]), simple_component)

    def test_chocolate_factor_product_oracle(self):
        """Four transitions under the 70% cocoa parameters versus an
        independent factor-by-factor evaluation."""
        comp = fixtures.chocolate_70()
        lab = fixtures.CHOCOLATE_LABELS.index
        path = [lab("Crunchy"), lab("Cocoa"), lab("Melting"), lab("Sweet"), lab("Cocoa")]
        durations = [2.0, 1.5, 3.0, 0.7, 2.2]
        t = traj(path, durations)

        expected = math.log(comp.alpha[path[0]])
        for a, b in zip(path, path[1:]):
            expected += math.log(comp.trans[a, b])
        for j, x in zip(path, durations):
            p = comp.sojourn[j]
            expected += (
                (p.shape - 1.0) * math.log(x)
                + p.shape * math.log(p.rate)
                - p.rate * x
                - math.lgamma(p.shape)
            )
        assert component_loglik(t, comp) == pytest.approx(expected, rel=1e-14)


class TestSubjectLoglik:
    def test_single_replication(self, simple_component):
        t = traj([0, 1], [1.0, 2.0])
        assert subject_loglik([t], simple_component) == component_loglik(t, simple_component)

    def test_three_identical_replications(self, simple_component):
        t = traj([0, 1], [1.0, 2.0])
        single = component_loglik(t, simple_component)
        assert subject_loglik([t, t, t], simple_component) == pytest.approx(
            3.0 * single, rel=1e-12
        )

    def test_log_linear_consistency(self, simple_component):
        ts = [traj([0, 1], [1.0, 2.0]), traj([1, 0, 1], [0.5, 1.5, 2.5])]
        total = subject_loglik(ts, simple_component)
        product = math.exp(component_loglik(ts[0], simple_component)) * math.exp(
            component_loglik(ts[1], simple_component)
        )
        assert math.exp(total) == pytest.approx(product, rel=1e-12)


class TestMixtureLoglik:
    def test_single_component_sum(self, tiny_panel, simple_component):
        model = MixtureModel(
            space=tiny_panel.space, weights=np.array([1.0]), components=(simple_component,)
        )
        expected = sum(subject_loglik(reps, simple_component) for reps in tiny_panel.subjects)
        assert mixture_loglik(tiny_panel, model) == pytest.approx(expected, rel=1e-12)

    def test_duplicated_components(self, tiny_panel, simple_component):
        single = MixtureModel(
            space=tiny_panel.space, weights=np.array([1.0]), components=(simple_component,)
        )
        double = MixtureModel(
            space=tiny_panel.space,
            weights=np.array([0.5, 0.5]),
            components=(simple_component, simple_component),
        )
        assert mixture_loglik(tiny_panel, double) == pytest.approx(
            mixture_loglik(tiny_panel, single), rel=1e-12
        )

    def test_extended_precision_oracle(self, tiny_panel, simple_model):
        """Direct mixture sum in 50-digit arithmetic, no log-sum-exp."""
        mp.mp.dps = 50

        def mp_gamma_logpdf(x, p):
            x = mp.mpf(x)
            return (
                (mp.mpf(p.shape) - 1) * mp.log(x)
                + mp.mpf(p.shape) * mp.log(mp.mpf(p.rate))
                - mp.mpf(p.rate) * x
                - mp.log(mp.gamma(mp.mpf(p.shape)))
            )

        def mp_subject_lik(reps, comp):
            total = mp.mpf(1)
            for t in reps:
                value = mp.mpf(float(comp.alpha[t.states[0]]))
                for a, b in zip(t.states[:-1], t.states[1:]):
                    value *= mp.mpf(float(comp.trans[a, b]))
                for j, x in zip(t.states, t.sojourns):
                    value *= mp.e ** mp_gamma_logpdf(float(x), comp.sojourn[int(j)])
                total *= value
            return total

        expected = mp.mpf(0)
        for reps in tiny_panel.subjects:
            mix = mp.mpf(0)
            for w, comp in zip(simple_model.weights, simple_model.components):
                mix += mp.mpf(float(w)) * mp_subject_lik(reps, comp)
            expected += mp.log(mix)
        assert mixture_loglik(tiny_panel, simple_model) == pytest.approx(
            float(expected), rel=1e-12
        )

    def test_permutation_invariance_exact(self, tiny_panel, simple_model):
        swapped = MixtureModel(
            space=simple_model.space,
            weights=simple_model.weights[::-1].copy(),
            components=simple_model.components[::-1],
        )
        assert mixture_loglik(tiny_panel, simple_model) == mixture_loglik(tiny_panel, swapped)

    def test_subject_removal_additivity(self, tiny_panel, simple_model):
        smaller = Panel(space=tiny_panel.space, subjects=tiny_panel.subjects[:-1])
        full = mixture_loglik(tiny_panel, simple_model)
        part = mixture_loglik(smaller, simple_model)
        removed = tiny_panel.subjects[-1]
        from scipy.special import logsumexp

        contrib = logsumexp(
            [
                math.log(w) + subject_loglik(removed, comp)
                for w, comp in zip(simple_model.weights, simple_model.components)
            ]
        )
        assert full - part == pytest.approx(float(contrib), abs=1e-10)

    def test_vectorized_matches_reference(self, tiny_panel, simple_model):
        stats = PanelStats.from_panel(tiny_panel)
        matrix = subject_loglik_matrix(stats, simple_model.params)
        for i, reps in enumerate(tiny_panel.subjects):
            for g, comp in enumerate(simple_model.components):
                assert matrix[i, g] == pytest.approx(subject_loglik(reps, comp), rel=1e-12)

    def test_vectorized_structural_zeros(self, tiny_panel):
        # evaluation model forbids the 0 -> 1 transition some subjects use
        comp = make_component(
            alpha=[0.5, 0.5], trans=[[0.0, 1.0], [1.0, 0.0]], gammas=[(1, 1), (1, 1)]
        )
        blocked = make_component(
            alpha=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], gammas=[(1, 1), (1, 1)]
        )
        model = MixtureModel(
            space=tiny_panel.space, weights=np.array([0.5, 0.5]), components=(comp, blocked)
        )
        stats = PanelStats.from_panel(tiny_panel)
        matrix = subject_loglik_matrix(stats, model.params)
        for i, reps in enumerate(tiny_panel.subjects):
            assert (matrix[i, 1] == -math.inf) == (
                subject_loglik(reps, blocked) == -math.inf
            )


class TestLogScores:
    """``log_scores`` reduces rows with scipy's logsumexp algorithm written
    in numpy; scipy stays the oracle, bit for bit."""

    @staticmethod
    def assert_scipy_equal(ll, weights):
        from scipy.special import logsumexp

        scores, norms = log_scores(np.asarray(ll, dtype=np.float64), np.asarray(weights))
        expected = logsumexp(scores, axis=1)
        assert norms.shape == expected.shape
        assert norms.tobytes() == expected.tobytes(), (norms, expected)

    def test_crafted_rows(self):
        inf = math.inf
        ll = [
            [0.0, 0.0, 0.0],  # three-way tie
            [1.5, 1.5, -2.0],  # tie at the top
            [-2.0, 1.5, 1.5],
            [-inf, 0.0, 3.0],  # a single -inf entry
            [-inf, -inf, -7.25],
            [-inf, -inf, -inf],  # impossible under every component
            [-1e6, -1e6 + 1e-9, -5e5],
            [700.0, -700.0, 0.0],
        ]
        self.assert_scipy_equal(ll, [1 / 3, 1 / 3, 1 / 3])
        self.assert_scipy_equal(ll, [0.2, 0.5, 0.3])

    def test_all_impossible_gives_minus_inf(self):
        _, norms = log_scores(np.full((2, 3), -math.inf), np.full(3, 1 / 3))
        assert np.all(norms == -math.inf)

    @settings(deadline=None, max_examples=300)
    @given(
        hnp.arrays(
            np.float64,
            shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.one_of(
                st.floats(min_value=-1e6, max_value=1e3),
                st.sampled_from([-math.inf, -3.0, 0.0, 2.5]),  # ties and -inf
            ),
        ),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_logsumexp(self, ll, component_major, seed):
        # subject_loglik_matrix hands over component-major (Fortran) arrays
        if component_major:
            ll = np.asfortranarray(ll)
        weights = np.random.default_rng(seed).dirichlet(np.ones(ll.shape[1]))
        weights = np.maximum(weights, 1e-300)
        self.assert_scipy_equal(ll, weights)


class TestPenalizedObjective:
    def test_normalizer(self, two_state_space):
        # 8 subjects x 5 replications x 10 states = 400 visited states
        states = [0, 1] * 5
        t = traj(states, [1.0] * 10)
        panel = Panel(space=two_state_space, subjects=tuple((t,) * 5 for _ in range(8)))
        assert penalty_weight(panel) == pytest.approx(1.0 / 20.0, rel=1e-15)

    def test_unit_shapes(self, two_state_space):
        comp = make_component([0.5, 0.5], [[0, 1], [1, 0]], [(1.0, 2.0), (1.0, 0.5)])
        model = MixtureModel(
            space=two_state_space, weights=np.array([0.5, 0.5]), components=(comp, comp)
        )
        # ln(1) = 0, so each of the G x D shapes contributes exactly 1
        assert penalty_term(model.params, 0.05) == pytest.approx(-0.05 * 2 * 2, rel=1e-14)

    def test_penalty_sums_in_component_state_order(self):
        model = two_group_model()
        scenario = Scenario(
            model=fixtures.one_component_model(), n_subjects=40, n_replications=2,
            stop_rule=6, seed=8, replicate_count=1,
        )
        panel, _ = simulate_panel(scenario)
        for m in (model, initial_model(panel, 3, EmConfig(seed=8))[0]):
            total = 0.0
            for comp in m.components:
                for p in comp.sojourn:
                    if p is not None:
                        total += p.shape + np.log(p.shape)
            assert penalty_term(m.params, 0.0123) == -0.0123 * total

    def test_penalty_sign(self, tiny_panel, simple_model):
        # all shapes of the fixture model are >= 1
        assert penalized_objective(tiny_panel, simple_model) <= mixture_loglik(
            tiny_panel, simple_model
        )


def reference_stats(panel: Panel) -> dict:
    """Sufficient statistics accumulated trajectory by trajectory: the
    reference the one-pass :meth:`PanelStats.from_panel` must equal."""
    n, d = panel.n_subjects, panel.space.n_states
    absorbing = panel.space.absorbing
    first = np.zeros((n, d))
    trans = np.zeros((n, d, d))
    counts = np.zeros((n, d))
    sums = np.zeros((n, d))
    logsums = np.zeros((n, d))
    for i, reps in enumerate(panel.subjects):
        for t in reps:
            states = t.states
            first[i, states[0]] += 1.0
            np.add.at(trans[i], (states[:-1], states[1:]), 1.0)
            soj_states, soj_values = states, t.sojourns
            if absorbing is not None and states[-1] == absorbing:
                soj_states, soj_values = states[:-1], soj_values[:-1]
            np.add.at(counts[i], soj_states, 1.0)
            np.add.at(sums[i], soj_states, soj_values)
            np.add.at(logsums[i], soj_states, np.log(soj_values))
    return {
        "first_counts": first,
        "trans_counts": trans,
        "soj_counts": counts,
        "soj_sum": sums,
        "soj_logsum": logsums,
        "absorbing": absorbing,
    }


def assert_stats_match_reference(panel: Panel) -> None:
    stats = PanelStats.from_panel(panel)
    for name, expected in reference_stats(panel).items():
        assert np.array_equal(getattr(stats, name), expected), name


@st.composite
def small_panels(draw):
    """Up to four subjects over 2-4 live states, optionally with a final
    absorbing state, trajectories of ragged lengths."""
    n_live = draw(st.integers(2, 4))
    absorbing = draw(st.sampled_from([None, n_live]))
    labels = tuple(f"s{j}" for j in range(n_live))
    if absorbing is not None:
        labels += ("STOP",)
    n, b = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    duration = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    subjects = []
    for _ in range(n):
        reps = []
        for _ in range(b):
            states = [draw(st.integers(0, n_live - 1))]
            for _ in range(draw(st.integers(1, 5))):
                states.append((states[-1] + draw(st.integers(1, n_live - 1))) % n_live)
            if absorbing is not None and draw(st.booleans()):
                states.append(absorbing)
            reps.append(traj(states, [draw(duration) for _ in states]))
        subjects.append(tuple(reps))
    return Panel(space=StateSpace(labels=labels, absorbing=absorbing), subjects=tuple(subjects))


class TestPanelStatsOracle:
    def test_tiny_panel(self, tiny_panel):
        assert_stats_match_reference(tiny_panel)

    def test_chocolate70_panel(self):
        scenario = Scenario(
            model=fixtures.one_component_model(),
            n_subjects=70, n_replications=3, stop_rule=10, seed=70,
        )
        assert_stats_match_reference(simulate_panel(scenario)[0])

    def test_absorbing_ragged_panel(self):
        scenario = Scenario(
            model=two_group_model(), n_subjects=60, n_replications=3,
            stop_rule="absorbing", seed=88,
        )
        panel = simulate_panel(scenario)[0]
        assert len({len(t) for t in panel.trajectories()}) > 1
        assert_stats_match_reference(panel)

    @settings(max_examples=60, deadline=None)
    @given(small_panels())
    def test_generated_panels(self, panel):
        assert_stats_match_reference(panel)


class TestPanelStatsTable:
    def test_named_fields_are_read_only_views_of_the_table(self, tiny_panel):
        stats = PanelStats.from_panel(tiny_panel)
        d = stats.n_states
        assert stats.table.shape == (tiny_panel.n_subjects, d + d * d + 3 * d)
        assert not stats.table.flags.writeable
        blocks = [stats.first_counts, stats.trans_counts.reshape(-1, d * d), stats.soj_logsum,
                  stats.soj_counts, stats.soj_sum]
        assert np.array_equal(np.concatenate(blocks, axis=1), stats.table)
        for block in blocks:
            assert np.shares_memory(block, stats.table)
            assert not block.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0


class TestStatsBuilds:
    """Each entry point builds the panel statistics once; a sweep builds
    them once for all its inits and its stack of fits."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = PanelStats.__dict__["from_panel"].__func__

        def counting(cls, panel):
            calls.append(panel)
            return original(cls, panel)

        monkeypatch.setattr(PanelStats, "from_panel", classmethod(counting))
        return calls

    @pytest.fixture
    def panel(self):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=40, n_replications=3, stop_rule=6, seed=31,
        )
        return simulate_panel(scenario)[0]

    def test_initial_model(self, panel, builds):
        initial_model(panel, 2, EmConfig(seed=1))
        assert len(builds) == 1

    def test_fit(self, panel, builds):
        init, _ = initial_model(panel, 2, EmConfig(seed=1))
        builds.clear()
        fit(panel, init, EmConfig())
        assert len(builds) == 1

    def test_select_g(self, panel, builds):
        select_g(panel, [1, 2, 3], EmConfig(seed=1))
        assert len(builds) == 1


def reference_theta_row(
    stats: PanelStats, alpha: np.ndarray, trans: np.ndarray, shape: np.ndarray, rate: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One component's row of the parameter matrix that
    :func:`subject_loglik_matrix` multiplies with ``stats.table``, every
    transform taken on that component's own parameters, and the subjects
    that meet one of its zero initial or transition cells."""
    d = stats.n_states
    if stats.absorbing is not None:
        live = np.arange(d) != stats.absorbing
        shape = np.where(live, shape, 1.0)
        rate = np.where(live, rate, 1.0)
    log_alpha = np.where(alpha > 0.0, np.log(np.where(alpha > 0.0, alpha, 1.0)), 0.0)
    log_trans = np.where(trans > 0.0, np.log(np.where(trans > 0.0, trans, 1.0)), 0.0)
    row = np.concatenate([
        log_alpha, log_trans.reshape(d * d), shape - 1.0,
        shape * np.log(rate) - gammaln(shape), -rate,
    ])
    tcounts = stats.trans_counts.reshape(stats.n_subjects, d * d)
    impossible = (stats.first_counts @ (alpha == 0.0)) > 0
    impossible |= (tcounts @ (trans == 0.0).reshape(d * d)) > 0
    return row, impossible


def reference_component_column(
    stats: PanelStats, alpha: np.ndarray, trans: np.ndarray, shape: np.ndarray, rate: np.ndarray
) -> np.ndarray:
    """Per-subject log-likelihood under one component as five products,
    every transform taken on that component's own parameters: a second
    reference, equal to each column of :func:`subject_loglik_matrix` up to
    the rounding of the products."""
    d = stats.n_states
    if stats.absorbing is not None:
        live = np.arange(d) != stats.absorbing
        shape = np.where(live, shape, 1.0)
        rate = np.where(live, rate, 1.0)

    log_alpha = np.where(alpha > 0.0, np.log(np.where(alpha > 0.0, alpha, 1.0)), 0.0)
    log_trans = np.where(trans > 0.0, np.log(np.where(trans > 0.0, trans, 1.0)), 0.0)
    tcounts = stats.trans_counts.reshape(stats.n_subjects, d * d)

    ll = stats.first_counts @ log_alpha
    ll += tcounts @ log_trans.reshape(d * d)
    ll += stats.soj_logsum @ (shape - 1.0)
    ll += stats.soj_counts @ (shape * np.log(rate) - gammaln(shape))
    ll -= stats.soj_sum @ rate

    impossible = (stats.first_counts @ (alpha == 0.0)) > 0
    impossible |= (tcounts @ (trans == 0.0).reshape(d * d)) > 0
    ll[impossible] = -np.inf
    return ll


@st.composite
def panels_and_models(draw):
    """A generated panel and G = 1-3 components on its state space; some
    components zero initial and transition cells that subjects use."""
    panel = draw(small_panels())
    d, absorbing = panel.space.n_states, panel.space.absorbing
    g = draw(st.integers(1, 3))
    cell = st.floats(min_value=1e-3, max_value=1.0)
    alpha = draw(hnp.arrays(np.float64, (g, d), elements=cell))
    trans = draw(hnp.arrays(np.float64, (g, d, d), elements=cell))
    for j in range(g):
        if draw(st.booleans()):
            alpha[j][draw(hnp.arrays(bool, d))] = 0.0
            trans[j][draw(hnp.arrays(bool, (d, d)))] = 0.0
    trans[:, np.arange(d), np.arange(d)] = 0.0
    if absorbing is not None:
        alpha[:, absorbing] = 0.0
        trans[:, absorbing] = 0.0
    alpha[:, 0] += alpha.sum(axis=1) == 0.0  # keep every row a distribution
    alpha /= alpha.sum(axis=1, keepdims=True)
    sums = trans.sum(axis=2, keepdims=True)
    trans /= np.where(sums > 0.0, sums, 1.0)
    positive = st.floats(min_value=1e-2, max_value=50.0)
    shape = draw(hnp.arrays(np.float64, (g, d), elements=positive))
    rate = draw(hnp.arrays(np.float64, (g, d), elements=positive))
    if absorbing is not None:
        shape[:, absorbing] = rate[:, absorbing] = np.nan
    return panel, MixtureArrays(np.full(g, 1.0 / g), alpha, trans, shape, rate, absorbing)


@st.composite
def valid_panels_and_models(draw):
    """A generated panel and a valid :class:`MixtureModel` on its space:
    the parameters of :func:`panels_and_models`, with every transition row
    it left empty (other than the absorbing row) made uniform off the
    diagonal; the zero cells of the other rows stay."""
    panel, p = draw(panels_and_models())
    d = panel.space.n_states
    trans = p.trans.copy()
    empty = trans.sum(axis=2) == 0.0
    if p.absorbing is not None:
        empty[:, p.absorbing] = False
    trans[empty] = (1.0 - np.eye(d))[np.nonzero(empty)[1]] / (d - 1)
    return panel, MixtureModel.from_arrays(panel.space, p._replace(trans=trans))


class TestLoglikMatrixOracle:
    def test_matrix_is_component_major(self, tiny_panel, simple_model):
        # the per-subject reductions over components read contiguous memory
        matrix = subject_loglik_matrix(PanelStats.from_panel(tiny_panel), simple_model.params)
        assert matrix.shape == (tiny_panel.n_subjects, simple_model.n_components)
        assert matrix.flags.f_contiguous and not matrix.flags.c_contiguous

    @settings(max_examples=200, deadline=None)
    @given(panels_and_models())
    def test_generated_panels_bit_for_bit(self, case):
        panel, p = case
        stats = PanelStats.from_panel(panel)
        matrix = subject_loglik_matrix(stats, p)
        components = [(p.alpha[g], p.trans[g], p.shape[g], p.rate[g]) for g in range(len(p.weights))]
        rows, masks = zip(*(reference_theta_row(stats, *comp) for comp in components))
        expected = (np.stack(rows) @ stats.table.T).T
        expected[np.column_stack(masks)] = -np.inf
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()
        # The five products per component agree up to their rounding,
        # relative to the summed magnitude of the terms (a subject's terms
        # may cancel).
        columns = np.column_stack([reference_component_column(stats, *comp) for comp in components])
        assert np.array_equal(np.isneginf(matrix), np.isneginf(columns))
        scale = (np.abs(np.stack(rows)) @ np.abs(stats.table).T).T
        finite = np.isfinite(columns)
        assert np.all(np.abs(matrix[finite] - columns[finite]) <= 1e-13 * scale[finite])

    @settings(max_examples=150, deadline=None)
    @given(valid_panels_and_models())
    def test_generated_panels_match_per_trajectory_oracle(self, case):
        panel, model = case
        stats = PanelStats.from_panel(panel)
        matrix = subject_loglik_matrix(stats, model.params)
        expected = np.array([[subject_loglik(reps, comp) for comp in model.components]
                             for reps in panel.subjects])
        assert np.array_equal(np.isneginf(matrix), np.isneginf(expected))
        # the bound of the five-product comparison above
        p = model.params
        rows = [reference_theta_row(stats, p.alpha[g], p.trans[g], p.shape[g], p.rate[g])[0]
                for g in range(model.n_components)]
        scale = (np.abs(np.stack(rows)) @ np.abs(stats.table).T).T
        finite = np.isfinite(expected)
        assert np.all(np.abs(matrix[finite] - expected[finite]) <= 1e-13 * scale[finite])

    def test_fit_goes_through_the_em_binding(self, monkeypatch):
        # perfbench counts likelihood matrices by wrapping the name bound in
        # smcmix.em: one matrix per parameter set the fit evaluates.
        calls = []

        def counting(stats, model):
            calls.append(len(model.weights))
            return subject_loglik_matrix(stats, model)

        monkeypatch.setattr(em, "subject_loglik_matrix", counting)
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=40, n_replications=3, stop_rule=6, seed=31,
        )
        panel = simulate_panel(scenario)[0]
        report = fit(panel, initial_model(panel, 2, EmConfig(seed=1))[0], EmConfig())
        assert report.iterations > 0
        assert calls == [2] * (1 + report.iterations + report.extrapolations_tried)

    def test_select_g_goes_through_the_em_binding(self, monkeypatch):
        # a sweep's stack evaluates each fit's matrices through the same
        # binding, one per parameter set, interleaved across the fits
        calls = []

        def counting(stats, model):
            calls.append(len(model.weights))
            return subject_loglik_matrix(stats, model)

        monkeypatch.setattr(em, "subject_loglik_matrix", counting)
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=40, n_replications=3, stop_rule=6, seed=31,
        )
        panel = simulate_panel(scenario)[0]
        sweep = select_g(panel, [1, 2, 3], EmConfig(seed=1))
        assert sweep.reports[3].iterations > 0
        for g, report in sweep.reports.items():
            assert [c for c in calls if c == g] == [g] * (
                1 + report.iterations + report.extrapolations_tried
            )
        assert sorted(set(calls)) == [1, 2, 3]
