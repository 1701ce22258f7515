import numpy as np
import pytest

from smcmix import (
    ComponentParams,
    GammaParams,
    InvalidModelError,
    MixtureModel,
    Panel,
    PosteriorMatrix,
    StateSpace,
    Trajectory,
    pool_mixture,
    validate_h1_h2,
)
from smcmix import fixtures
from smcmix.sim import simulate_trajectory

from conftest import make_component, traj


class TestStateSpace:
    def test_needs_two_states(self):
        with pytest.raises(InvalidModelError):
            StateSpace(labels=("A",))

    def test_labels_unique(self):
        with pytest.raises(InvalidModelError):
            StateSpace(labels=("A", "A"))

    def test_absorbing_range(self):
        with pytest.raises(InvalidModelError):
            StateSpace(labels=("A", "B"), absorbing=5)

    def test_index(self):
        s = StateSpace(labels=("A", "B"))
        assert s.index("B") == 1
        with pytest.raises(KeyError):
            s.index("C")


class TestTrajectory:
    """Each invariant fails with its own message, in the order checked."""

    def test_one_dimensional(self):
        with pytest.raises(InvalidModelError, match="^states and sojourns must be 1-D$"):
            traj([[0, 1], [1, 0]], [[1.0, 1.0], [1.0, 1.0]])

    def test_min_length(self):
        with pytest.raises(InvalidModelError, match="^a trajectory must visit at least two states$"):
            traj([0], [1.0])

    def test_nonnegative_states(self):
        with pytest.raises(InvalidModelError, match="^state indices must be nonnegative$"):
            traj([0, -1, 0], [1.0, 1.0, 1.0])

    def test_no_self_transition(self):
        with pytest.raises(InvalidModelError, match="^self-transitions are not representable$"):
            traj([0, 1, 1], [1.0, 1.0, 1.0])

    def test_positive_sojourns(self):
        with pytest.raises(
            InvalidModelError, match="^sojourn durations must be strictly positive$"
        ):
            traj([0, 1], [1.0, 0.0])

    def test_nan_sojourn(self):
        with pytest.raises(
            InvalidModelError, match="^sojourn durations must be strictly positive$"
        ):
            traj([0, 1, 0], [1.0, np.nan, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidModelError, match="^states and sojourns must have equal length$"):
            traj([0, 1], [1.0])

    def test_immutable(self):
        t = traj([0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            t.states[0] = 1


class TestPanel:
    def test_uniform_replications(self, two_state_space):
        with pytest.raises(InvalidModelError):
            Panel(
                space=two_state_space,
                subjects=(
                    (traj([0, 1], [1, 1]),),
                    (traj([0, 1], [1, 1]), traj([1, 0], [1, 1])),
                ),
            )

    def test_state_in_space(self, two_state_space):
        with pytest.raises(InvalidModelError):
            Panel(space=two_state_space, subjects=((traj([0, 2], [1, 1]),),))

    def test_absorbing_only_final(self, absorbing_space):
        with pytest.raises(InvalidModelError):
            Panel(space=absorbing_space, subjects=((traj([2, 0], [1, 1]),),))
        # final position is fine
        Panel(space=absorbing_space, subjects=((traj([0, 2], [1, 1]),),))


class TestGammaParams:
    def test_positive(self):
        with pytest.raises(InvalidModelError):
            GammaParams(shape=0.0, rate=1.0)
        with pytest.raises(InvalidModelError):
            GammaParams(shape=1.0, rate=-1.0)

    def test_moment_identities(self):
        p = GammaParams(shape=2.83, rate=0.41)
        assert p.mean == 2.83 / 0.41
        assert p.variance == 2.83 / (0.41 * 0.41)


class TestComponentParams:
    def test_alpha_simplex(self):
        with pytest.raises(InvalidModelError):
            make_component([0.5, 0.4], [[0, 1], [1, 0]], [(1, 1), (1, 1)])

    def test_row_sums(self):
        with pytest.raises(InvalidModelError):
            make_component([0.5, 0.5], [[0, 0.9], [1, 0]], [(1, 1), (1, 1)])

    def test_zero_diagonal(self):
        with pytest.raises(InvalidModelError):
            make_component([0.5, 0.5], [[0.5, 0.5], [1, 0]], [(1, 1), (1, 1)])

    def test_absorbing_conventions(self):
        comp = make_component(
            [0.5, 0.5, 0.0],
            [[0, 0.5, 0.5], [0.5, 0, 0.5], [0, 0, 0]],
            [(1, 1), (1, 1), None],
            absorbing=2,
        )
        assert comp.sojourn[2] is None
        # nonzero initial mass on the absorbing state is rejected
        with pytest.raises(InvalidModelError):
            make_component(
                [0.5, 0.4, 0.1],
                [[0, 0.5, 0.5], [0.5, 0, 0.5], [0, 0, 0]],
                [(1, 1), (1, 1), None],
                absorbing=2,
            )
        # absorbing row must stay zero
        with pytest.raises(InvalidModelError):
            make_component(
                [0.5, 0.5, 0.0],
                [[0, 0.5, 0.5], [0.5, 0, 0.5], [1, 0, 0]],
                [(1, 1), (1, 1), None],
                absorbing=2,
            )


class TestMixtureModel:
    def test_weights(self, two_state_space, simple_component):
        with pytest.raises(InvalidModelError):
            MixtureModel(
                space=two_state_space,
                weights=np.array([1.0, 0.0]),
                components=(simple_component, simple_component),
            )

    def test_space_agreement(self, simple_component):
        space3 = StateSpace(labels=("A", "B", "C"))
        with pytest.raises(InvalidModelError):
            MixtureModel(space=space3, weights=np.array([1.0]), components=(simple_component,))


class TestPosteriorMatrix:
    def test_rows_sum_to_one(self):
        with pytest.raises(InvalidModelError):
            PosteriorMatrix(z=np.array([[0.6, 0.3]]))

    def test_range(self):
        with pytest.raises(InvalidModelError):
            PosteriorMatrix(z=np.array([[1.2, -0.2]]))


class TestValidateH1H2:
    def test_identical_sojourns_one_h2_violation(self, two_state_space):
        comp = make_component([0.5, 0.5], [[0, 1], [1, 0]], [(2, 1), (2, 1)])
        model = MixtureModel(
            space=two_state_space, weights=np.array([0.5, 0.5]), components=(comp, comp)
        )
        violations = validate_h1_h2(model, strict_eps=1e-6)
        h2 = [v for v in violations if v.kind == "h2"]
        assert len(h2) == 1
        assert (h2[0].component, h2[0].other_component) == (0, 1)

    def test_single_component_all_positive_empty(self, two_state_space):
        comp = make_component([0.5, 0.5], [[0, 1], [1, 0]], [(2, 1), (2, 1)])
        model = MixtureModel(space=two_state_space, weights=np.array([1.0]), components=(comp,))
        assert validate_h1_h2(model, strict_eps=1e-6) == []

    def test_two_chocolate_model(self):
        model = fixtures.well_separated_model()
        violations = validate_h1_h2(model, strict_eps=1e-6)
        # Oracle: count the zero cells of the renormalized reference tables.
        expected = 0
        for comp in model.components:
            expected += int(np.sum(comp.alpha <= 1e-6))
            off_diag = comp.trans[~np.eye(10, dtype=bool)]
            expected += int(np.sum(off_diag <= 1e-6))
        h1 = [v for v in violations if v.kind.startswith("h1")]
        h2 = [v for v in violations if v.kind == "h2"]
        assert len(h1) == expected
        assert h2 == []
        # the tables do contain exact zeros, e.g. Astringent -> Cocoa
        i = fixtures.CHOCOLATE_LABELS.index("Astringent")
        j = fixtures.CHOCOLATE_LABELS.index("Cocoa")
        assert model.components[0].trans[i, j] == 0.0


class TestPoolMixture:
    def test_single_component_identity(self, two_state_space, simple_component):
        model = MixtureModel(
            space=two_state_space, weights=np.array([1.0]), components=(simple_component,)
        )
        pooled = pool_mixture(model)
        np.testing.assert_array_equal(pooled.alpha, simple_component.alpha)
        np.testing.assert_array_equal(pooled.trans, simple_component.trans)
        assert pooled.sojourn[0] == ((1.0, simple_component.sojourn[0]),)

    def test_alpha_linearity(self, two_state_space):
        c1 = make_component([1.0, 0.0], [[0, 1], [1, 0]], [(1, 1), (1, 1)])
        c2 = make_component([0.0, 1.0], [[0, 1], [1, 0]], [(2, 1), (2, 1)])
        model = MixtureModel(
            space=two_state_space, weights=np.array([0.5, 0.5]), components=(c1, c2)
        )
        np.testing.assert_allclose(pool_mixture(model).alpha, [0.5, 0.5], atol=1e-15)

    def test_pooled_rows_stochastic(self):
        model = fixtures.well_separated_model()
        pooled = pool_mixture(model)
        np.testing.assert_allclose(pooled.trans.sum(axis=1), np.ones(10), atol=1e-12)
        np.testing.assert_allclose(pooled.alpha.sum(), 1.0, atol=1e-12)


def _simulate_unlabeled_counts(model, n_traj, seed):
    rng = np.random.default_rng(seed)
    d = model.space.n_states
    first = np.zeros(d)
    counts = np.zeros((d, d))
    visits = np.zeros((model.n_components, d))
    labels = rng.choice(model.n_components, size=n_traj, p=model.weights)
    for g in labels:
        t = simulate_trajectory(model.components[int(g)], 4, rng)
        first[t.states[0]] += 1
        np.add.at(counts, (t.states[:-1], t.states[1:]), 1.0)
        np.add.at(visits[int(g)], t.states[:-1], 1.0)
    return first, counts, visits


class TestPoolingLawMonteCarlo:
    """Unlabeled simulation from the mixture versus the pooled parameters.

    The pooled initial probabilities are the exact marginal law of the
    first state, so the empirical frequencies must match them.  Pooled
    transitions are a different story: conditioning on the current state
    reweights the latent component, so unlabeled transition frequencies
    converge to a visit-weighted mixture of the component matrices (the
    faithful check against the pi-weighted average lives in the acceptance
    suite and is expected to fail; see the second test here for the
    characterization of the true limit).
    """

    N_TRAJ = 50_000
    SEED = 20240817

    def test_empirical_pooling_alpha(self):
        model = fixtures.well_separated_model()
        pooled = pool_mixture(model)
        first, _, _ = _simulate_unlabeled_counts(model, self.N_TRAJ, self.SEED)
        alpha_hat = first / self.N_TRAJ
        se = np.sqrt(np.maximum(pooled.alpha * (1 - pooled.alpha), 1e-30) / self.N_TRAJ)
        assert np.all(np.abs(alpha_hat - pooled.alpha) <= 3 * se + 1e-12)

    def test_transitions_follow_visit_weighted_mixture(self):
        model = fixtures.well_separated_model()
        _, counts, visits = _simulate_unlabeled_counts(model, self.N_TRAJ, self.SEED)
        weights = visits / visits.sum(axis=0, keepdims=True)
        predicted = np.zeros_like(counts)
        for g in range(model.n_components):
            predicted += weights[g][:, None] * model.components[g].trans
        row_totals = counts.sum(axis=1)
        p_hat = counts / row_totals[:, None]
        se = np.sqrt(np.maximum(predicted * (1 - predicted), 1e-30) / row_totals[:, None])
        assert np.all(np.abs(p_hat - predicted) <= 3 * se + 1e-12)
