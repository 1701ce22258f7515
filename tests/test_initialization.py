from itertools import combinations

import numpy as np
import pytest

from smcmix import (
    EmConfig,
    Panel,
    fit,
    fixtures,
    initial_model,
    kmeans,
    mean_sojourn_features,
    mixture_loglik,
)
from smcmix.metrics import classification_rate
from smcmix.sim import Scenario, simulate_panel

from conftest import traj


class TestMeanSojournFeatures:
    def test_single_visited_state(self, absorbing_space):
        # one subject, two replications, only state B carries sojourns
        panel = Panel(
            space=absorbing_space,
            subjects=((traj([1, 2], [2.0, 1.0]), traj([1, 2], [4.0, 1.0])),),
        )
        feats = mean_sojourn_features(panel)
        np.testing.assert_array_equal(feats, [[0.0, 3.0, 0.0]])

    def test_replication_order_invariance(self, two_state_space):
        t1, t2 = traj([0, 1], [1.0, 5.0]), traj([1, 0], [2.0, 3.0])
        p1 = Panel(space=two_state_space, subjects=((t1, t2),))
        p2 = Panel(space=two_state_space, subjects=((t2, t1),))
        np.testing.assert_array_equal(mean_sojourn_features(p1), mean_sojourn_features(p2))

    def test_hand_computed_panel(self, two_state_space):
        subjects = (
            (traj([0, 1], [2.0, 4.0]), traj([0, 1], [4.0, 8.0])),
            (traj([1, 0], [1.0, 1.0]), traj([1, 0, 1], [3.0, 3.0, 5.0])),
            (traj([0, 1], [7.0, 1.0]), traj([0, 1], [9.0, 3.0])),
            (traj([1, 0], [2.0, 6.0]), traj([1, 0], [2.0, 2.0])),
            (traj([0, 1, 0], [1.0, 1.0, 1.0]), traj([0, 1], [1.0, 1.0])),
        )
        panel = Panel(space=two_state_space, subjects=subjects)
        expected = np.array(
            [
                [(2 + 4) / 2, (4 + 8) / 2],
                [(1 + 3) / 2, (1 + 3 + 5) / 3],
                [(7 + 9) / 2, (1 + 3) / 2],
                [(6 + 2) / 2, (2 + 2) / 2],
                [(1 + 1 + 1) / 3, (1 + 1) / 2],
            ]
        )
        np.testing.assert_allclose(mean_sojourn_features(panel), expected, rtol=1e-12)


class TestKmeans:
    def test_single_cluster(self):
        rng = np.random.default_rng(0)
        labels = kmeans(rng.random((9, 3)), 1, seed=0)
        assert set(labels) == {0}

    def test_separated_clouds(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 0.1, size=(15, 2))
        b = rng.normal(10.0, 0.1, size=(12, 2))
        labels = kmeans(np.vstack([a, b]), 2, seed=4)
        assert len(set(labels[:15])) == 1
        assert len(set(labels[15:])) == 1
        assert labels[0] != labels[-1]

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3, seed=0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(ValueError, match="^restarts must be at least 1$"):
            kmeans(np.zeros((4, 2)), 2, seed=0, restarts=restarts)

    def test_matches_exhaustive_partition_search(self):
        rng = np.random.default_rng(6)
        points = np.vstack(
            [rng.normal(0, 1.0, size=(6, 2)), rng.normal(4, 1.0, size=(6, 2))]
        )

        def sse_of(partition_mask):
            total = 0.0
            for side in (True, False):
                members = points[partition_mask == side]
                if members.size == 0:
                    return np.inf
                total += ((members - members.mean(axis=0)) ** 2).sum()
            return total

        best = np.inf
        for k in range(1, 12):
            for idx in combinations(range(12), k):
                mask = np.zeros(12, dtype=bool)
                mask[list(idx)] = True
                best = min(best, sse_of(mask))

        labels = kmeans(points, 2, seed=9, restarts=20)
        got = sse_of(labels == labels[0])
        assert got == pytest.approx(best, rel=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        points = rng.random((30, 4))
        a = kmeans(points, 3, seed=11)
        b = kmeans(points, 3, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_sse_non_increasing_within_run(self):
        from smcmix.initialization import _kmeans_once

        rng = np.random.default_rng(14)
        points = rng.random((60, 3))
        for restart in range(5):
            trace = []
            _kmeans_once(points, 4, np.random.default_rng(restart), sse_trace=trace)
            assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))


class TestInitialModel:
    def test_single_component_classical(self, tiny_panel):
        model = initial_model(tiny_panel, 1, seed=0, min_obs_mass=2)
        # alpha: empirical first-state frequencies (4/6, 2/6) with 1e-6
        # smoothing on both cells, renormalized
        raw = np.array([4.0 + 1e-6, 2.0 + 1e-6])
        np.testing.assert_allclose(model.weights, [1.0])
        np.testing.assert_allclose(model.components[0].alpha, raw / raw.sum(), rtol=1e-12)
        np.testing.assert_allclose(model.components[0].trans, [[0, 1], [1, 0]], rtol=1e-9)

    def test_initial_loglik_finite(self):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=80,
            n_replications=3,
            stop_rule=10,
            seed=3,
            replicate_count=1,
        )
        panel, _ = simulate_panel(scenario)
        for g in (1, 2, 3):
            model = initial_model(panel, g, seed=5)
            assert np.isfinite(mixture_loglik(panel, model))

    def test_kmeans_classification_quality(self):
        """Mean-sojourn k-means alone should classify most subjects of the
        clearly separated design correctly."""
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=200,
            n_replications=3,
            stop_rule=10,
            seed=17,
            replicate_count=1,
        )
        panel, truth = simulate_panel(scenario)
        labels = kmeans(mean_sojourn_features(panel), 2, seed=23)
        assert classification_rate(truth, labels) >= 0.80

    def test_fit_never_falls_below_init(self):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=100,
            n_replications=3,
            stop_rule=6,
            seed=29,
            replicate_count=1,
        )
        panel, _ = simulate_panel(scenario)
        init = initial_model(panel, 2, seed=31)
        report = fit(panel, 2, init, EmConfig())
        assert report.objective_trace[-1] >= report.objective_trace[0] - 1e-7
