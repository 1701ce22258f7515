import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from smcmix import (
    EmConfig,
    Panel,
    fit,
    fixtures,
    initial_model,
    initialization,
    kmeans,
    mixture_loglik,
    select_g,
    selection,
    sim,
)
from smcmix.initialization import _lloyd, _mean_sojourns, _seed_centers, _sum_slabs
from smcmix.likelihood import PanelStats
from smcmix.metrics import classification_rate
from smcmix.sim import Scenario, run_benchmark, simulate_panel

from conftest import traj


def reference_kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator):
    """One restart on its own: k-means++ seeding, then Lloyd's loop with
    the empty-cluster re-seed.  The reference the batched loop of
    :func:`smcmix.initialization.kmeans` must equal bit for bit."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[c] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[c]) ** 2, axis=1))

    labels = np.full(n, -1)
    for _ in range(300):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                shared = np.bincount(new_labels, minlength=k)[new_labels] > 1
                far = int(np.argmax(np.where(shared, d2[np.arange(n), new_labels], -1.0)))
                centers[c] = points[far]
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return labels, float(d2[np.arange(n), labels].sum())


def reference_kmeans(points, k: int, seed: int, restarts: int = 10) -> np.ndarray:
    """The restarts run one after another; lowest (SSE, restart index) wins."""
    points = np.asarray(points, dtype=np.float64)
    best = None
    for ss in np.random.SeedSequence(seed).spawn(restarts):
        labels, sse = reference_kmeans_once(points, k, np.random.Generator(np.random.PCG64(ss)))
        if best is None or sse < best[0]:
            best = (sse, labels)
    return best[1]


@st.composite
def kmeans_cases(draw):
    """(points, k, restarts, seed): float, small-integer (exact distance
    ties) and duplicate-heavy point sets (few distinct rows, so restarts
    must re-seed empty clusters), with one to four columns."""
    k = draw(st.integers(1, 6))
    n, d = draw(st.integers(k, 30)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["float", "integer", "duplicates"]))
    if kind == "float":
        elements = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
        points = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    elif kind == "integer":
        points = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(0, 3))).astype(np.float64)
    else:
        m = draw(st.integers(1, 3))
        distinct = draw(hnp.arrays(np.float64, (m, d), elements=st.floats(-10.0, 10.0)))
        points = distinct[draw(hnp.arrays(np.int64, n, elements=st.integers(0, m - 1)))]
    return points, k, draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1))


def mean_sojourns(panel: Panel) -> np.ndarray:
    """The mean sojourn profiles k-means clusters for ``panel``."""
    return _mean_sojourns(PanelStats.from_panel(panel))


class TestMeanSojournFeatures:
    def test_single_visited_state(self, absorbing_space):
        # one subject, two replications, only state B carries sojourns
        panel = Panel(
            space=absorbing_space,
            subjects=((traj([1, 2], [2.0, 1.0]), traj([1, 2], [4.0, 1.0])),),
        )
        feats = mean_sojourns(panel)
        np.testing.assert_array_equal(feats, [[0.0, 3.0, 0.0]])

    def test_replication_order_invariance(self, two_state_space):
        t1, t2 = traj([0, 1], [1.0, 5.0]), traj([1, 0], [2.0, 3.0])
        p1 = Panel(space=two_state_space, subjects=((t1, t2),))
        p2 = Panel(space=two_state_space, subjects=((t2, t1),))
        np.testing.assert_array_equal(mean_sojourns(p1), mean_sojourns(p2))

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
        np.testing.assert_allclose(mean_sojourns(panel), expected, rtol=1e-12)


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

    def test_labels_own_their_data(self):
        """The winning labels keep no other restart's labels alive."""
        labels = kmeans(np.random.default_rng(2).random((30, 2)), 3, seed=0, restarts=10)
        assert labels.base is None and labels.nbytes == 30 * labels.itemsize

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3, seed=0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(ValueError, match="^restarts must be at least 1$"):
            kmeans(np.zeros((4, 2)), 2, seed=0, restarts=restarts)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("restarts", [True, 2.5, 2.0, "3"])
    def test_restarts_must_be_an_integer(self, k, restarts):
        with pytest.raises(ValueError, match="^restarts must be an integer$"):
            kmeans(np.zeros((4, 2)), k, seed=0, restarts=restarts)

    @pytest.mark.parametrize("k", [True, 2.5, 2.0, "2"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="^k must be an integer$"):
            kmeans(np.zeros((4, 2)), k, seed=0)

    def test_numpy_integers_are_counts(self):
        points = np.random.default_rng(3).random((20, 2))
        assert np.array_equal(kmeans(points, np.int64(3), seed=0, restarts=np.int32(2)),
                              kmeans(points, 3, seed=0, restarts=2))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed, message", [
        (2.5, "seed must be an integer"),
        (True, "seed must be an integer"),
        ("1", "seed must be an integer"),
        (-1, "seed must be nonnegative"),
        (np.int64(-1), "seed must be nonnegative"),
    ])
    def test_seed_must_be_a_nonnegative_integer(self, k, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            kmeans(np.zeros((4, 2)), k, seed=seed)

    def test_one_component_init_checks_its_seed(self, tiny_panel):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            initial_model(tiny_panel, 1, seed=-1)

    def test_numpy_and_64_bit_seeds(self):
        """run_benchmark draws each replicate's init seed as a uint64."""
        points = np.random.default_rng(3).random((20, 2))
        seed = np.random.SeedSequence(7).generate_state(1, dtype=np.uint64)[0]
        assert np.array_equal(kmeans(points, 3, seed=seed), kmeans(points, 3, seed=int(seed)))
        assert np.array_equal(kmeans(points, 3, seed=np.uint64(2**64 - 1)),
                              kmeans(points, 3, seed=2**64 - 1))
        assert np.array_equal(kmeans(points, 3, seed=np.int32(5)), kmeans(points, 3, seed=5))

    def test_reseeding_keeps_every_cluster(self):
        # Three distinct points for five clusters: an empty cluster must not
        # be re-seeded with the lone member of another one.
        points = [[0.0]] * 10 + [[1.0]] * 10 + [[2.0]] * 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(5):
                labels = kmeans(points, 5, seed=seed)
                assert set(labels) == set(range(5))

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

    def test_sse_non_increasing_within_run(self, monkeypatch):
        # Capping the batched loop at t iterations gives each restart's
        # error after its t-th centre update; it never rises with t.
        rng = np.random.default_rng(14)
        points = rng.random((60, 3))
        centers = np.array([_seed_centers(points, 4, np.random.default_rng(r)) for r in range(5)])
        trace = []
        for cap in range(1, 40):
            monkeypatch.setattr(initialization, "_LLOYD_ITERATIONS", cap)
            trace.append(_lloyd(points, centers)[1])
        trace = np.array(trace)
        assert np.all(trace[1:] <= trace[:-1] + 1e-9)
        assert np.array_equal(trace[-1], trace[-2])  # every restart has converged

    @settings(max_examples=300, deadline=None)
    @given(kmeans_cases())
    @example((np.array([[0.0]] * 10 + [[1.0]] * 10 + [[2.0]] * 5), 5, 10, 3))
    def test_matches_one_restart_at_a_time(self, case):
        points, k, restarts, seed = case
        got = kmeans(points, k, seed, restarts)
        expected = reference_kmeans(points, k, seed, restarts)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        if k == 1:
            return
        # every restart's labels and error, not only the winner's
        seeds = np.random.SeedSequence(seed).spawn(restarts)
        rngs = [np.random.Generator(np.random.PCG64(ss)) for ss in seeds]
        labels, sse = _lloyd(points, np.array([_seed_centers(points, k, r) for r in rngs]))
        for i, ss in enumerate(seeds):
            ref_labels, ref_sse = reference_kmeans_once(
                points, k, np.random.Generator(np.random.PCG64(ss))
            )
            assert np.array_equal(labels[i], ref_labels)
            assert sse[i] == ref_sse

    def test_slab_sum_is_numpys_sum_over_a_short_axis(self):
        # D = 1..300 crosses the sequential sum below 8 terms, the blocks of
        # eight from 16 on, and the halving above 128 terms.
        rng = np.random.default_rng(8)
        for d in range(1, 301):
            x = 10.0 ** rng.uniform(-8.0, 8.0, size=(17, d))
            expected = np.square(x).sum(axis=-1)
            got = _sum_slabs(np.ascontiguousarray(np.square(x).T))
            assert got.tobytes() == expected.tobytes(), d

    def test_single_cluster_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(initialization, "_seed_centers", None)
        monkeypatch.setattr(initialization, "_lloyd", None)
        labels = kmeans(np.random.default_rng(3).random((7, 2)), 1, seed=0)
        assert labels.dtype == np.intp
        assert np.array_equal(labels, np.zeros(7, dtype=np.intp))

    @pytest.mark.parametrize("k", [1, 2])
    def test_rejects_nan_point(self, k):
        points = np.random.default_rng(4).random((6, 2))
        points[3, 1] = np.nan
        with pytest.raises(ValueError, match="^points must be finite$"):
            kmeans(points, k, seed=0)

    def test_rejects_infinite_point(self):
        points = np.random.default_rng(5).random((6, 2))
        points[0, 0] = np.inf
        with pytest.raises(ValueError, match="^points must be finite$"):
            kmeans(points, 2, seed=0)

    def test_rejects_points_whose_squared_distances_overflow(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^points spread too widely"):
                kmeans([[1e200, 0], [0, 0], [1, 1]], 2, 0)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_rejects_one_dimensional_points(self):
        with pytest.raises(ValueError, match="^points must be a 2-D array, got 1 dimension"):
            kmeans(np.arange(6.0), 2, seed=0)


def _count_calls(monkeypatch, modules, name) -> list:
    """Wrap the binding ``name`` of every module in ``modules`` in one
    wrapper that records each call's second argument, the count it asks
    for; returns the record."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


class TestTracedBindings:
    """perfbench counts k-means calls by wrapping the ``kmeans`` name bound
    in :mod:`smcmix.initialization`, and inits by wrapping the
    ``initial_model`` names bound in :mod:`smcmix.selection` and
    :mod:`smcmix.sim`; the entry points must go through them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return _count_calls(monkeypatch, [initialization], "kmeans")

    @pytest.fixture
    def init_calls(self, monkeypatch):
        return _count_calls(monkeypatch, [selection, sim], "initial_model")

    def test_select_g_once_per_component_count(self, calls):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=40, n_replications=3, stop_rule=6, seed=31,
        )
        select_g(simulate_panel(scenario)[0], [1, 2, 3], EmConfig(seed=1))
        assert calls == [1, 2, 3]

    def test_run_benchmark_once_per_replicate(self, calls):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=40, n_replications=3, stop_rule=6, seed=31, replicate_count=3,
        )
        run_benchmark(scenario, EmConfig())
        assert calls == [2, 2, 2]

    def test_select_g_inits_once_per_component_count(self, init_calls):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=40, n_replications=3, stop_rule=6, seed=31,
        )
        select_g(simulate_panel(scenario)[0], [1, 2, 3], EmConfig(seed=1))
        assert init_calls == [1, 2, 3]

    def test_run_benchmark_inits_once_per_replicate(self, init_calls):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=40, n_replications=3, stop_rule=6, seed=31, replicate_count=2,
        )
        run_benchmark(scenario, EmConfig())
        assert init_calls == [2, 2]


class TestInitialModel:
    def test_single_component_classical(self, tiny_panel):
        model, _ = initial_model(tiny_panel, 1, seed=0, min_obs_mass=2)
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
            model, _ = initial_model(panel, g, seed=5)
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
        labels = kmeans(mean_sojourns(panel), 2, seed=23)
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
        init, _ = initial_model(panel, 2, seed=31)
        report = fit(panel, init, EmConfig())
        assert report.objective_trace[-1] >= report.objective_trace[0] - 1e-7
