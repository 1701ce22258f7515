import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smcmix import (
    MixtureModel,
    StateSpace,
    fixtures,
    sim,
    simulate_panel,
    simulate_trajectory,
)
from smcmix.dataio import write_panel
from smcmix import em, selection
from smcmix.em import EmConfig
from smcmix.errors import EmptyComponent, NonConvergence, NumericalError
from smcmix.likelihood import PanelStats
from smcmix.sim import Scenario, run_benchmark

from conftest import make_component
from oracles import reference_panel


def absorbing_model():
    space = StateSpace(labels=("A", "B", "STOP"), absorbing=2)
    comp = make_component(
        alpha=[0.7, 0.3, 0.0],
        trans=[[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]],
        gammas=[(2.0, 1.0), (1.5, 0.7), None],
        absorbing=2,
    )
    return MixtureModel(space=space, weights=np.array([1.0]), components=(comp,))


class TestScenario:
    def test_validation(self):
        model = fixtures.one_component_model()
        with pytest.raises(ValueError):
            Scenario(model=model, n_subjects=0, n_replications=3, stop_rule=4, seed=1)
        with pytest.raises(ValueError):
            Scenario(model=model, n_subjects=5, n_replications=3, stop_rule=0, seed=1)
        with pytest.raises(ValueError):
            Scenario(model=model, n_subjects=5, n_replications=3, stop_rule="nope", seed=1)
        # absorbing rule requires an absorbing state
        with pytest.raises(ValueError):
            Scenario(model=model, n_subjects=5, n_replications=3, stop_rule="absorbing", seed=1)
        Scenario(model=absorbing_model(), n_subjects=5, n_replications=3,
                 stop_rule="absorbing", seed=1)

    @pytest.mark.parametrize("field,value,message", [
        ("stop_rule", 2.7, "stop rule must be a transition count or 'absorbing'"),
        ("stop_rule", True, "stop rule must be a transition count or 'absorbing'"),
        ("stop_rule", None, "stop rule must be a transition count or 'absorbing'"),
        ("replicate_count", 1.5, "replicate_count must be an integer"),
        ("replicate_count", False, "replicate_count must be an integer"),
        ("n_subjects", 2.5, "n_subjects must be an integer"),
        ("n_subjects", True, "n_subjects must be an integer"),
        ("n_replications", True, "n_replications must be an integer"),
        ("n_replications", "3", "n_replications must be an integer"),
        ("seed", 2.5, "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("seed", -1, "seed must be nonnegative"),
    ])
    def test_counts_must_be_integers(self, field, value, message):
        args = dict(model=fixtures.one_component_model(), n_subjects=5, n_replications=3,
                    stop_rule=4, seed=1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Scenario(**{**args, field: value})
        counts = Scenario(**{**args, field: np.int64(3)})  # numpy integers are counts
        assert getattr(counts, field) == 3


class _FixedStream:
    """Returns the given uniforms in turn, one per state drawn, whether
    asked for one or for an array of them; every gamma draw is 1.0 and
    every label 0."""

    def __init__(self, uniforms):
        self._next = iter(uniforms).__next__

    def random(self, size=None):
        return self._next() if size is None else np.array([self._next() for _ in range(size)])

    def gamma(self, shape, scale):
        return np.ones(np.shape(shape)) if np.ndim(shape) else 1.0

    def choice(self, n, size, p):
        return np.zeros(size, dtype=int)


class _CountingStream:
    """A Generator stand-in that delegates every call and counts the calls
    of ``random``; the call past ``limit`` fails the test."""

    def __init__(self, seed: int, limit: float = np.inf):
        self._rng = np.random.default_rng(seed)
        self.randoms, self._limit = 0, limit

    def random(self, size=None):
        self.randoms += 1
        assert self.randoms <= self._limit, "drew past the expected calls"
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _one_component(comp) -> MixtureModel:
    space = StateSpace(labels=tuple("ABCDEFGH"[: comp.n_states]), absorbing=comp.absorbing)
    return MixtureModel(space=space, weights=np.array([1.0]), components=(comp,))


class TestStateDraw:
    @pytest.mark.parametrize(
        "probs",
        [
            [0.0, 0.5, 0.5],
            [0.25, 0.0, 0.75, 0.0],
            [0.3, 0.7 - 4e-13, 0.0, 0.0],
            [0.1, 0.2, 0.3, 0.4],
        ],
    )
    def test_same_cell_as_searchsorted(self, probs):
        """First states drawn from uniforms on and between the cumulative
        sums, 0 and the top of [0, 1) land where
        ``np.searchsorted(side="right")`` puts them, clamped to the last cell
        and walked back past zero cells, one at a time in the per-draw
        sampler and all at once in the panel sampler."""
        d = len(probs)
        comp = make_component(
            alpha=probs,
            trans=(np.ones((d, d)) - np.eye(d)) / (d - 1),
            gammas=[(1.0, 1.0)] * d,
        )
        cum = np.cumsum(probs)
        us = np.concatenate([cum, (cum[:-1] + cum[1:]) / 2, [0.0, 1.0 - 2.0**-53]])
        us = us[us < 1.0].tolist()
        expected = []
        for u in us:
            k = min(int(np.searchsorted(cum, u, side="right")), d - 1)
            while probs[k] == 0.0:
                k -= 1
            expected.append(k)
            assert simulate_trajectory(comp, 1, _FixedStream([u, 0.0])).states[0] == k
        scenario = Scenario(model=_one_component(comp), n_subjects=len(us), n_replications=1,
                            stop_rule=1, seed=1)
        panel, _ = simulate_panel(scenario, _FixedStream(us + [0.0] * len(us)))
        assert panel.states[::2].tolist() == expected


class TestSimulateTrajectory:
    def test_deterministic_chain(self):
        comp = make_component(
            alpha=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], gammas=[(2, 1), (2, 1)]
        )
        rng = np.random.default_rng(0)
        t = simulate_trajectory(comp, 2, rng)
        np.testing.assert_array_equal(t.states, [0, 1, 0])
        assert len(t.sojourns) == 3
        assert np.all(t.sojourns > 0)

    def test_first_state_frequency(self):
        comp = fixtures.chocolate_70()
        crunchy = fixtures.CHOCOLATE_LABELS.index("Crunchy")
        rng = np.random.default_rng(123)
        hits = sum(simulate_trajectory(comp, 1, rng).states[0] == crunchy for _ in range(100_000))
        assert 0.80 <= hits / 100_000 <= 0.82

    def test_crunchy_mean_sojourn(self):
        comp = fixtures.chocolate_70()
        crunchy = fixtures.CHOCOLATE_LABELS.index("Crunchy")
        p = comp.sojourn[crunchy]
        rng = np.random.default_rng(77)
        trajs = [simulate_trajectory(comp, 1, rng) for _ in range(100_000)]
        states = np.concatenate([t.states for t in trajs])
        draws = np.concatenate([t.sojourns for t in trajs])[states == crunchy]
        assert np.mean(draws) == pytest.approx(p.mean, rel=0.02)
        assert p.mean == pytest.approx(6.9024, abs=1e-3)

    def test_absorbing_termination(self):
        model = absorbing_model()
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = simulate_trajectory(model.components[0], "absorbing", rng)
            assert t.states[-1] == 2
            assert 2 not in t.states[:-1]

    def test_transition_count_rule_with_absorbing(self):
        # the absorbing state may cut a fixed-length trajectory short
        model = absorbing_model()
        rng = np.random.default_rng(6)
        for _ in range(200):
            t = simulate_trajectory(model.components[0], 5, rng)
            assert t.n_transitions <= 5
            if t.n_transitions < 5:
                assert t.states[-1] == 2


class TestStateCap:
    """No trajectory passes ``_MAX_SIM_STATES`` states, in either sampler:
    a transition count that needs more raises once the cap is drawn, as
    does a trajectory that never reaches its absorbing state."""

    def _alternating(self):
        return make_component(
            alpha=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], gammas=[(2, 1), (2, 1)]
        )

    def _scenario(self, comp, stop_rule):
        return Scenario(model=_one_component(comp), n_subjects=2, n_replications=1,
                        stop_rule=stop_rule, seed=1)

    def test_count_within_the_cap_draws_every_state(self, monkeypatch):
        monkeypatch.setattr(sim, "_MAX_SIM_STATES", 5)
        t = simulate_trajectory(self._alternating(), 4, np.random.default_rng(1))
        assert t.states.tolist() == [0, 1, 0, 1, 0] and len(t.sojourns) == 5
        panel, _ = simulate_panel(self._scenario(self._alternating(), 4))
        assert panel.states.tolist() == [0, 1, 0, 1, 0] * 2

    @pytest.mark.parametrize("count", [5, 50])
    def test_count_above_the_cap_raises_after_the_capped_draws(self, monkeypatch, count):
        monkeypatch.setattr(sim, "_MAX_SIM_STATES", 5)
        rng = np.random.default_rng(1)
        with pytest.raises(NumericalError):
            simulate_trajectory(self._alternating(), count, rng)
        # the same draws as a trajectory of exactly the cap
        capped = np.random.default_rng(1)
        simulate_trajectory(self._alternating(), 4, capped)
        assert rng.random() == capped.random()
        # with no absorbing state every trajectory is certain to reach the
        # cap: the panel sampler raises after its first step
        stream = _CountingStream(1)
        with pytest.raises(NumericalError):
            simulate_panel(self._scenario(self._alternating(), count), stream)
        assert stream.randoms == 1

    def _never_absorbed(self):
        """A component whose states A and B alternate and never reach STOP."""
        comp = absorbing_model().components[0]
        never = comp.trans.copy()
        never[:2] = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        return make_component(alpha=comp.alpha, trans=never,
                              gammas=[(2.0, 1.0), (1.5, 0.7), None], absorbing=2)

    def test_absorbing_rule_raises_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(sim, "_MAX_SIM_STATES", 3)
        stream = _CountingStream(2)
        with pytest.raises(NumericalError, match="absorbing"):
            simulate_trajectory(self._never_absorbed(), "absorbing", stream)
        assert stream.randoms == 3  # one per state
        # the panel sampler raises on the first step that enters a state
        # with no path to STOP
        stream = _CountingStream(2)
        with pytest.raises(NumericalError, match="absorbing"):
            simulate_panel(self._scenario(self._never_absorbed(), "absorbing"), stream)
        assert stream.randoms == 1

    def test_a_panel_that_reaches_the_cap_raises_at_once(self):
        """At the real cap, 600 trajectories certain to reach it raise after
        one step, in little memory, where drawing on to the cap would hold
        16 bytes per visit (about 9.6 GB).  Absorbed and absorbable
        trajectories do not raise on their own."""
        one_way = make_component(  # from A, half go to STOP, half to B and C for good
            alpha=[1.0, 0.0, 0.0, 0.0],
            trans=[[0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 0.0]],
            gammas=[(2.0, 1.0), (1.5, 0.7), (3.0, 2.0), None], absorbing=3,
        )
        cases = [
            (self._never_absorbed(), "absorbing", 1),
            (self._alternating(), 2 * sim._MAX_SIM_STATES, 1),
            (one_way, "absorbing", 2),
            (one_way, 3 * sim._MAX_SIM_STATES, 2),
        ]
        for comp, rule, calls in cases:
            scenario = replace(self._scenario(comp, rule), n_subjects=200, n_replications=3)
            stream = _CountingStream(3, limit=calls)
            tracemalloc.start()
            try:
                with pytest.raises(NumericalError):
                    simulate_panel(scenario, stream)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert stream.randoms == calls
            assert peak < 2**20


class TestSimulatePanel:
    def test_single_component_labels(self):
        scenario = Scenario(
            model=fixtures.one_component_model(),
            n_subjects=7,
            n_replications=2,
            stop_rule=3,
            seed=2,
            replicate_count=1,
        )
        panel, labels = simulate_panel(scenario)
        np.testing.assert_array_equal(labels, np.zeros(7, dtype=int))
        assert panel.n_subjects == 7 and panel.n_replications == 2

    def test_binomial_split(self):
        model = fixtures.well_separated_model()
        for seed in (1, 2, 3, 4, 5):
            scenario = Scenario(
                model=model, n_subjects=600, n_replications=1, stop_rule=2,
                seed=seed, replicate_count=1,
            )
            _, labels = simulate_panel(scenario)
            count = int(np.sum(labels == 0))
            assert abs(count - 300) <= 3 * np.sqrt(600 * 0.25)

    def test_deterministic_bytes(self, tmp_path):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=20, n_replications=2, stop_rule=4, seed=99, replicate_count=1,
        )
        p1, l1 = simulate_panel(scenario)
        p2, l2 = simulate_panel(scenario)
        assert p1 == p2
        np.testing.assert_array_equal(l1, l2)
        write_panel(tmp_path / "a.csv", p1)
        write_panel(tmp_path / "b.csv", p2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_trajectory_invariants_hold(self):
        scenario = Scenario(
            model=absorbing_model(), n_subjects=50, n_replications=2,
            stop_rule="absorbing", seed=13, replicate_count=1,
        )
        panel, _ = simulate_panel(scenario)  # Panel construction validates
        for t in panel.trajectories():
            assert np.all(t.sojourns > 0)
            assert np.all(t.states[1:] != t.states[:-1])


def _law_cells(panel, d: int, max_length: int) -> np.ndarray:
    """One panel's first-state counts, transition counts, per-state sums
    and log-sums of the sojourns (the absorbing placeholder left out) and
    counts of the trajectory lengths 1 .. ``max_length`` (longer ones in
    the last cell), as one vector."""
    lengths = panel.lengths.ravel()
    starts = np.cumsum(lengths) - lengths
    states, sojourns = panel.states, panel.sojourns
    steps = np.ones(states.size, dtype=bool)
    steps[starts] = False
    moves = states[np.flatnonzero(steps) - 1] * d + states[steps]
    live = states != (-1 if panel.space.absorbing is None else panel.space.absorbing)
    return np.concatenate([
        np.bincount(states[starts], minlength=d),
        np.bincount(moves, minlength=d * d),
        np.bincount(states[live], weights=sojourns[live], minlength=d),
        np.bincount(states[live], weights=np.log(sojourns[live]), minlength=d),
        np.bincount(np.minimum(lengths, max_length) - 1, minlength=max_length),
    ])


class TestPanelLaw:
    """The panel sampler draws the law of the per-draw sampler: over 80
    panels from each (labels from ``rng.choice`` and one
    ``simulate_trajectory`` per trajectory on the per-draw side), every
    cell of :func:`_law_cells` agrees in mean within 4.5 standard errors
    of the difference, and the cells' z-scores average at most 1.6 in
    square (about 1 for equal laws).  Cells with no variance on either
    side must agree exactly."""

    PANELS = 80

    @pytest.mark.parametrize("model,stop_rule", [
        ("chocolate70", 6),
        ("well_separated", 4),
        ("absorbing", "absorbing"),
        ("absorbing", 3),
    ])
    def test_array_and_per_draw_samplers_agree(self, model, stop_rule):
        mixture = {"chocolate70": fixtures.one_component_model,
                   "well_separated": fixtures.well_separated_model,
                   "absorbing": absorbing_model}[model]()
        scenario = Scenario(model=mixture, n_subjects=20, n_replications=2,
                            stop_rule=stop_rule, seed=1)
        d = mixture.space.n_states
        sides = []
        for draw, seed in ((simulate_panel, 1000), (reference_panel, 2000)):
            sides.append(np.array([
                _law_cells(draw(scenario, np.random.default_rng(seed + i))[0], d, 12)
                for i in range(self.PANELS)
            ]))
        a, b = sides
        se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / self.PANELS)
        diff = a.mean(axis=0) - b.mean(axis=0)
        np.testing.assert_array_equal(diff[se == 0.0], 0.0)
        z = diff[se > 0.0] / se[se > 0.0]
        assert np.abs(z).max() <= 4.5
        assert np.mean(z**2) <= 1.6


class TestGammaSamplerMoments:
    def test_million_draw_moments(self):
        comp = fixtures.chocolate_70()
        crunchy = fixtures.CHOCOLATE_LABELS.index("Crunchy")
        p = comp.sojourn[crunchy]
        rng = np.random.default_rng(2718)
        draws = rng.gamma(p.shape, 1.0 / p.rate, size=1_000_000)
        assert float(draws.mean()) == pytest.approx(p.mean, rel=0.01)
        assert float(draws.var()) == pytest.approx(p.variance, rel=0.01)


class TestRunBenchmark:
    def test_single_replicate_zero_sd(self):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=40, n_replications=3, stop_rule=6, seed=55, replicate_count=1,
        )
        result = run_benchmark(scenario, EmConfig())
        table = result.table()
        for name, (mean, sd) in table.items():
            assert sd == 0.0
        assert table["class_rate"][0] >= 0.9

    def test_thread_parallelism_is_deterministic(self):
        """Each replicate runs on its own spawned stream: a rerun is
        bit-identical, and a shorter run repeats the first replicates of a
        longer one."""
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=30, n_replications=3, stop_rule=6, seed=56, replicate_count=4,
        )
        first = run_benchmark(scenario, EmConfig())
        again = run_benchmark(scenario, EmConfig())
        shorter = run_benchmark(replace(scenario, replicate_count=2), EmConfig())
        assert first.warnings == again.warnings
        assert list(first.values) == list(again.values) == list(shorter.values)
        for name in first.values:
            np.testing.assert_array_equal(first.values[name], again.values[name])
            np.testing.assert_array_equal(first.values[name][:2], shorter.values[name])

    @pytest.mark.parametrize("g_range", [None, [1, 2]])
    def test_each_replicate_starts_under_the_config_with_its_own_seed(self, monkeypatch,
                                                                       g_range):
        """Both branches start every fit from ``cfg`` with the seed drawn
        from the replicate's stream in place of ``cfg.seed``."""
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=20, n_replications=2, stop_rule=4, seed=57, replicate_count=2,
        )
        cfg = EmConfig(max_iter=5, seed=3, restarts=2)
        seen = []

        def recording(panel, n_components, cfg, stats=None):
            seen.append(cfg)
            return original(panel, n_components, cfg, stats)

        original = sim.initial_model
        monkeypatch.setattr(sim, "initial_model", recording)
        monkeypatch.setattr(selection, "initial_model", recording)
        run_benchmark(scenario, cfg, g_range=g_range)
        seeds = [int(child.spawn(2)[1].generate_state(1, dtype=np.uint64)[0])
                 for child in np.random.SeedSequence(57).spawn(2)]
        fits = 1 if g_range is None else len(g_range)
        assert seen == [replace(cfg, seed=s) for s in seeds for _ in range(fits)]

    @pytest.mark.parametrize("g_range", [None, [1, 2]])
    def test_a_failed_replicate_is_a_warning(self, monkeypatch, g_range):
        """A replicate whose fit or sweep raises a numerical error is
        scored as nothing; the others run on as they do alone."""
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=30, n_replications=3, stop_rule=6, seed=56, replicate_count=3,
        )
        clean = run_benchmark(scenario, EmConfig(), g_range=g_range)
        calls = []
        original = em.fit_stack

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise NonConvergence("injected")
            return original(*args)

        monkeypatch.setattr(em, "fit_stack", failing)
        monkeypatch.setattr(selection, "fit_stack", failing)
        result = run_benchmark(scenario, EmConfig(), g_range=g_range)
        assert len(calls) == 3
        assert [w for w in result.warnings if w.startswith("replicate 1:")] == [
            "replicate 1: replicate failed: injected"
        ]
        assert [w for w in result.warnings if not w.startswith("replicate 1:")] == [
            w for w in clean.warnings if not w.startswith("replicate 1:")
        ]
        assert list(result.values) == list(clean.values)
        for name, column in result.values.items():
            np.testing.assert_array_equal(column[[0, 2]], clean.values[name][[0, 2]])
            assert (column[1] == 1.0) if name == "aborted" else np.isnan(column[1])

    def test_an_aborted_fit_is_scored_from_its_partial_report(self, monkeypatch):
        """A replicate whose fit aborts on a starved component is scored
        from the report the abort carries, with ``aborted`` 1.0 and the
        abort as its warning; the others run on as they do alone."""
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=30, n_replications=3, stop_rule=6, seed=56, replicate_count=3,
        )
        clean = run_benchmark(scenario, EmConfig())
        calls = []
        original = sim.fit

        def aborting(*args, **kwargs):
            report = original(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:
                raise EmptyComponent(0, report=report)
            return report

        monkeypatch.setattr(sim, "fit", aborting)
        result = run_benchmark(scenario, EmConfig())
        assert len(calls) == 3
        assert [w for w in result.warnings if w.startswith("replicate 1:")] == [
            "replicate 1: mixture component 0 lost all its subjects"
        ]
        assert [w for w in result.warnings if not w.startswith("replicate 1:")] == list(
            clean.warnings
        )
        assert list(result.values) == list(clean.values)
        assert result.values["aborted"].tolist() == [0.0, 1.0, 0.0]
        for name, column in result.values.items():
            if name != "aborted":
                np.testing.assert_array_equal(column, clean.values[name])

    def test_small_sample_rate_error_bound(self):
        """Separated components, 60 subjects, short sequences: the mean
        relative error of the gamma rates stays moderate."""
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=60, n_replications=3, stop_rule=4, seed=404, replicate_count=50,
        )
        result = run_benchmark(scenario, EmConfig())
        assert result.table()["err_rate"][0] <= 0.45

    def test_each_replicate_is_drawn_once_before_its_fit(self, monkeypatch):
        """Replicate i's panel is drawn through the module's
        ``simulate_panel``, on replicate i's stream, after replicate i - 1
        is fit."""
        events = []
        fit, draw = sim.fit, sim.simulate_panel

        def logged_fit(*args, **kwargs):
            events.append("fit")
            return fit(*args, **kwargs)

        def logged_draw(scenario, rng):
            events.append(rng.bit_generator.seed_seq.spawn_key)
            return draw(scenario, rng)

        monkeypatch.setattr(sim, "fit", logged_fit)
        monkeypatch.setattr(sim, "simulate_panel", logged_draw)
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=30, n_replications=3, stop_rule=6, seed=56, replicate_count=3,
        )
        run_benchmark(scenario, EmConfig())
        assert events == [(0, 0), "fit", (1, 0), "fit", (2, 0), "fit"]

    def test_each_replicate_builds_its_statistics_once(self, monkeypatch):
        """At a fixed G the init and the fit share one statistics build,
        and the fit still goes through the module's ``fit``."""
        builds, fits = [], []
        build, fit = PanelStats.from_panel.__func__, sim.fit

        def counted_build(cls, panel):
            builds.append(panel)
            return build(cls, panel)

        def logged_fit(panel, *args, **kwargs):
            fits.append(panel)
            return fit(panel, *args, **kwargs)

        monkeypatch.setattr(PanelStats, "from_panel", classmethod(counted_build))
        monkeypatch.setattr(sim, "fit", logged_fit)
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=30, n_replications=3, stop_rule=6, seed=56, replicate_count=3,
        )
        run_benchmark(scenario, EmConfig())
        assert len(builds) == 3
        assert [id(p) for p in builds] == [id(p) for p in fits]

    def test_an_error_in_a_draw_is_raised_at_its_replicate(self, monkeypatch):
        """Under a cap of 4 states, replicate 2's panel is the first that
        passes it: its error is raised after replicates 0 and 1 are fit."""
        monkeypatch.setattr(sim, "_MAX_SIM_STATES", 4)
        fits = []
        fit = sim.fit
        monkeypatch.setattr(
            sim, "fit", lambda *args, **kwargs: fits.append(None) or fit(*args, **kwargs)
        )
        scenario = Scenario(model=absorbing_model(), n_subjects=3, n_replications=1,
                            stop_rule="absorbing", seed=1, replicate_count=4)
        with pytest.raises(NumericalError, match="^simulation did not reach the absorbing state$"):
            run_benchmark(scenario, EmConfig())
        assert len(fits) == 2

    @pytest.mark.parametrize("g_range,message", [
        (range(3, 2), "g_range must contain positive component counts"),
        ([1, 2.5], "g_range must contain integer component counts"),
        ([0, 2], "g_range must contain positive component counts"),
    ])
    def test_arguments_are_checked_before_any_draw(self, monkeypatch, g_range, message):
        """As ``smcmix bench --g-min 3 --g-max 1`` asks."""
        draws = []
        monkeypatch.setattr(sim, "simulate_panel", lambda *args: draws.append(None))
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=30, n_replications=3, stop_rule=6, seed=56, replicate_count=3,
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_benchmark(scenario, EmConfig(), g_range=g_range)
        assert draws == []

    def test_selection_histogram(self):
        scenario = Scenario(
            model=fixtures.one_component_model(),
            n_subjects=60, n_replications=3, stop_rule=6, seed=57, replicate_count=3,
        )
        result = run_benchmark(scenario, EmConfig(), g_range=[1, 2])
        assert sum(result.histograms["bic"].values()) == 3
        assert "bic_choice" in result.values


def test_import_loads_no_multiprocessing():
    """smcmix starts no process: importing it loads no multiprocessing, and
    it imports even where fcntl is blocked.  (scipy loads fcntl through
    subprocess where it can, so its presence in ``sys.modules`` says
    nothing.)"""
    src = str(Path(sim.__file__).parents[1])
    code = ("import sys; sys.modules['fcntl'] = None; import smcmix; "
            "sys.exit('multiprocessing' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert done.returncode == 0
