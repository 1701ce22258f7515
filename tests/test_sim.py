import errno
import multiprocessing
import os
import subprocess
import sys
import threading
import time
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
from smcmix.sim import Scenario, _ComponentSampler, run_benchmark

from conftest import make_component


def absorbing_model():
    space = StateSpace(labels=("A", "B", "STOP"), absorbing=2)
    comp = make_component(
        alpha=[0.7, 0.3, 0.0],
        trans=[[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]],
        gammas=[(2.0, 1.0), (1.5, 0.7), None],
        absorbing=2,
    )
    return MixtureModel(space=space, weights=np.array([1.0]), components=(comp,))


def _sampler(comp):
    return _ComponentSampler(comp.alpha, comp.trans, *comp.sojourn_arrays(), comp.absorbing)


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
    """Returns the given uniforms in turn, and 1.0 for every gamma draw."""

    def __init__(self, uniforms):
        self.random = iter(uniforms).__next__

    def gamma(self, shape, scale):
        return 1.0


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
        and walked back past zero cells."""
        d = len(probs)
        comp = make_component(
            alpha=probs,
            trans=(np.ones((d, d)) - np.eye(d)) / (d - 1),
            gammas=[(1.0, 1.0)] * d,
        )
        sampler = _sampler(comp)
        cum = np.cumsum(probs)
        us = np.concatenate([cum, (cum[:-1] + cum[1:]) / 2, [0.0, 1.0 - 2.0**-53]])
        for u in us[us < 1.0]:
            expected = min(int(np.searchsorted(cum, u, side="right")), d - 1)
            while probs[expected] == 0.0:
                expected -= 1
            states, sojourns = [], []
            sampler.draw_into(1, _FixedStream([float(u), 0.0]), states, sojourns)
            assert states[0] == expected


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
        sampler = _sampler(comp)
        hits = sum(sampler.draw(1, rng).states[0] == crunchy for _ in range(100_000))
        assert 0.80 <= hits / 100_000 <= 0.82

    def test_crunchy_mean_sojourn(self):
        comp = fixtures.chocolate_70()
        crunchy = fixtures.CHOCOLATE_LABELS.index("Crunchy")
        p = comp.sojourn[crunchy]
        rng = np.random.default_rng(77)
        sampler = _sampler(comp)
        states, sojourns = [], []
        for _ in range(100_000):
            sampler.draw_into(1, rng, states, sojourns)
        draws = np.array(sojourns)[np.array(states) == crunchy]
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
    """No trajectory passes ``_MAX_SIM_STATES`` states: a transition count
    that needs more raises once the cap is drawn, as does a trajectory
    that never reaches its absorbing state."""

    def _alternating(self):
        comp = make_component(
            alpha=[1.0, 0.0], trans=[[0.0, 1.0], [1.0, 0.0]], gammas=[(2, 1), (2, 1)]
        )
        return _sampler(comp)

    def test_count_within_the_cap_draws_every_state(self, monkeypatch):
        monkeypatch.setattr(sim, "_MAX_SIM_STATES", 5)
        states, sojourns = [], []
        self._alternating().draw_into(4, np.random.default_rng(1), states, sojourns)
        assert states == [0, 1, 0, 1, 0] and len(sojourns) == 5

    @pytest.mark.parametrize("count", [5, 50])
    def test_count_above_the_cap_raises_after_the_capped_draws(self, monkeypatch, count):
        monkeypatch.setattr(sim, "_MAX_SIM_STATES", 5)
        rng = np.random.default_rng(1)
        states, sojourns = [], []
        with pytest.raises(NumericalError):
            self._alternating().draw_into(count, rng, states, sojourns)
        assert states == [0, 1, 0, 1, 0] and len(sojourns) == 5
        # the same draws as a trajectory of exactly the cap
        capped = np.random.default_rng(1)
        self._alternating().draw_into(4, capped, [], [])
        assert rng.random() == capped.random()

    def test_absorbing_rule_raises_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(sim, "_MAX_SIM_STATES", 3)
        comp = absorbing_model().components[0]
        never = comp.trans.copy()
        never[:2] = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        sampler = _ComponentSampler(comp.alpha, never, *comp.sojourn_arrays(), comp.absorbing)
        states = []
        with pytest.raises(NumericalError, match="absorbing"):
            sampler.draw_into("absorbing", np.random.default_rng(2), states, [])
        assert len(states) == 3


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
    @pytest.mark.parametrize("restarts", [True, 2.5])
    def test_restarts_must_be_an_integer(self, g_range, restarts):
        scenario = Scenario(
            model=fixtures.well_separated_model(),
            n_subjects=20, n_replications=2, stop_rule=4, seed=57, replicate_count=1,
        )
        with pytest.raises(ValueError, match="^restarts must be an integer$"):
            run_benchmark(scenario, EmConfig(), g_range=g_range, restarts=restarts)

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

        def aborting(*args):
            report = original(*args)
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

    def test_selection_histogram(self):
        scenario = Scenario(
            model=fixtures.one_component_model(),
            n_subjects=60, n_replications=3, stop_rule=6, seed=57, replicate_count=3,
        )
        result = run_benchmark(scenario, EmConfig(), g_range=[1, 2])
        assert sum(result.histograms["bic"].values()) == 3
        assert "bic_choice" in result.values


def _probes(monkeypatch, cpus: int) -> None:
    """Make the benchmark see ``cpus`` usable CPUs and one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(threading, "active_count", lambda: 1)


def _draws_here(monkeypatch) -> list:
    """Count the ``simulate_panel`` calls made in this process; the calls
    a forked child makes are counted in the child's copy of the list."""
    calls = []
    original = sim.simulate_panel

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(sim, "simulate_panel", counting)
    return calls


def _wait_until(ready, timeout: float = 10.0) -> None:
    """Poll ``ready()`` until it is true or ``timeout`` seconds have passed."""
    deadline = time.monotonic() + timeout
    while not ready() and time.monotonic() < deadline:
        time.sleep(0.002)


class _DrawLog:
    """Log every ``simulate_panel`` call, in this process or a forked child,
    as a line ``pid replicate fits`` appended to ``path`` before the draw
    runs, so that the child's calls are seen too; ``fits`` is the number of
    ``sim.fit`` calls this process had made (-1 in the child).  With
    ``hold``, each of the child's draws first waits until ``hold(log)``."""

    def __init__(self, monkeypatch, path, hold=None):
        self.path, self.caller, self.fits = path, os.getpid(), []
        path.touch()
        fit, draw = sim.fit, sim.simulate_panel

        def counting_fit(*args):
            self.fits.append(None)
            return fit(*args)

        def logged_draw(scenario, rng):
            here = os.getpid() == self.caller
            if not here and hold is not None:
                _wait_until(lambda: hold(self))
            replicate = rng.bit_generator.seed_seq.spawn_key[0]
            with open(path, "a") as log:
                log.write(f"{os.getpid()} {replicate} {len(self.fits) if here else -1}\n")
            return draw(scenario, rng)

        monkeypatch.setattr(sim, "fit", counting_fit)
        monkeypatch.setattr(sim, "simulate_panel", logged_draw)

    def read(self) -> list[tuple[bool, int, int]]:
        """``(drawn here, replicate, fits made before)`` per draw, in order."""
        rows = (map(int, line.split()) for line in self.path.read_text().splitlines())
        return [(pid == self.caller, replicate, fits) for pid, replicate, fits in rows]

    def replicates(self, here=None) -> list[int]:
        """The replicates drawn, sorted; ``here`` picks one process."""
        return sorted(r for h, r, _ in self.read() if here is None or h == here)

    def held(self) -> list[int]:
        """After each draw made here, the panels this process held drawn
        ahead: those it drew for a replicate whose fit had not yet begun."""
        mine, out = [], []
        for here, replicate, fits in self.read():
            if here:
                mine.append(replicate)
                out.append(sum(r >= fits for r in mine))
        return out


def _child_claims_first(monkeypatch, marker) -> None:
    """Make this process's claims wait until the forked child has made its
    first one, so that the child takes replicate 0."""
    caller, claim = os.getpid(), sim._claim

    def ordered(*args):
        if os.getpid() == caller:
            _wait_until(marker.exists)
            return claim(*args)
        taken = claim(*args)
        marker.touch()
        return taken

    monkeypatch.setattr(sim, "_claim", ordered)


def _assert_same_results(a, b) -> None:
    assert list(a.values) == list(b.values)
    for name in a.values:
        assert a.values[name].tobytes() == b.values[name].tobytes(), name
    assert a.histograms == b.histograms
    assert a.warnings == b.warnings


class TestPanelsDrawnInAChild:
    """With 2 CPUs, no second thread and at least 2 replicates, a forked
    child draws the panels while the caller fits, and the caller draws the
    next untaken panel whenever it would wait: each panel is drawn once, by
    one process, every value, histogram and warning equals the inline
    path's bit for bit, an error in either process is raised as inline, and
    no process outlives the call."""

    SCENARIO = Scenario(
        model=fixtures.well_separated_model(),
        n_subjects=30, n_replications=3, stop_rule=6, seed=56, replicate_count=3,
    )

    def _both_paths(self, monkeypatch, tmp_path, run):
        """``run()`` inline and with the child; each draws every replicate's
        panel exactly once, the inline path all of them here."""
        log = _DrawLog(monkeypatch, tmp_path / "draws.log")
        n = self.SCENARIO.replicate_count
        _probes(monkeypatch, cpus=1)
        inline = run()
        assert [(here, r) for here, r, _ in log.read()] == [(True, r) for r in range(n)]
        _probes(monkeypatch, cpus=2)
        in_child = run()
        assert sorted(r for _, r, _ in log.read()[n:]) == list(range(n))
        assert multiprocessing.active_children() == []
        return inline, in_child

    @pytest.mark.parametrize("g_range", [None, [1, 2, 3]])
    def test_same_bits_as_inline(self, monkeypatch, tmp_path, g_range):
        inline, in_child = self._both_paths(
            monkeypatch, tmp_path,
            lambda: run_benchmark(self.SCENARIO, EmConfig(), g_range=g_range),
        )
        _assert_same_results(inline, in_child)

    def test_same_bits_as_inline_with_an_aborted_fit(self, monkeypatch, tmp_path):
        original = sim.fit
        calls = []

        def aborting(*args):
            report = original(*args)
            calls.append(None)
            if len(calls) % 3 == 2:  # replicate 1 of each run
                raise EmptyComponent(0, report=report)
            return report

        monkeypatch.setattr(sim, "fit", aborting)
        inline, in_child = self._both_paths(
            monkeypatch, tmp_path, lambda: run_benchmark(self.SCENARIO, EmConfig())
        )
        assert inline.values["aborted"].tolist() == [0.0, 1.0, 0.0]
        _assert_same_results(inline, in_child)

    def test_both_processes_draw_and_each_panel_once(self, monkeypatch, tmp_path):
        """The child takes replicate 0 and waits until the caller has drawn a
        panel, so both processes draw; no panel is drawn twice or lost."""
        scenario = replace(self.SCENARIO, replicate_count=8)
        inline = run_benchmark(scenario, EmConfig())
        _child_claims_first(monkeypatch, tmp_path / "claimed")
        log = _DrawLog(monkeypatch, tmp_path / "draws.log",
                       hold=lambda log: log.replicates(here=True) != [])
        _probes(monkeypatch, cpus=2)
        _assert_same_results(inline, run_benchmark(scenario, EmConfig()))
        assert multiprocessing.active_children() == []
        assert log.replicates() == list(range(8))
        assert 0 in log.replicates(here=False) and 1 in log.replicates(here=True)

    def test_the_caller_holds_at_most_the_cap(self, monkeypatch, tmp_path):
        """The child draws nothing until the caller holds ``_HELD_CAP`` panels
        drawn ahead: the caller stops there and waits for the pipe."""
        scenario = replace(self.SCENARIO, replicate_count=sim._HELD_CAP + 4)
        inline = run_benchmark(scenario, EmConfig())
        _child_claims_first(monkeypatch, tmp_path / "claimed")
        log = _DrawLog(monkeypatch, tmp_path / "draws.log",
                       hold=lambda log: max(log.held(), default=0) >= sim._HELD_CAP)
        _probes(monkeypatch, cpus=2)
        _assert_same_results(inline, run_benchmark(scenario, EmConfig()))
        assert multiprocessing.active_children() == []
        assert max(log.held()) == sim._HELD_CAP
        assert log.replicates() == list(range(scenario.replicate_count))

    @pytest.mark.parametrize("failure", [None, "OSError", "no F_SETPIPE_SZ"])
    def test_the_pipe_buffer_and_its_fallback(self, monkeypatch, failure):
        """The pipe is asked for ``_PIPE_BYTES`` once; where the request fails
        or the platform lacks it, the default buffer gives the same bits."""
        fcntl = pytest.importorskip("fcntl")
        setpipe_sz = getattr(fcntl, "F_SETPIPE_SZ", None)
        if setpipe_sz is None:
            pytest.skip("no F_SETPIPE_SZ on this platform")
        calls = []
        original = fcntl.fcntl

        def recording(fd, cmd, arg=0):
            calls.append((cmd, arg))
            if failure == "OSError":
                raise OSError(errno.EPERM, os.strerror(errno.EPERM))
            return original(fd, cmd, arg)

        monkeypatch.setattr(fcntl, "fcntl", recording)
        if failure == "no F_SETPIPE_SZ":
            monkeypatch.delattr(fcntl, "F_SETPIPE_SZ")
        _probes(monkeypatch, cpus=1)
        inline = run_benchmark(self.SCENARIO, EmConfig())
        _probes(monkeypatch, cpus=2)
        _assert_same_results(inline, run_benchmark(self.SCENARIO, EmConfig()))
        assert multiprocessing.active_children() == []
        assert calls == ([] if failure == "no F_SETPIPE_SZ" else [(setpipe_sz, sim._PIPE_BYTES)])

    def _absorbing(self):
        """Under a cap of 4 states, replicate 1's panel is the only one that
        passes it."""
        return Scenario(model=absorbing_model(), n_subjects=3, n_replications=1,
                        stop_rule="absorbing", seed=5, replicate_count=4)

    def test_an_error_in_the_child_is_raised_at_its_replicate(self, monkeypatch, tmp_path):
        """With no panel to be held ahead, the child draws every panel: it
        sends replicate 1's error back and stops."""
        monkeypatch.setattr(sim, "_MAX_SIM_STATES", 4)
        monkeypatch.setattr(sim, "_HELD_CAP", 0)
        log = _DrawLog(monkeypatch, tmp_path / "draws.log")
        raised = []
        for cpus in (1, 2):
            _probes(monkeypatch, cpus)
            with pytest.raises(NumericalError) as info:
                run_benchmark(self._absorbing(), EmConfig())
            raised.append((type(info.value), str(info.value), len(log.fits)))
            assert multiprocessing.active_children() == []
        assert raised == [
            (NumericalError, "simulation did not reach the absorbing state", 1),
            (NumericalError, "simulation did not reach the absorbing state", 2),
        ]
        assert [(here, r) for here, r, _ in log.read()] == [
            (True, 0), (True, 1), (False, 0), (False, 1)
        ]

    def test_an_error_in_a_panel_drawn_here_is_raised_at_its_replicate(
        self, monkeypatch, tmp_path
    ):
        """The child takes replicate 0 and waits until the caller has drawn
        replicate 1, whose error the caller keeps until replicate 0 is fit."""
        monkeypatch.setattr(sim, "_MAX_SIM_STATES", 4)
        _child_claims_first(monkeypatch, tmp_path / "claimed")
        log = _DrawLog(monkeypatch, tmp_path / "draws.log",
                       hold=lambda log: 1 in log.replicates(here=True))
        _probes(monkeypatch, cpus=2)
        with pytest.raises(NumericalError, match="^simulation did not reach the absorbing state$"):
            run_benchmark(self._absorbing(), EmConfig())
        assert multiprocessing.active_children() == []
        assert len(log.fits) == 1
        draws = log.read()
        assert (True, 1, 0) in draws and (False, 0, -1) in draws
        assert len(draws) == len(set(r for _, r, _ in draws))

    def test_a_child_that_dies_leaves_the_draws_to_the_caller(self, monkeypatch):
        inline = run_benchmark(self.SCENARIO, EmConfig())
        caller = os.getpid()
        original = sim.simulate_panel

        def dying(*args):
            if os.getpid() != caller:
                os._exit(1)
            return original(*args)

        monkeypatch.setattr(sim, "simulate_panel", dying)
        _probes(monkeypatch, cpus=2)
        _assert_same_results(inline, run_benchmark(self.SCENARIO, EmConfig()))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_no_child_outlives_an_error_in_the_caller(self, monkeypatch, tmp_path, error):
        """The child is mid-draw when the caller fails, and is still ended."""
        _probes(monkeypatch, cpus=2)
        caller = os.getpid()
        draw = sim.simulate_panel

        def slow_in_child(*args):
            if os.getpid() != caller:
                time.sleep(0.2)
            return draw(*args)

        monkeypatch.setattr(sim, "simulate_panel", slow_in_child)
        calls = []
        original = sim.fit

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise error("injected")
            return original(*args)

        monkeypatch.setattr(sim, "fit", failing)
        log = _DrawLog(monkeypatch, tmp_path / "draws.log")
        with pytest.raises(error, match="^injected$"):
            run_benchmark(replace(self.SCENARIO, replicate_count=6), EmConfig())
        assert len(calls) == 2
        drawn = [r for _, r, _ in log.read()]
        assert {0, 1} <= set(drawn) and len(drawn) == len(set(drawn))
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_a_return(self, monkeypatch, tmp_path):
        _probes(monkeypatch, cpus=2)
        log = _DrawLog(monkeypatch, tmp_path / "draws.log")
        run_benchmark(self.SCENARIO, EmConfig())
        assert log.replicates() == list(range(self.SCENARIO.replicate_count))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("replicates,cpus", [(1, 2), (3, 1)])
    def test_one_replicate_or_one_cpu_draws_inline(self, monkeypatch, replicates, cpus):
        _probes(monkeypatch, cpus)
        draws = _draws_here(monkeypatch)
        run_benchmark(replace(self.SCENARIO, replicate_count=replicates), EmConfig())
        assert len(draws) == replicates

    def test_a_second_thread_draws_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        draws = _draws_here(monkeypatch)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            run_benchmark(self.SCENARIO, EmConfig())
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(draws) == self.SCENARIO.replicate_count

    @pytest.mark.parametrize("g_range,restarts,message", [
        (range(3, 2), 5, "g_range must contain positive component counts"),
        ([1, 2.5], 5, "g_range must contain integer component counts"),
        (None, 0, "restarts must be at least 1"),
        ([1, 2], 0, "restarts must be at least 1"),
        ([0, 2], 0, "g_range must contain positive component counts"),
    ])
    def test_arguments_are_checked_before_any_draw(self, monkeypatch, g_range, restarts, message):
        """As ``smcmix bench --g-min 3 --g-max 1`` or ``--restarts 0`` ask."""
        _probes(monkeypatch, cpus=2)
        draws = _draws_here(monkeypatch)

        def no_process(method):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_process)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_benchmark(self.SCENARIO, EmConfig(), g_range=g_range, restarts=restarts)
        assert draws == []


def test_import_loads_no_multiprocessing():
    """The child process and its pipe are the benchmark's alone: importing
    smcmix loads no multiprocessing, and it imports even where fcntl is
    blocked.  (scipy loads fcntl through subprocess where it can, so its
    presence in ``sys.modules`` says nothing.)"""
    src = str(Path(sim.__file__).parents[1])
    code = ("import sys; sys.modules['fcntl'] = None; import smcmix; "
            "sys.exit('multiprocessing' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert done.returncode == 0
