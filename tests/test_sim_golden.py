"""Bit-for-bit pins of the simulator's output.

``golden/sim_panels.json`` holds the true labels, states and the
``float.hex`` of the sojourns of small panels that cover the sampler's
edge cases, which the EM fingerprint and the CLI goldens do not reach:

* the absorbing model of ``test_sim.py`` under the ``"absorbing"`` rule
  and under a transition count of 5, as panels, and as single
  trajectories of the per-draw sampler;
* a component with a gamma shape of 1e-3, whose draws underflow to 0.0
  and are drawn again;
* initial and transition rows whose cumulative sums end just below 1 and
  are followed by zero cells, driven by a stream that returns uniforms
  above that end, so the draw is clamped to the last cell and walked
  back past the zero cells;
* a ``not_well_separated`` panel.

It also holds every value of a 3-replicate ``run_benchmark`` G = 1..3
sweep.  The sequence of draws is part of the simulator's contract: for a
panel, one ``rng.choice`` of the labels, one ``rng.random(m)`` per step
over the m trajectories still running, then one ``rng.gamma`` over every
sojourn and one over each round of redraws; for a single trajectory, one
``random()`` per state and one ``gamma()`` per sojourn.  A change to
``smcmix.sim`` that claims to keep the random streams must reproduce the
file exactly.  Regenerate it with ``python tests/test_sim_golden.py
--write`` only for a change meant to alter simulated data, or after a
library upgrade, and say so in CHANGES.md.  The file records the numpy
and OpenBLAS builds it was generated with: numpy may change a stream
between releases, and the sweep's fitted values rest on BLAS.
"""

import json
import sys
from pathlib import Path

import numpy as np

from smcmix import EmConfig, MixtureModel, StateSpace, fixtures
from smcmix.sim import Scenario, run_benchmark, simulate_panel, simulate_trajectory

from conftest import make_component
from test_em_fingerprint import _generated_with
from test_sim import absorbing_model

GOLDEN = Path(__file__).parent / "golden" / "sim_panels.json"

# Just below 1 and above every cumulative sum of ``_clamp_model``.
_TOP = 1.0 - 2.0**-53


class _Stream:
    """A Generator stand-in that delegates every call, counts the gamma
    draws that come back as 0.0, and, when ``clamp`` is set, replaces
    uniforms above 0.8 by ``_TOP`` and counts them."""

    def __init__(self, seed: int, clamp: bool = False):
        self._rng = np.random.default_rng(seed)
        self._clamp = clamp
        self.zero_gammas = self.clamped = 0

    def random(self, size):
        u = self._rng.random(size)
        if self._clamp:
            high = u > 0.8
            self.clamped += int(high.sum())
            u[high] = _TOP
        return u

    def gamma(self, shape, scale):
        x = self._rng.gamma(shape, scale)
        self.zero_gammas += int((x == 0.0).sum())
        return x

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _tiny_shape_model() -> MixtureModel:
    space = StateSpace(labels=("A", "B", "C"))
    tiny = make_component(
        alpha=[0.5, 0.3, 0.2],
        trans=[[0.0, 0.5, 0.5], [0.7, 0.0, 0.3], [0.4, 0.6, 0.0]],
        gammas=[(1e-3, 1.0), (2.0, 0.5), (1e-3, 3.0)],
    )
    plain = make_component(
        alpha=[0.2, 0.3, 0.5],
        trans=[[0.0, 0.2, 0.8], [0.5, 0.0, 0.5], [0.9, 0.1, 0.0]],
        gammas=[(1.5, 1.0), (0.8, 0.3), (4.0, 2.0)],
    )
    return MixtureModel(space=space, weights=np.array([0.6, 0.4]), components=(tiny, plain))


def _clamp_model() -> MixtureModel:
    """Rows sum to 1 within the model tolerance, but their cumulative sums
    end 4e-13 below it, ahead of trailing zero cells."""
    space = StateSpace(labels=("A", "B", "C", "D"))
    short = 1.0 - 4e-13
    comp = make_component(
        alpha=[0.5, short - 0.5, 0.0, 0.0],
        trans=[
            [0.0, 0.3, short - 0.3, 0.0],
            [0.5, 0.0, short - 0.5, 0.0],
            [0.2, short - 0.2, 0.0, 0.0],
            [0.5, short - 0.5, 0.0, 0.0],
        ],
        gammas=[(2.0, 1.0), (1.5, 0.5), (3.0, 2.0), (1.0, 1.0)],
    )
    return MixtureModel(space=space, weights=np.array([1.0]), components=(comp,))


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _trajectories(trajs) -> dict:
    trajs = list(trajs)
    return {
        "states": [[int(s) for s in t.states] for t in trajs],
        "sojourns": [_hex(t.sojourns) for t in trajs],
    }


def _panel_case(scenario, rng=None) -> dict:
    panel, labels = simulate_panel(scenario, rng)
    return {"labels": [int(g) for g in labels], **_trajectories(panel.trajectories())}


def _scenario(model, stop_rule, seed, n_subjects=8) -> Scenario:
    return Scenario(model=model, n_subjects=n_subjects, n_replications=2,
                    stop_rule=stop_rule, seed=seed, replicate_count=1)


def fingerprint() -> dict:
    out = {}
    absorbing = absorbing_model()
    out["absorbing/absorbing"] = _panel_case(_scenario(absorbing, "absorbing", 31))
    out["absorbing/count5"] = _panel_case(_scenario(absorbing, 5, 32))
    rng = np.random.default_rng(33)
    out["absorbing/trajectories"] = _trajectories(
        [simulate_trajectory(absorbing.components[0], rule, rng) for rule in ("absorbing", 5) * 3]
    )

    stream = _Stream(34)
    out["tiny_shape"] = _panel_case(_scenario(_tiny_shape_model(), 4, 34), stream)
    assert stream.zero_gammas > 0, "the tiny-shape case no longer draws a zero"

    stream = _Stream(35, clamp=True)
    out["clamp"] = _panel_case(_scenario(_clamp_model(), 6, 35), stream)
    assert stream.clamped > 0, "the clamp case no longer draws past the sums"

    out["not_well_separated"] = _panel_case(
        fixtures.benchmark_scenario("not_well_separated", n_subjects=6, n_replications=2,
                                    transitions=4, seed=36)
    )

    scenario = fixtures.benchmark_scenario(
        "well_separated", n_subjects=60, seed=37, replicate_count=3
    )
    result = run_benchmark(scenario, EmConfig(), g_range=range(1, 4))
    out["run_benchmark_g_sweep"] = {name: _hex(v) for name, v in result.values.items()}
    return out


def test_clamp_case_reaches_past_the_cumulative_sums():
    comp = _clamp_model().components[0]
    assert np.cumsum(comp.alpha)[-1] < _TOP
    assert (np.cumsum(comp.trans, axis=1)[:, -1] < _TOP).all()


def test_simulated_panels_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = golden["values"]
    actual = fingerprint()
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], (
            f"{key} differs from the file generated with "
            f"{golden['generated_with']} (running {_generated_with()})"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_sim_golden.py --write")
    payload = {"generated_with": _generated_with(), "values": fingerprint()}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
