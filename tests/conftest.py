import numpy as np
import pytest

from smcmix import (
    ComponentParams,
    GammaParams,
    MixtureModel,
    Panel,
    StateSpace,
    Trajectory,
)


@pytest.fixture
def two_state_space():
    return StateSpace(labels=("A", "B"))


@pytest.fixture
def absorbing_space():
    return StateSpace(labels=("A", "B", "STOP"), absorbing=2)


def make_component(alpha, trans, gammas, absorbing=None):
    sojourn = tuple(
        None if g is None else GammaParams(shape=g[0], rate=g[1]) for g in gammas
    )
    return ComponentParams(
        alpha=np.asarray(alpha, dtype=float),
        trans=np.asarray(trans, dtype=float),
        sojourn=sojourn,
        absorbing=absorbing,
    )


@pytest.fixture
def simple_component(two_state_space):
    return make_component(
        alpha=[0.6, 0.4],
        trans=[[0.0, 1.0], [1.0, 0.0]],
        gammas=[(2.0, 1.0), (1.5, 0.5)],
    )


@pytest.fixture
def simple_model(two_state_space, simple_component):
    other = make_component(
        alpha=[0.2, 0.8],
        trans=[[0.0, 1.0], [1.0, 0.0]],
        gammas=[(1.0, 0.25), (3.0, 2.0)],
    )
    return MixtureModel(
        space=two_state_space,
        weights=np.array([0.5, 0.5]),
        components=(simple_component, other),
    )


def traj(states, sojourns):
    return Trajectory(states=np.asarray(states), sojourns=np.asarray(sojourns, dtype=float))


@pytest.fixture
def tiny_panel(two_state_space):
    """Three subjects, two replications, two states; durations chosen dyadic."""
    subjects = (
        (traj([0, 1, 0], [1.0, 2.0, 0.5]), traj([1, 0], [1.5, 2.5])),
        (traj([0, 1], [3.0, 0.25]), traj([0, 1, 0], [2.0, 1.0, 1.0])),
        (traj([1, 0, 1], [0.5, 0.5, 4.0]), traj([0, 1], [1.25, 2.0])),
    )
    return Panel(space=two_state_space, subjects=subjects)


@pytest.fixture(scope="session")
def benchmark_fits():
    """(truth, fitted model) of every fit that small Monte-Carlo runs of a
    well separated design and of a design with an absorbing state return."""
    from smcmix import EmConfig, fixtures, sim
    from test_absorbing import two_group_model

    scenarios = [
        fixtures.benchmark_scenario("well_separated", n_subjects=60, seed=11, replicate_count=3),
        sim.Scenario(model=two_group_model(), n_subjects=60, n_replications=2,
                     stop_rule="absorbing", seed=12, replicate_count=3),
    ]
    fits = []
    with pytest.MonkeyPatch.context() as mp:
        def recording(*args, **kwargs):
            report = original(*args, **kwargs)
            fits.append((scenario.model, report.model))
            return report

        original = sim.fit
        mp.setattr(sim, "fit", recording)
        for scenario in scenarios:
            sim.run_benchmark(scenario, EmConfig(), restarts=3)
    assert len(fits) == 6
    return fits
