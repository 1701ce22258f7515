"""One integer rule for every count, seed and index.

A count or a seed goes through :func:`smcmix.core.check_count`: an integer
(numpy's too), not a bool, at least the entry's minimum.  An index array
goes through :func:`smcmix.core.index_array`: numpy must read it with an
integer dtype.  Each entry point below refuses a bool, a float and a value
below its minimum with a typed error: domain types raise
:class:`InvalidModelError`, functions :class:`ValueError`.
"""

import numpy as np
import pytest

from smcmix import (
    EmConfig,
    Panel,
    StateSpace,
    Trajectory,
    classification_rate,
    fixtures,
    param_count,
    select_g,
)
from smcmix.dataio import export_tds_graph, model_from_dict, model_to_dict, write_labels
from smcmix.errors import DataError, InvalidModelError
from smcmix.initialization import initial_model, kmeans
from smcmix.sim import Scenario, run_benchmark, simulate_trajectory

from conftest import make_component

SPACE = StateSpace(labels=("A", "B"))
PANEL = Panel.from_arrays(SPACE, [0, 1] * 4, [1.0] * 8, [[2]] * 4)
POINTS = [[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0]]


def _scenario(**fields):
    design = dict(model=fixtures.one_component_model(), n_subjects=5, n_replications=3,
                  stop_rule=4, seed=1, replicate_count=1)
    return Scenario(**{**design, **fields})


def _absorbing_component(absorbing):
    return make_component([0.5, 0.5, 0.0], [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]],
                          [(2.0, 1.0), (2.0, 1.0), None], absorbing=absorbing)


# entry point, call with the value under test, name in the message, minimum
COUNTS = [
    ("EmConfig.max_iter", lambda v: EmConfig(max_iter=v), "max_iter", 1),
    ("EmConfig.min_obs_mass", lambda v: EmConfig(min_obs_mass=v), "min_obs_mass", 0),
    ("EmConfig.seed", lambda v: EmConfig(seed=v), "seed", 0),
    ("Scenario.n_subjects", lambda v: _scenario(n_subjects=v), "n_subjects", 1),
    ("Scenario.n_replications", lambda v: _scenario(n_replications=v), "n_replications", 1),
    ("Scenario.replicate_count", lambda v: _scenario(replicate_count=v), "replicate_count", 1),
    ("Scenario.seed", lambda v: _scenario(seed=v), "seed", 0),
    ("kmeans.k", lambda v: kmeans(POINTS, v, 0), "k", 1),
    ("kmeans.restarts", lambda v: kmeans(POINTS, 2, 0, v), "restarts", 1),
    ("kmeans.seed", lambda v: kmeans(POINTS, 2, v), "seed", 0),
    ("select_g.sample_size", lambda v: select_g(PANEL, [1], EmConfig(), sample_size=v),
     "sample_size", 1),
    ("select_g.restarts", lambda v: select_g(PANEL, [1], EmConfig(), restarts=v), "restarts", 1),
    ("initial_model.n_components", lambda v: initial_model(PANEL, v, 0), "n_components", 1),
    ("run_benchmark.restarts", lambda v: run_benchmark(_scenario(), EmConfig(), restarts=v),
     "restarts", 1),
    ("param_count.n_components", lambda v: param_count(v, 3), "n_components", 1),
    ("param_count.n_states", lambda v: param_count(2, v), "n_states", 2),
]


def _count_cases():
    for entry, call, name, least in COUNTS:
        below = f"{name} must be " + ("nonnegative" if least == 0 else f"at least {least}")
        yield pytest.param(call, True, f"{name} must be an integer", id=f"{entry}-bool")
        yield pytest.param(call, 2.0, f"{name} must be an integer", id=f"{entry}-float")
        yield pytest.param(call, least - 1, below, id=f"{entry}-below")


@pytest.mark.parametrize("call, value, message", _count_cases())
def test_counts_and_seeds(call, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)


# entry point, call with the value under test, error, (value, message) for
# a bool, a float and a value below the minimum
INDICES = [
    ("StateSpace.absorbing", lambda v: StateSpace(("A", "B", "STOP"), absorbing=v),
     InvalidModelError, [(True, "absorbing index must be an integer"),
                         (1.0, "absorbing index must be an integer"),
                         (-1, "absorbing index -1 out of range")]),
    ("ComponentParams.absorbing", _absorbing_component,
     InvalidModelError, [(True, "absorbing index must be an integer"),
                         (2.0, "absorbing index must be an integer"),
                         (-1, "absorbing index out of range")]),
    ("Trajectory.states", lambda v: Trajectory(v, [1.0, 1.0]),
     InvalidModelError, [([True, False], "state indices must be integers"),
                         ([0.7, 1.2], "state indices must be integers"),
                         ([0, -1], "state indices must be nonnegative")]),
    ("Panel.from_arrays.states", lambda v: Panel.from_arrays(SPACE, v, [1.0, 1.0], [[2]]),
     InvalidModelError, [([True, False], "state indices must be integers"),
                         ([0.7, 1.2], "state indices must be integers"),
                         ([0, -1], "state indices must be nonnegative")]),
    ("Panel.from_arrays.lengths", lambda v: Panel.from_arrays(SPACE, [0, 1, 0, 1], [1.0] * 4, v),
     InvalidModelError, [([[True, True]], "trajectory lengths must be integers"),
                         ([[2.9]], "trajectory lengths must be integers"),
                         ([[3, 1]], "a trajectory must visit at least two states")]),
    ("export_tds_graph.subjects", lambda v: export_tds_graph(PANEL, subjects=v),
     ValueError, [([True], "subject indices must be integers"),
                  ([0.9, 1.2], "subject indices must be integers"),
                  ([-1], r"subject index -1 outside \[0, 4\)")]),
    ("classification_rate.est_labels", lambda v: classification_rate([0, 1, 1], v),
     ValueError, [([False, True, True], "estimated labels must be integers"),
                  ([0.2, 1.7, 1.1], "estimated labels must be integers"),
                  ([0, -1, 1], "labels must be nonnegative")]),
    ("classification_rate.true_labels", lambda v: classification_rate(v, [0, 1, 1]),
     ValueError, [([False, True, True], "true labels must be integers"),
                  ([0.2, 1.7, 1.1], "true labels must be integers"),
                  ([0, -1, 1], "labels must be nonnegative")]),
    ("write_labels.labels", lambda v: write_labels("labels.csv", ["a", "b"], v),
     ValueError, [([False, True], "labels must be integers"),
                  ([0.7, 1.9], "labels must be integers"),
                  ([0, -1], "labels must be nonnegative")]),
]


def _index_cases():
    for entry, call, error, cases in INDICES:
        for kind, (value, message) in zip(("bool", "float", "below"), cases):
            yield pytest.param(call, error, value, message, id=f"{entry}-{kind}")


@pytest.mark.parametrize("call, error, value, message", _index_cases())
def test_indices(call, error, value, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where write_labels would write
    with pytest.raises(error, match=f"^{message}$"):
        call(value)
    assert not (tmp_path / "labels.csv").exists()


@pytest.mark.parametrize("absorbing", [True, 2.0, "2"])
def test_model_document_absorbing_index(absorbing):
    """A document keeps its own message: the index names the document's key."""
    doc = model_to_dict(fixtures.one_component_model())
    doc["space"]["absorbing"] = absorbing
    with pytest.raises(DataError, match=r"space\.absorbing must be a state index or null$"):
        model_from_dict(doc)


@pytest.mark.parametrize("rule, message", [
    (True, "stop rule must be a transition count or 'absorbing'"),
    (2.7, "stop rule must be a transition count or 'absorbing'"),
    (0, "transition count must be at least 1"),
    ("absorbing", "absorbing stop rule needs an absorbing state"),
], ids=["bool", "float", "below", "absorbing"])
def test_simulate_trajectory_checks_its_stop_rule_as_a_scenario_does(rule, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate_trajectory(fixtures.chocolate_70(), rule, rng)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _scenario(stop_rule=rule)
