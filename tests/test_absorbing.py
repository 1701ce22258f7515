"""End-to-end behavior on state spaces with a terminal absorbing state."""

import numpy as np
import pytest

from smcmix import (
    EmConfig,
    MixtureModel,
    StateSpace,
    fit,
    initial_model,
    map_cluster,
    mixture_loglik,
    param_count,
    select_g,
)
from smcmix.dataio import export_tds_graph, read_panel, write_panel
from smcmix.metrics import align_components, classification_rate, err_by_component
from smcmix.sim import Scenario, simulate_panel

from conftest import make_component
from oracles import reference_panel

SPACE = StateSpace(labels=("Firm", "Creamy", "Salty", "STOP"), absorbing=3)


def quick_eater():
    return make_component(
        alpha=[0.8, 0.2, 0.0, 0.0],
        trans=[
            [0.0, 0.3, 0.1, 0.6],
            [0.2, 0.0, 0.2, 0.6],
            [0.3, 0.2, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0],
        ],
        gammas=[(2.0, 1.0), (2.5, 1.2), (1.5, 0.8), None],
        absorbing=3,
    )


def slow_eater():
    return make_component(
        alpha=[0.2, 0.8, 0.0, 0.0],
        trans=[
            [0.0, 0.6, 0.25, 0.15],
            [0.5, 0.0, 0.35, 0.15],
            [0.45, 0.4, 0.0, 0.15],
            [0.0, 0.0, 0.0, 0.0],
        ],
        gammas=[(4.0, 0.5), (5.0, 0.6), (3.0, 0.4), None],
        absorbing=3,
    )


def two_group_model():
    return MixtureModel(
        space=SPACE, weights=np.array([0.5, 0.5]), components=(quick_eater(), slow_eater())
    )


def absorbing_scenario():
    return Scenario(
        model=two_group_model(), n_subjects=150, n_replications=3,
        stop_rule="absorbing", seed=88, replicate_count=1,
    )


@pytest.fixture(scope="module")
def absorbing_panel():
    return simulate_panel(absorbing_scenario())


class TestAbsorbingEndToEnd:
    def test_fit_recovers_structure(self, absorbing_panel):
        panel, truth = absorbing_panel
        init, _ = initial_model(panel, 2, seed=11)
        report = fit(panel, init, EmConfig())
        model = report.model
        assert model.space.absorbing == 3
        for comp in model.components:
            assert comp.sojourn[3] is None
            assert np.all(comp.trans[3] == 0.0)
            assert comp.alpha[3] == 0.0
        perm = align_components(two_group_model(), model)
        errs = err_by_component(two_group_model(), model, "trans", perm)
        assert max(errs) <= 0.05
        rate = classification_rate(truth, map_cluster(report.posteriors))
        assert rate >= 0.95

    def test_selection_uses_absorbing_count(self, absorbing_panel):
        panel, _ = absorbing_panel
        sweep = select_g(panel, [1, 2], EmConfig(seed=2))
        assert sweep.rows[0].q == param_count(1, 4, has_absorbing=True)
        assert sweep.chosen["bic"] == 2

    def test_panel_round_trip_and_graph(self, tmp_path):
        panel, _ = reference_panel(absorbing_scenario())
        write_panel(tmp_path / "p.csv", panel)
        # a supplied label list pins the state order; identity follows
        back, report = read_panel(tmp_path / "p.csv", labels=SPACE.labels)
        assert back.space == SPACE
        assert mixture_loglik(back, two_group_model()) == pytest.approx(
            mixture_loglik(panel, two_group_model()), rel=1e-9
        )
        # without a list the labels come back sorted (STOP last): states
        # are permuted but the panel content is intact
        sorted_back, _ = read_panel(tmp_path / "p.csv")
        assert sorted_back.space.labels == ("Creamy", "Firm", "Salty", "STOP")
        assert sorted_back.space.absorbing == 3
        dot = export_tds_graph(panel, prob_threshold=0.3)
        assert '"STOP"' in dot  # every subject terminates there
        assert "-> \"STOP\"" in dot
