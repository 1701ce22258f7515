"""Acceptance suite: desk-scale reproduction of the benchmark targets plus
the cross-cutting property checks.

Each check prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s``
or ``-rA`` to see them).  The transition half of the pooling check
(criterion 6) is known-red: the pooled transition matrix is not the limit
of unlabeled empirical frequencies, because the current state is
informative about the latent component.  See the characterization test in
test_core.py; everything else is green.
"""

import time

import numpy as np
import pytest

from smcmix import (
    EmConfig,
    MixtureModel,
    Panel,
    StateSpace,
    err_matrix,
    fit,
    fixtures,
    initial_model,
    pool_mixture,
)
from smcmix.dataio import (
    read_model,
    read_panel,
    read_scenario,
    write_model,
    write_panel,
    write_scenario,
)
from smcmix.sim import Scenario, run_benchmark, simulate_panel, simulate_trajectory

from oracles import fit_gamma_pmle

SEED = 2024
REPLICATES = 50


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def well_separated_run():
    scenario = fixtures.benchmark_scenario(
        "well_separated", n_subjects=200, transitions=10,
        seed=SEED, replicate_count=REPLICATES,
    )
    start = time.monotonic()
    result = run_benchmark(scenario, EmConfig())
    return result, time.monotonic() - start


class TestCriterion1ParameterRecovery:
    def test_transition_and_gamma_errors(self, well_separated_run):
        result, elapsed = well_separated_run
        table = result.table()
        ok = (
            table["err_trans_1"][0] <= 0.03
            and table["err_trans_2"][0] <= 0.03
            and table["err_shape"][0] <= 0.05
            and table["err_rate"][0] <= 0.05
        )
        check(
            "criterion 1 (parameter recovery)",
            ok,
            f"Err(P1)={table['err_trans_1'][0]:.4f} Err(P2)={table['err_trans_2'][0]:.4f} "
            f"Err(a)={table['err_shape'][0]:.4f} Err(rate)={table['err_rate'][0]:.4f} "
            f"targets .03/.03/.05/.05",
        )

    def test_runtime_budget(self, well_separated_run):
        _, elapsed = well_separated_run
        check(
            "criterion 1 (runtime)",
            elapsed <= 300.0,
            f"{REPLICATES} replicates in {elapsed:.1f}s (budget 300s)",
        )


class TestCriterion2Classification:
    def test_mixture_rate(self, well_separated_run):
        result, _ = well_separated_run
        mean_rate = result.table()["class_rate"][0]
        check(
            "criterion 2 (classification rate)",
            mean_rate >= 0.98,
            f"mean MAP rate {mean_rate:.4f}, target >= .98",
        )

    def test_mixture_beats_kmeans(self, well_separated_run):
        result, _ = well_separated_run
        wins = int(np.sum(result.values["class_rate"] > result.values["kmeans_rate"]))
        check(
            "criterion 2 (mixture beats k-means)",
            wins >= 45,
            f"strict wins {wins}/{REPLICATES}, target >= 45",
        )


class TestCriterion3ComponentSelection:
    def test_one_component_panel(self):
        scenario = fixtures.benchmark_scenario(
            "chocolate70", n_subjects=200, transitions=10,
            seed=SEED, replicate_count=REPLICATES,
        )
        result = run_benchmark(scenario, EmConfig(), g_range=[1, 2, 3])
        picks = result.histograms["bic"].get(1, 0)
        check(
            "criterion 3a (BIC picks G=1)",
            picks >= 47,
            f"{picks}/{REPLICATES} replicates, target >= 47",
        )

    def test_two_component_panel(self):
        scenario = fixtures.benchmark_scenario(
            "well_separated", n_subjects=200, transitions=10,
            seed=SEED, replicate_count=REPLICATES,
        )
        result = run_benchmark(scenario, EmConfig(), g_range=[1, 2, 3])
        picks = result.histograms["bic"].get(2, 0)
        check(
            "criterion 3b (BIC picks G=2)",
            picks >= 45,
            f"{picks}/{REPLICATES} replicates, target >= 45",
        )


class TestCriterion4PenaltyEffect:
    def test_penalized_beats_unpenalized(self):
        scenario = fixtures.benchmark_scenario(
            "not_well_separated", n_subjects=60, transitions=4,
            seed=SEED, replicate_count=REPLICATES,
        )
        pen = run_benchmark(scenario, EmConfig(penalized=True)).table()["err_rate"]
        unpen = run_benchmark(scenario, EmConfig(penalized=False)).table()["err_rate"]
        ok = pen[0] < unpen[0] and pen[1] < unpen[1]
        check(
            "criterion 4 (penalty effect)",
            ok,
            f"Err(rate) penalized {pen[0]:.3f}({pen[1]:.3f}) vs "
            f"unpenalized {unpen[0]:.3f}({unpen[1]:.3f}); both mean and sd must shrink",
        )


class TestCriterion5WeightRecovery:
    def test_pi_recovery_n600(self):
        scenario = fixtures.benchmark_scenario(
            "well_separated", n_subjects=600, transitions=10,
            seed=SEED, replicate_count=REPLICATES,
        )
        result = run_benchmark(scenario, EmConfig())
        mean_pi = result.table()["pi_1"][0]
        check(
            "criterion 5 (weight recovery)",
            0.48 <= mean_pi <= 0.52,
            f"mean aligned weight {mean_pi:.4f}, target [.48, .52]",
        )


# ---------------------------------------------------------------------------
# Criterion 6: property suite


def canonical_fit(name, seed=SEED):
    model = {
        "chocolate70": fixtures.one_component_model,
        "well_separated": fixtures.well_separated_model,
        "not_well_separated": fixtures.not_well_separated_model,
    }[name]()
    scenario = Scenario(
        model=model, n_subjects=200, n_replications=3, stop_rule=10,
        seed=seed, replicate_count=1,
    )
    panel, _ = simulate_panel(scenario)
    init, _ = initial_model(panel, model.n_components, seed=seed)
    return panel, init, fit(panel, init, EmConfig())


class TestCriterion6Properties:
    def test_c6_em_ascent_on_every_fixture(self):
        dips = {}
        for name in ("chocolate70", "well_separated", "not_well_separated"):
            _, _, report = canonical_fit(name)
            if not report.monotone:
                dips[name] = [w for w in report.warnings if "decreased" in w]
        check(
            "criterion 6 (EM ascent within slack)",
            not dips,
            f"all canonical fixture fits monotone within 1e-7" if not dips else str(dips),
        )

    def test_c6_posterior_rows(self):
        _, _, report = canonical_fit("well_separated")
        sums = report.posteriors.z.sum(axis=1)
        ok = bool(np.all(np.abs(sums - 1.0) <= 1e-10))
        check("criterion 6 (posterior rows sum to 1)", ok, f"max |row-1| = {np.abs(sums-1).max():.2e}")

    def test_c6_label_swap_exact(self):
        panel, init, report = canonical_fit("well_separated")
        swapped = MixtureModel(
            space=init.space, weights=init.weights[::-1].copy(),
            components=init.components[::-1],
        )
        other = fit(panel, swapped, EmConfig())
        ok = (
            report.objective_trace == other.objective_trace
            and report.model.components[0] == other.model.components[1]
            and np.array_equal(report.posteriors.z, other.posteriors.z[:, ::-1])
        )
        check("criterion 6 (label-swap equivalence)", ok, "swapped init permutes the fit exactly")

    def test_c6_pooling_alpha(self):
        model = fixtures.well_separated_model()
        pooled = pool_mixture(model)
        rng = np.random.default_rng(SEED)
        n_traj = 50_000
        first = np.zeros(10)
        labels = rng.choice(2, size=n_traj, p=model.weights)
        for g in labels:
            t = simulate_trajectory(model.components[int(g)], 1, rng)
            first[t.states[0]] += 1
        alpha_hat = first / n_traj
        se = np.sqrt(np.maximum(pooled.alpha * (1 - pooled.alpha), 1e-30) / n_traj)
        dev = np.abs(alpha_hat - pooled.alpha) / np.maximum(3 * se, 1e-12)
        ok = bool(np.all(np.abs(alpha_hat - pooled.alpha) <= 3 * se + 1e-12))
        check(
            "criterion 6 (pooling law, initial probabilities)",
            ok,
            f"max deviation {dev.max():.2f} x (3 se)",
        )

    def test_c6_pooling_transitions_weight_averaged(self):
        """Faithful check of the pooled-transition claim.  KNOWN RED: the
        unlabeled transition frequencies converge to a visit-weighted
        mixture, not the weight-averaged matrix (the current state carries
        information about the latent component), so this bound cannot hold
        for any fixture whose components visit states unevenly."""
        model = fixtures.well_separated_model()
        pooled = pool_mixture(model)
        rng = np.random.default_rng(SEED)
        n_traj = 50_000
        counts = np.zeros((10, 10))
        labels = rng.choice(2, size=n_traj, p=model.weights)
        for g in labels:
            t = simulate_trajectory(model.components[int(g)], 4, rng)
            np.add.at(counts, (t.states[:-1], t.states[1:]), 1.0)
        totals = counts.sum(axis=1)
        p_hat = counts / totals[:, None]
        se = np.sqrt(np.maximum(pooled.trans * (1 - pooled.trans), 1e-30) / totals[:, None])
        dev = np.abs(p_hat - pooled.trans) / np.maximum(3 * se, 1e-12)
        ok = bool(np.all(np.abs(p_hat - pooled.trans) <= 3 * se + 1e-12))
        check(
            "criterion 6 (pooling law, transitions, weight-averaged)",
            ok,
            f"max deviation {dev.max():.1f} x (3 se); see the decisions ledger: "
            "the claim itself does not hold for mixtures",
        )

    def test_c6_pmle_profile_identity(self):
        rng = np.random.default_rng(SEED)
        ok = True
        worst = 0.0
        for _ in range(10):
            values = rng.gamma(2.3, 1.7, size=300)
            weights = rng.random(300) + 0.01
            p = fit_gamma_pmle(values, weights, penalty_c=0.03)
            lam = p.shape * weights.sum() / np.dot(weights, values)
            rel = abs(p.rate - lam) / lam
            worst = max(worst, rel)
            ok = ok and rel <= 1e-10
        check("criterion 6 (PMLE profile identity)", ok, f"worst relative gap {worst:.2e}")

    def test_c6_err_zero_iff_equal(self):
        model = fixtures.well_separated_model()
        same = err_matrix(model.components[0].trans, model.components[0].trans)
        diff = err_matrix(model.components[0].trans, model.components[1].trans)
        ok = same == 0.0 and diff > 0.0
        check("criterion 6 (error metrics zero iff equal)", ok, f"same={same} diff={diff:.3f}")

    def test_c6_file_round_trips(self, tmp_path):
        scenario = fixtures.benchmark_scenario("well_separated", n_subjects=20,
                                               seed=SEED, replicate_count=1)
        model = scenario.model
        write_model(tmp_path / "m.json", model)
        ok = read_model(tmp_path / "m.json") == model

        write_scenario(tmp_path / "s.json", scenario)
        back = read_scenario(tmp_path / "s.json")
        ok = ok and back.model == model and back.stop_rule == scenario.stop_rule

        from conftest import traj

        panel_fixture = Panel(
            space=StateSpace(labels=("A", "B")),
            subjects=((traj([0, 1], [1.25, 2.5]), traj([1, 0], [0.75, 3.0])),),
        )
        write_panel(tmp_path / "p.csv", panel_fixture)
        ok = ok and read_panel(tmp_path / "p.csv")[0] == panel_fixture
        check("criterion 6 (file round-trips)", ok, "model, scenario and panel survive")
