import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smcmix import MixtureModel, StateSpace, e_step, fixtures, map_cluster
from smcmix.cli import main
from smcmix.dataio import (
    read_labels,
    read_model,
    read_scenario,
    write_model,
    write_panel,
    write_scenario,
)
from smcmix.sim import Scenario, simulate_panel

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def small_scenario_file(tmp_path):
    scenario = Scenario(
        model=fixtures.well_separated_model(),
        n_subjects=40,
        n_replications=3,
        stop_rule=6,
        seed=314,
        replicate_count=2,
        name="small",
    )
    path = tmp_path / "scenario.json"
    write_scenario(path, scenario)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPipeline:
    def test_simulate_fit_classify_graph(self, tmp_path, capsys, small_scenario_file):
        panel = tmp_path / "panel.csv"
        truth = tmp_path / "truth.csv"
        code, out, _ = run(
            capsys, "simulate", "--scenario", small_scenario_file, "--out", panel,
            "--labels", truth,
        )
        assert code == 0 and panel.exists() and truth.exists()

        model = tmp_path / "model.json"
        post = tmp_path / "post.csv"
        code, out, _ = run(
            capsys, "fit", "--data", panel, "--components", 2, "--seed", 3,
            "--out", model, "--posteriors", post,
        )
        assert code == 0
        assert "converged:" in out
        fitted = read_model(model)
        assert fitted.n_components == 2
        with open(post) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        for row in rows:
            total = float(row["comp_1"]) + float(row["comp_2"])
            assert total == pytest.approx(1.0, abs=1e-9)

        labels = tmp_path / "labels.csv"
        code, out, _ = run(
            capsys, "classify", "--data", panel, "--model", model, "--out", labels
        )
        assert code == 0
        with open(labels) as fh:
            assignment = list(csv.DictReader(fh))
        assert len(assignment) == 40
        assert set(r["component"] for r in assignment) <= {"1", "2"}
        # classify must agree with the argmax of the posterior file
        for lab, row in zip(assignment, rows):
            expected = "1" if float(row["comp_1"]) >= float(row["comp_2"]) else "2"
            assert lab["component"] == expected

        dot = tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "graph", "--data", panel, "--labels", labels, "--cluster", 1,
            "--out", dot,
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph tds {")
        assert text.rstrip().endswith("}")

    def test_bench_runs_on_scenario(self, tmp_path, capsys, small_scenario_file):
        table = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "bench", "--scenario", small_scenario_file, "--replicates", 2,
            "--out", table,
        )
        assert code == 0
        assert "class_rate" in out
        with open(table) as fh:
            rows = list(csv.DictReader(fh))
        assert {"metric", "mean", "sd"} <= set(rows[0].keys())

    def test_bench_sweep_histogram(self, tmp_path, capsys, small_scenario_file):
        code, out, _ = run(
            capsys, "bench", "--scenario", small_scenario_file, "--replicates", 2,
            "--g-min", 1, "--g-max", 2,
        )
        assert code == 0
        assert "bic_picks:" in out

    def test_select_one_row(self, tmp_path, capsys, small_scenario_file):
        panel = tmp_path / "panel.csv"
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
        code, out, _ = run(
            capsys, "select", "--data", panel, "--g-min", 1, "--g-max", 1, "--seed", 1
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].lstrip().startswith("G")
        data_lines = [l for l in lines if l.lstrip().startswith("1 ")]
        assert len(data_lines) == 1
        assert "chosen_bic: 1" in out


class TestOptions:
    def test_fit_attributes_fix_the_state_order(self, tmp_path, capsys, small_scenario_file):
        panel = tmp_path / "panel.csv"
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
        order = fixtures.CHOCOLATE_LABELS[::-1]
        model = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "fit", "--data", panel, "--components", 1,
            "--attributes", " , ".join(order), "--out", model,
        )
        assert code == 0
        assert read_model(model).space.labels == order

    def test_simulate_seed_overrides_the_scenario_seed(self, tmp_path, capsys,
                                                        small_scenario_file):
        reseeded = tmp_path / "reseeded.json"
        write_scenario(reseeded, replace(read_scenario(small_scenario_file), seed=9))
        paths = [tmp_path / f"{k}.csv" for k in range(3)]
        assert run(capsys, "simulate", "--scenario", small_scenario_file, "--seed", 9,
                   "--out", paths[0])[0] == 0
        run(capsys, "simulate", "--scenario", reseeded, "--out", paths[1])
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()

    def test_classify_takes_the_absorbing_label_from_the_model(self, tmp_path, capsys):
        """The model's absorbing state is called END, not the default STOP:
        classify reads the data with the model's absorbing label."""
        from test_absorbing import two_group_model

        space = StateSpace(labels=("Firm", "Creamy", "Salty", "END"), absorbing=3)
        model = MixtureModel.from_arrays(space, two_group_model().params)
        scenario = Scenario(model=model, n_subjects=20, n_replications=2,
                            stop_rule="absorbing", seed=5)
        panel, _ = simulate_panel(scenario)
        data, model_path, labels = tmp_path / "panel.csv", tmp_path / "m.json", tmp_path / "l.csv"
        write_panel(data, panel)
        write_model(model_path, model)
        code, out, _ = run(
            capsys, "classify", "--data", data, "--model", model_path, "--out", labels
        )
        assert code == 0
        expected = map_cluster(e_step(panel, model))
        assert read_labels(labels) == {str(i + 1): g for i, g in enumerate(expected)}
        assert out == "cluster_sizes: " + " ".join(map(str, np.bincount(expected, minlength=2))) + "\n"

    def test_graph_to_stdout(self, tmp_path, capsys, small_scenario_file):
        panel, dot = tmp_path / "panel.csv", tmp_path / "g.dot"
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
        run(capsys, "graph", "--data", panel, "--out", dot)
        code, out, _ = run(capsys, "graph", "--data", panel)
        assert code == 0
        assert out == dot.read_text()
        assert out.startswith("digraph tds {")


class TestGoldenSummary:
    def test_fit_on_shipped_fixture(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        code, _, _ = run(
            capsys, "simulate", "--scenario", "well_separated", "--out", panel
        )
        assert code == 0
        model = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "fit", "--data", panel, "--components", 2, "--seed", 7,
            "--out", model,
        )
        assert code == 0
        assert out == (GOLDEN / "fit_summary.txt").read_text()


class TestClassifyLabelOrder:
    def test_model_label_order_wins(self, tmp_path, capsys):
        """The data file's alphabetical label order differs from the
        model's; classify must follow the model."""
        from conftest import make_component
        from smcmix import MixtureModel, StateSpace

        # "Zip" sorts after "Alp", but the model puts Zip first
        space = StateSpace(labels=("Zip", "Alp"))
        comp_a = make_component([0.999, 0.001], [[0, 1], [1, 0]], [(2, 1), (2, 1)])
        comp_b = make_component([0.001, 0.999], [[0, 1], [1, 0]], [(2, 1), (2, 1)])
        model = MixtureModel(
            space=space, weights=np.array([0.5, 0.5]), components=(comp_a, comp_b)
        )
        model_path = tmp_path / "model.json"
        write_model(model_path, model)

        data = tmp_path / "panel.csv"
        data.write_text(
            "subject,replication,attribute,onset,end\n"
            "s1,1,Zip,0,4\n"
            "s1,1,Alp,2,4\n"
            "s2,1,Alp,0,4\n"
            "s2,1,Zip,2,4\n"
        )
        labels = tmp_path / "labels.csv"
        code, _, _ = run(
            capsys, "classify", "--data", data, "--model", model_path, "--out", labels
        )
        assert code == 0
        with open(labels) as fh:
            rows = {r["subject"]: r["component"] for r in csv.DictReader(fh)}
        # s1 starts in Zip -> component 1 dominates; s2 starts in Alp -> 2
        assert rows == {"s1": "1", "s2": "2"}


class TestErrorPaths:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "fit", "--data", tmp_path / "nope.csv", "--components", 2,
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "FileNotFoundError"
        assert not (tmp_path / "m.json").exists()

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # model that forbids the panel's only starting state
        from conftest import make_component
        from smcmix import MixtureModel, StateSpace

        space = StateSpace(labels=("A", "B"))
        comp = make_component([1.0, 0.0], [[0, 1], [1, 0]], [(1, 1), (1, 1)])
        model_path = tmp_path / "model.json"
        write_model(model_path, MixtureModel(space=space, weights=np.array([1.0]),
                                             components=(comp,)))
        data = tmp_path / "panel.csv"
        data.write_text(
            "subject,replication,attribute,onset,end\n"
            "s1,1,B,0,5\n"
            "s1,1,A,2,5\n"
        )
        code, _, err = run(
            capsys, "classify", "--data", data, "--model", model_path,
            "--out", tmp_path / "labels.csv",
        )
        assert code == 3
        assert json.loads(err)["error"] == "AllComponentsImpossible"
        assert not (tmp_path / "labels.csv").exists()

    def test_bad_scenario_name_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--scenario", "no_such_thing", "--out", tmp_path / "p.csv"
        )
        assert code == 2
        assert json.loads(err)["error"] == "DataError"

    def test_fit_single_attribute_panel_is_a_data_error(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text("subject,replication,attribute,onset,end\ns1,1,A,0,5\ns2,1,A,1,5\n")
        code, _, err = run(
            capsys, "fit", "--data", panel, "--components", 1, "--out", tmp_path / "m.json"
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DataError",
            "message": f"{panel}: every row has the attribute 'A'; a state space needs at least two",
        }

    def test_graph_labels_without_cluster(self, tmp_path, capsys, small_scenario_file):
        panel = tmp_path / "panel.csv"
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
        labels = tmp_path / "labels.csv"
        labels.write_text("subject,component\n1,1\n")
        code, _, err = run(capsys, "graph", "--data", panel, "--labels", labels)
        assert code == 2

    @pytest.mark.parametrize("option,value,message", [
        ("--prob-threshold", "-0.1", "prob_threshold must be at least 0, got -0.1"),
        ("--prob-threshold", "nan", "prob_threshold must be at least 0, got nan"),
        ("--elicit-frac", "nan", "elicit_frac must lie in [0, 1], got nan"),
        ("--elicit-frac", "1.5", "elicit_frac must lie in [0, 1], got 1.5"),
    ])
    def test_graph_bad_threshold_exit_2(self, tmp_path, capsys, small_scenario_file, option,
                                        value, message):
        panel = tmp_path / "panel.csv"
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
        code, out, err = run(capsys, "graph", "--data", panel, option, value,
                             "--out", tmp_path / "g.dot")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert not (tmp_path / "g.dot").exists()

    def test_graph_empty_cluster_exit_2(self, tmp_path, capsys, small_scenario_file):
        panel = tmp_path / "panel.csv"
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
        labels = tmp_path / "labels.csv"
        labels.write_text("subject,component\n1,1\n2,1\n")
        code, _, err = run(
            capsys, "graph", "--data", panel, "--labels", labels, "--cluster", 2,
            "--out", tmp_path / "g.dot",
        )
        assert code == 2
        assert json.loads(err) == {"error": "DataError", "message": "no subjects in cluster 2"}
        assert not (tmp_path / "g.dot").exists()

    def test_fit_unknown_attribute_exit_2(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        data.write_text("subject,replication,attribute,onset,end\ns1,1,A,0,5\ns1,1,B,2,5\n")
        code, _, err = run(
            capsys, "fit", "--data", data, "--components", 1, "--attributes", "A,C",
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "UnknownAttribute",
            "message": "line 3: attribute 'B' not in the supplied label list",
        }
        assert not (tmp_path / "m.json").exists()

    def test_classify_live_stop_state_exit_2(self, tmp_path, capsys):
        """A model whose STOP state is live: the data, read with the default
        absorbing label, ends in an absorbing STOP and disagrees with it."""
        from conftest import make_component

        space = StateSpace(labels=("A", "B", "STOP"))
        comp = make_component([0.5, 0.5, 0.0], [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]],
                              [(1, 1), (1, 1), (1, 1)])
        model = tmp_path / "model.json"
        write_model(model, MixtureModel(space=space, weights=np.array([1.0]), components=(comp,)))
        data = tmp_path / "panel.csv"
        data.write_text("subject,replication,attribute,onset,end\ns1,1,A,0,5\ns1,1,STOP,2,5\n")
        code, _, err = run(
            capsys, "classify", "--data", data, "--model", model, "--out", tmp_path / "l.csv"
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DataError",
            "message": "data and model disagree about the absorbing state (2 vs None)",
        }
        assert not (tmp_path / "l.csv").exists()

    def test_graph_bad_labels_file_exit_2(self, tmp_path, capsys, small_scenario_file):
        panel = tmp_path / "panel.csv"
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
        labels = tmp_path / "labels.csv"
        labels.write_text("subject,component\n1,1\n2,first\n")
        code, _, err = run(
            capsys, "graph", "--data", panel, "--labels", labels, "--cluster", 1
        )
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "MalformedRow"
        assert doc["message"].startswith("line 3:")

    @pytest.mark.parametrize("command", ["fit", "select", "bench"])
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_exit_2(self, tmp_path, capsys, small_scenario_file,
                                       command, restarts):
        if command == "bench":
            argv = ["bench", "--scenario", small_scenario_file, "--replicates", 1]
        else:
            panel = tmp_path / "panel.csv"
            run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
            argv = [command, "--data", panel, "--out", tmp_path / "out"]
            argv += ["--components", 2] if command == "fit" else ["--g-min", 1, "--g-max", 2]
        code, _, err = run(capsys, *argv, "--restarts", restarts)
        assert code == 2
        assert json.loads(err) == {
            "error": "ValueError", "message": "restarts must be at least 1"
        }
        assert not (tmp_path / "out").exists()

    def test_bench_empty_g_range_exit_2(self, tmp_path, capsys, small_scenario_file):
        code, _, err = run(capsys, "bench", "--scenario", small_scenario_file,
                           "--g-min", 3, "--g-max", 1, "--out", tmp_path / "out")
        assert code == 2
        assert json.loads(err) == {
            "error": "ValueError", "message": "g_range must contain positive component counts"
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("z_round", ["5", "-0.3", "nan"])
    def test_classify_bad_z_round_exit_2(self, tmp_path, capsys, simple_model, z_round):
        model = tmp_path / "model.json"
        write_model(model, simple_model)
        data = tmp_path / "panel.csv"
        data.write_text("subject,replication,attribute,onset,end\ns1,1,A,0,5\ns1,1,B,2,5\n")
        code, _, err = run(
            capsys, "classify", "--data", data, "--model", model,
            "--out", tmp_path / "labels.csv", "--z-round", z_round,
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "ValueError", "message": "z_round must be 0 or in (0, 0.1]"
        }
        assert not (tmp_path / "labels.csv").exists()

    @pytest.mark.parametrize("sample_size", [0, -3])
    def test_select_bad_sample_size_exit_2(self, tmp_path, capsys, small_scenario_file,
                                           sample_size):
        panel = tmp_path / "panel.csv"
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
        code, _, err = run(
            capsys, "select", "--data", panel, "--g-min", 1, "--g-max", 2,
            "--sample-size", sample_size, "--out", tmp_path / "crit.csv",
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "ValueError", "message": "sample_size must be at least 1"
        }
        assert not (tmp_path / "crit.csv").exists()

    def test_classify_rejects_attribute_override(self, tmp_path, capsys, small_scenario_file):
        panel = tmp_path / "panel.csv"
        run(capsys, "simulate", "--scenario", small_scenario_file, "--out", panel)
        model = tmp_path / "model.json"
        run(capsys, "fit", "--data", panel, "--components", 2, "--seed", 3, "--out", model)
        code, _, err = run(
            capsys, "classify", "--data", panel, "--model", model,
            "--attributes", "A,B", "--out", tmp_path / "l.csv",
        )
        assert code == 2
        assert "conflicts" in json.loads(err)["message"]

    @pytest.mark.parametrize("delimiter", [";;", "", '"'])
    def test_bad_delimiter_exit_2(self, tmp_path, capsys, delimiter):
        data = tmp_path / "panel.csv"
        data.write_text("subject,replication,attribute,onset,end\ns1,1,A,0,5\ns1,1,B,2,5\n")
        code, _, err = run(
            capsys, "fit", "--data", data, "--components", 1, "--delimiter", delimiter,
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "delimiter must be one character other than '\"', '\\r' and '\\n', "
                       f"not {delimiter!r}",
        }
        assert not (tmp_path / "m.json").exists()

    def test_overlong_field_exit_2(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        data.write_text(
            "subject,replication,attribute,onset,end\ns1,1,A,0,5\ns1,1,B,2,5\n"
            f"s1,1,{'C' * 200_000},3,5\n"
        )
        code, _, err = run(
            capsys, "fit", "--data", data, "--components", 1, "--out", tmp_path / "m.json"
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "MalformedRow",
            "message": "line 4: field larger than field limit (131072)",
        }
