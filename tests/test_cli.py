"""Command-line interface: artifacts, exit codes, and determinism."""

import json

import numpy as np
import pytest

from edgepool import gen_synthetic, save_tu
from edgepool.cli import _bench_graph, main
from edgepool.data import make_connected_erdos_renyi, make_sbm
from edgepool.graph import build_graph, graph_to_json, save_graph_file, symmetrize
from edgepool.rng import seeded_rng


def write_graph(path, n=12, seed=0):
    rng = seeded_rng(seed, "cli-graph")
    g = make_connected_erdos_renyi(n, 0.3, rng, feature_width=3)
    save_graph_file(path, g)
    return g


def write_task(path, seed=0):
    rng = seeded_rng(seed, "cli-task")
    graph, blocks = make_sbm(2, 25, 0.2, 0.02, rng)
    obj = graph_to_json(graph)
    obj["node_labels"] = blocks.tolist()
    obj["train_nodes"] = list(range(0, 10)) + list(range(25, 35))
    obj["test_nodes"] = list(range(10, 20)) + list(range(35, 45))
    path.write_text(json.dumps(obj))


def write_dataset(directory, num_graphs=10, seed=0):
    ds = gen_synthetic(
        "path_proteinlike",
        {"num_graphs": num_graphs, "min_nodes": 8, "max_nodes": 12},
        seed=seed,
    )
    save_tu(ds, directory, "TINY")
    return ds


def read_checkpoint(path):
    """The checkpoint's config and its name -> {shape, data} parameter entries."""
    obj = json.loads(path.read_text())
    return obj["config"], obj["params"]


def artifacts(out):
    """Every file a run wrote except the manifest (which holds timestamps), as bytes."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


class TestPoolCommand:
    def test_single_level_artifacts(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        out = tmp_path / "out"
        code = main(["pool", "--input", str(graph_path), "--levels", "1",
                     "--out", str(out)])
        assert code == 0
        assert (out / "hierarchy.json").exists()
        assert (out / "level0.dot").exists()
        assert (out / "level1.dot").exists()
        assert not (out / "level2.dot").exists()
        assert (out / "manifest.json").exists()
        hierarchy = json.loads((out / "hierarchy.json").read_text())
        assert len(hierarchy) == 1
        stdout = capsys.readouterr().out
        assert "level 0" in stdout and "level 1" in stdout

    def test_zero_levels_renders_original_only(self, tmp_path):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        out = tmp_path / "out"
        code = main(["pool", "--input", str(graph_path), "--levels", "0",
                     "--out", str(out)])
        assert code == 0
        assert (out / "level0.dot").exists()
        assert not (out / "level1.dot").exists()
        assert json.loads((out / "hierarchy.json").read_text()) == []

    def test_three_levels_make_four_drawings(self, tmp_path):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path, n=30)
        out = tmp_path / "out"
        code = main(["pool", "--input", str(graph_path), "--levels", "3",
                     "--out", str(out)])
        assert code == 0
        for depth in range(4):
            assert (out / f"level{depth}.dot").exists()

    def test_intermediate_dots_are_colored(self, tmp_path):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        out = tmp_path / "out"
        main(["pool", "--input", str(graph_path), "--levels", "1",
              "--out", str(out)])
        colored = (out / "level0.dot").read_text()
        final = (out / "level1.dot").read_text()
        assert "fillcolor" in colored
        assert "fillcolor" not in final

    def test_negative_levels_rejected(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        out = tmp_path / "out"
        code = main(["pool", "--input", str(graph_path), "--levels", "-1",
                     "--out", str(out)])
        assert code == 2
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    def test_tu_input_with_index(self, tmp_path):
        write_dataset(tmp_path / "data")
        out = tmp_path / "out"
        code = main(["pool", "--tu", str(tmp_path / "data"), "TINY",
                     "--index", "2", "--levels", "1", "--out", str(out)])
        assert code == 0

    def test_index_out_of_range(self, tmp_path):
        write_dataset(tmp_path / "data", num_graphs=3)
        code = main(["pool", "--tu", str(tmp_path / "data"), "TINY",
                     "--index", "99", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_explicit_params_file(self, tmp_path):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)  # feature width 3 -> weight length 6
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"weight": [0.1] * 6, "bias": 0.0}))
        code = main(["pool", "--input", str(graph_path), "--params",
                     str(params_path), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_wrong_width_params_rejected(self, tmp_path):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"weight": [0.1] * 4, "bias": 0.0}))
        code = main(["pool", "--input", str(graph_path), "--params",
                     str(params_path), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_nan_feature_rejected(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(
            {"num_nodes": 3, "edges": [[0, 1], [1, 2]],
             "node_features": [[float("nan")], [1.0], [2.0]]}
        ))
        out = tmp_path / "out"
        code = main(["pool", "--input", str(graph_path), "--out", str(out)])
        assert code == 2
        assert "node features must be finite" in capsys.readouterr().err
        assert not (out / "hierarchy.json").exists()

    def test_nan_params_rejected(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"weight": [float("nan")] + [1.0] * 5,
                                           "bias": 0.0}))
        out = tmp_path / "out"
        code = main(["pool", "--input", str(graph_path), "--params",
                     str(params_path), "--out", str(out)])
        assert code == 2
        assert "params weight and bias must be finite" in capsys.readouterr().err
        assert not (out / "hierarchy.json").exists()

    @pytest.mark.parametrize("params, message", [
        ({"weight": [0.1] * 6, "bias": None}, "bias must be a number"),
        ({"weight": [0.1] * 6, "bias": [0.0]}, "bias must be a number"),
        ({"weight": [0.1] * 5 + [{}], "bias": 0.0}, "weight must be a list of numbers"),
        ({"weight": [0.1] * 5 + ["0.1"], "bias": 0.0}, "weight must be a list of numbers"),
        ({"weight": 0.1, "bias": 0.0}, "weight must be a list of numbers"),
        ({"weight": [0.1] * 5 + [10**400], "bias": 0.0}, "must be finite"),
        (["weight", "bias"], "needs an object"),
        (3, "needs an object"),
    ], ids=["bias-null", "bias-list", "weight-object-entry", "weight-string-entry",
            "weight-scalar", "weight-beyond-float64", "params-list", "params-number"])
    def test_malformed_params_rejected(self, tmp_path, capsys, params, message):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(params))
        out = tmp_path / "out"
        code = main(["pool", "--input", str(graph_path), "--params",
                     str(params_path), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "hierarchy.json").exists()

    def test_overflowing_scores_rejected(self, tmp_path, capsys):
        # Finite params whose raw scores overflow to inf on this graph.
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(
            {"num_nodes": 4, "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2]],
             "node_features": [[1.0]] * 4}
        ))
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"weight": [1e308, 1e308], "bias": 0.0}))
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            code = main(["pool", "--input", str(graph_path), "--params",
                         str(params_path), "--out", str(out)])
        assert code == 2
        assert "edge scores must be finite" in capsys.readouterr().err
        assert not (out / "hierarchy.json").exists()

    def test_same_input_and_seed_give_identical_hierarchy(self, tmp_path):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path, n=40)
        written = []
        for run in range(2):
            out = tmp_path / f"out{run}"
            code = main(["pool", "--input", str(graph_path), "--levels", "2",
                         "--seed", "7", "--out", str(out)])
            assert code == 0
            written.append((out / "hierarchy.json").read_bytes())
        assert len(json.loads(written[0])) == 2
        assert written[0] == written[1]

    def test_seed_draws_the_random_scorer(self, tmp_path):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path, n=40)
        written = {}
        for seed in ("7", "8"):
            out = tmp_path / f"out{seed}"
            assert main(["pool", "--input", str(graph_path), "--levels", "2",
                         "--seed", seed, "--out", str(out)]) == 0
            written[seed] = (out / "hierarchy.json").read_bytes()
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seed"] == int(seed)
        assert written["7"] != written["8"]

    def test_missing_file(self, tmp_path):
        code = main(["pool", "--input", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_requires_some_input(self, tmp_path):
        code = main(["pool", "--out", str(tmp_path / "out")])
        assert code == 2


class TestTuInput:
    @pytest.mark.parametrize("command", [["pool"], ["train-graph", "--quiet"]],
                             ids=["pool", "train-graph"])
    @pytest.mark.parametrize("label", ["inf", "2.5"], ids=["inf", "fractional"])
    def test_non_integer_graph_label_rejected(self, tmp_path, capsys, command, label):
        write_dataset(tmp_path / "data", num_graphs=4)
        labels = tmp_path / "data" / "TINY_graph_labels.txt"
        labels.write_text(f"0\n1\n{label}\n0\n")
        out = tmp_path / "out"
        code = main([*command, "--tu", str(tmp_path / "data"), "TINY", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "TINY_graph_labels.txt:3:" in err and "not an integer" in err
        assert not out.exists()


class TestTrainNodeCommand:
    def run_synthetic(self, out, extra=()):
        return main(["train-node", "--synthetic", "sbm", "--epochs", "2",
                     "--channels", "8", "--quiet", "--out", str(out), *extra])

    def test_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert self.run_synthetic(out) == 0
        history = (out / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,lr,train_loss,eval_acc"
        assert len(history) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dataset"] == "sbm"
        assert summary["pooling"] == "edgepool"
        assert summary["conv"] == "mean"
        assert 0.0 <= summary["accuracy"] <= 1.0
        config, params = read_checkpoint(out / "checkpoint.json")
        assert config["channels"] == 8
        assert any(name.startswith("pool1") for name in params)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train-node"
        assert manifest["seed"] == 0

    def test_deterministic_summaries(self, tmp_path):
        assert self.run_synthetic(tmp_path / "a") == 0
        assert self.run_synthetic(tmp_path / "b") == 0
        a = json.loads((tmp_path / "a" / "summary.json").read_text())
        b = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert a == b
        assert ((tmp_path / "a" / "history.csv").read_text()
                == (tmp_path / "b" / "history.csv").read_text())

    def test_task_file_with_explicit_split(self, tmp_path):
        task_path = tmp_path / "task.json"
        write_task(task_path)
        out = tmp_path / "run"
        code = main(["train-node", "--input", str(task_path), "--conv", "mlp",
                     "--pooling", "none", "--epochs", "2", "--channels", "8",
                     "--quiet", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["conv"] == "mlp" and summary["pooling"] == "none"
        _, params = read_checkpoint(out / "checkpoint.json")
        assert not any("pool" in name for name in params)
        assert not any("w_neigh" in name for name in params)

    def test_requires_input_or_synthetic(self, tmp_path):
        assert main(["train-node", "--quiet", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field, value, message", [
        ("train_nodes", [0, 999], "not a node index"),
        ("train_nodes", [-1, 0], "not a node index"),
        ("train_nodes", [0.5, 1], "not a node index"),
        ("node_labels", [0] * 10, "one label per node"),
        ("test_nodes", [], "non-empty"),
        ("train_nodes", [], "non-empty"),
    ], ids=["index-past-end", "index-negative", "index-fractional", "labels-short",
            "test-empty", "train-empty"])
    def test_invalid_explicit_split_rejected(self, tmp_path, capsys, field, value, message):
        task_path = tmp_path / "task.json"
        write_task(task_path)
        obj = json.loads(task_path.read_text())
        obj[field] = value
        task_path.write_text(json.dumps(obj))
        code = main(["train-node", "--input", str(task_path), "--epochs", "1",
                     "--channels", "4", "--quiet", "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("label", [0.5, float("nan"), float("inf"), "1", True],
                             ids=["fractional", "nan", "inf", "string", "bool"])
    def test_non_integral_labels_rejected(self, tmp_path, capsys, label):
        task_path = tmp_path / "task.json"
        write_task(task_path)
        obj = json.loads(task_path.read_text())
        obj["node_labels"][3] = label
        task_path.write_text(json.dumps(obj))
        code = main(["train-node", "--input", str(task_path), "--epochs", "1",
                     "--channels", "4", "--quiet", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not an integer class label" in capsys.readouterr().err

    def test_integral_float_labels_accepted(self, tmp_path):
        task_path = tmp_path / "task.json"
        write_task(task_path)
        obj = json.loads(task_path.read_text())
        obj["node_labels"] = [float(x) for x in obj["node_labels"]]
        task_path.write_text(json.dumps(obj))
        code = main(["train-node", "--input", str(task_path), "--conv", "mlp",
                     "--pooling", "none", "--epochs", "1", "--channels", "4",
                     "--quiet", "--out", str(tmp_path / "out")])
        assert code == 0

    @pytest.mark.parametrize("present, missing", [("train_nodes", "test_nodes"),
                                                  ("test_nodes", "train_nodes")],
                             ids=["train-only", "test-only"])
    def test_one_sided_split_rejected(self, tmp_path, capsys, present, missing):
        task_path = tmp_path / "task.json"
        write_task(task_path)
        obj = json.loads(task_path.read_text())
        del obj[missing]
        task_path.write_text(json.dumps(obj))
        code = main(["train-node", "--input", str(task_path), "--epochs", "1",
                     "--channels", "4", "--quiet", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"has {present} but no {missing}" in err

    def test_overlapping_split_rejected(self, tmp_path, capsys):
        task_path = tmp_path / "task.json"
        write_task(task_path)
        obj = json.loads(task_path.read_text())
        obj["train_nodes"] = [0, 2]
        obj["test_nodes"] = [2, 0]
        task_path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        code = main(["train-node", "--input", str(task_path), "--epochs", "1",
                     "--channels", "4", "--quiet", "--out", str(out)])
        assert code == 2
        assert "share node 0" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_same_seed_gives_identical_artifacts(self, tmp_path):
        runs = []
        for name in ("a", "b"):
            assert self.run_synthetic(tmp_path / name, ["--seed", "3"]) == 0
            runs.append(artifacts(tmp_path / name))
        assert set(runs[0]) == {"checkpoint.json", "history.csv", "summary.json"}
        assert runs[0] == runs[1]

    def test_task_without_labels_rejected(self, tmp_path):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        assert main(["train-node", "--input", str(graph_path), "--quiet",
                     "--out", str(tmp_path / "out")]) == 2


class TestTrainGraphCommand:
    def test_two_fold_smoke(self, tmp_path):
        write_dataset(tmp_path / "data", num_graphs=10)
        out = tmp_path / "run"
        code = main(["train-graph", "--tu", str(tmp_path / "data"), "TINY",
                     "--folds", "2", "--epochs", "2", "--channels", "8",
                     "--batch-size", "4", "--quiet", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dataset"] == "TINY"
        assert len(summary["folds"]) == 2
        assert summary["mean_acc"] == pytest.approx(
            np.mean([f["accuracy"] for f in summary["folds"]])
        )
        for k in range(2):
            assert (out / f"fold{k}_history.csv").exists()
            assert (out / f"fold{k}_checkpoint.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 5  # 2 histories, 2 checkpoints, summary

    def test_same_seed_gives_identical_artifacts(self, tmp_path):
        write_dataset(tmp_path / "data", num_graphs=10)
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train-graph", "--tu", str(tmp_path / "data"), "TINY",
                         "--folds", "2", "--epochs", "2", "--channels", "8",
                         "--batch-size", "4", "--seed", "5", "--quiet",
                         "--out", str(out)]) == 0
            runs.append(artifacts(out))
        assert set(runs[0]) == {"fold0_checkpoint.json", "fold0_history.csv",
                                "fold1_checkpoint.json", "fold1_history.csv",
                                "summary.json"}
        assert runs[0] == runs[1]

    def test_missing_dataset(self, tmp_path):
        code = main(["train-graph", "--tu", str(tmp_path / "nope"), "GONE",
                     "--quiet", "--out", str(tmp_path / "out")])
        assert code == 2


class TestGradcheckCommand:
    def test_layers_pass(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["gradcheck", "--cases", "layers", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in stdout
        report = json.loads((out / "gradcheck.json").read_text())
        assert all(entry["passed"] for entry in report)

    def test_corrupt_negative_control(self, capsys):
        code = main(["gradcheck", "--cases", "layers", "--corrupt"])
        stdout = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in stdout


class TestBenchCommand:
    def test_single_size(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--min-edges", "1000", "--max-edges", "1000",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "bench.csv").read_text().strip().splitlines()
        assert rows[0] == "edges,pool_time,peak_aux_memory"
        assert len(rows) == 2
        assert "edges=" in capsys.readouterr().out

    def test_size_order_validated(self, tmp_path):
        code = main(["bench", "--min-edges", "1e4", "--max-edges", "1e3",
                     "--out", str(tmp_path / "bench")])
        assert code == 2

    @pytest.mark.parametrize("edges", [1000, 200_000])
    def test_graph_equals_unique_reference(self, edges):
        # The generator as first written, with np.unique on the pair keys.
        rng = seeded_rng(0, "bench", edges)
        undirected = max(2, edges // 2)
        n = max(4, undirected // 3)
        u = rng.integers(0, n, size=int(undirected * 1.15))
        v = rng.integers(0, n, size=int(undirected * 1.15))
        keep = u != v
        key = np.unique(np.minimum(u[keep], v[keep]) * np.int64(n)
                        + np.maximum(u[keep], v[keep]))[:undirected]
        features = rng.normal(0.0, 1.0, size=(n, 8)).astype(np.float32)
        ref = symmetrize(build_graph(n, np.stack([key // n, key % n], axis=1), features))
        g = _bench_graph(edges, 0)
        assert g.num_nodes == ref.num_nodes
        assert np.array_equal(g.edges, ref.edges)
        assert np.array_equal(g.node_features, ref.node_features)


    @pytest.mark.parametrize("min_edges, max_edges, message", [
        ("0", "10", "at least 1"),
        ("-5", "10", "at least 1"),
        ("inf", "10", "finite number"),
        ("10", "1e400", "finite number"),
        ("nan", "10", "finite number"),
    ], ids=["min-zero", "min-negative", "min-inf", "max-overflow", "min-nan"])
    def test_bad_edge_counts_rejected(self, tmp_path, capsys, min_edges, max_edges, message):
        out = tmp_path / "bench"
        code = main(["bench", "--min-edges", min_edges, "--max-edges", max_edges,
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train-node", "--synthetic", "sbm", "--conv", "attention",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["pool", "--input", "g.json", "--random-seed", "7"],
        ["train-node", "--synthetic", "sbm", "--batch-size", "4"],
    ], ids=["pool-random-seed", "train-node-batch-size"])
    def test_removed_flags_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
