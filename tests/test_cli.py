"""Command-line interface: artifacts, exit codes, and determinism."""

import argparse
import copy
import json
import platform
import re
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from edgepool import (cli, edgepool_forward, fdcheck, gen_synthetic, layers, load_tu,
                      random_pool_params, save_tu)
from edgepool.cli import _bench_graph, main
from edgepool.data import make_connected_erdos_renyi, make_sbm
from edgepool.graph import (
    build_graph,
    graph_from_json,
    graph_to_json,
    load_graph_file,
    symmetrize,
)
from edgepool.models import CONV_KINDS
from edgepool.params import TrainConfig
from edgepool.rng import seeded_rng

import artifacts as digest_tool
from oracles import loop_load_tu


def write_graph(path, n=12, seed=0):
    rng = seeded_rng(seed, "cli-graph")
    g = make_connected_erdos_renyi(n, 0.3, rng, feature_width=3)
    path.write_text(json.dumps(graph_to_json(g)))
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


def exit_code(argv):
    """``main``'s exit code, also when the parser exits before a command runs."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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

    @pytest.mark.parametrize("graph", [
        {"num_nodes": 2, "edges": [[0, 1], [1, 0]], "node_features": [[1.0], [2.0]]},
        {"num_nodes": 0, "edges": [], "node_features": []},
    ], ids=["level-loses-every-edge", "no-nodes"])
    def test_every_written_level_reads_back(self, tmp_path, graph):
        # The first graph pools to one node with no edges, whose empty edge
        # list is written as []; the second has no nodes at all.
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(graph))
        out = tmp_path / "out"
        assert main(["pool", "--input", str(graph_path), "--levels", "2",
                     "--out", str(out)]) == 0
        for level in json.loads((out / "hierarchy.json").read_text()):
            assert sorted(level["graph"]) == ["edges", "node_features", "num_nodes"]
            assert graph_from_json(level["graph"]).num_edges == 0

    def test_three_levels_make_four_drawings(self, tmp_path):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path, n=30)
        out = tmp_path / "out"
        code = main(["pool", "--input", str(graph_path), "--levels", "3",
                     "--out", str(out)])
        assert code == 0
        for depth in range(4):
            assert (out / f"level{depth}.dot").exists()

    def test_hierarchy_levels_chain(self, tmp_path):
        # hierarchy.json holds what a loop of edgepool_forward does with the
        # same scorer, level by level, and no level grows.
        graph_path = tmp_path / "g.json"
        write_graph(graph_path, n=20, seed=16)
        graph, _, _ = load_graph_file(str(graph_path))
        params = random_pool_params(graph.feature_width, seed=16)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"weight": params.weight.tolist(),
                                           "bias": params.bias}))
        out = tmp_path / "out"
        assert main(["pool", "--input", str(graph_path), "--params", str(params_path),
                     "--levels", "3", "--out", str(out)]) == 0
        payload = json.loads((out / "hierarchy.json").read_text())
        assert len(payload) == 3
        sizes = [graph.num_nodes]
        for obj in payload:
            graph, info, _ = edgepool_forward(graph, params)
            sizes.append(graph.num_nodes)
            assert obj["cluster_of"] == info.cluster_of.tolist()
            assert obj["matching"] == info.matching.tolist()
            assert obj["node_score"] == info.node_score.tolist()
            assert obj["graph"]["num_nodes"] == graph.num_nodes
        for a, b in zip(sizes, sizes[1:]):
            assert b <= a

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

    @pytest.mark.parametrize("levels", ["1", "0"])
    def test_wrong_width_params_rejected(self, tmp_path, capsys, levels):
        # At --levels 0 nothing is scored, and the params file is still checked.
        self.assert_weight_length_rejected(tmp_path, capsys, levels, 4)

    @pytest.mark.parametrize("levels", ["1", "0"])
    def test_edge_width_params_rejected(self, tmp_path, capsys, levels):
        # A params file written for one edge feature (2f + 1) is not truncated.
        self.assert_weight_length_rejected(tmp_path, capsys, levels, 7)

    def assert_weight_length_rejected(self, tmp_path, capsys, levels, length):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)  # feature width 3 -> weight length 6
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"weight": [0.1] * length, "bias": 0.0}))
        code = main(["pool", "--input", str(graph_path), "--params", str(params_path),
                     "--levels", levels, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"length {length}" in err and "=6" in err

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

    def test_edge_features_refused(self, tmp_path, capsys):
        # A graph has no edge features, so the key is refused, not ignored.
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(
            {"num_nodes": 2, "edges": [[0, 1], [1, 0]], "node_features": [[1.0], [2.0]],
             "edge_features": [[0.5], [1.0]]}
        ))
        out = tmp_path / "out"
        code = main(["pool", "--input", str(graph_path), "--out", str(out)])
        assert code == 2
        assert "edge_features are not supported" in capsys.readouterr().err
        assert not out.exists()

    def test_null_edge_features_accepted(self, tmp_path):
        # null means absent, as README's example writes it.
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        graph_path.write_text(json.dumps(json.loads(graph_path.read_text())
                                         | {"edge_features": None}))
        out = tmp_path / "out"
        assert main(["pool", "--input", str(graph_path), "--levels", "1",
                     "--out", str(out)]) == 0
        assert (out / "hierarchy.json").exists()

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
        assert not out.exists()  # the params are read before the run starts
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
        code = exit_code(["pool", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_input_and_tu_together_rejected(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        write_graph(graph_path)
        write_dataset(tmp_path / "data", num_graphs=4)
        out = tmp_path / "out"
        code = exit_code(["pool", "--input", str(graph_path), "--tu", str(tmp_path / "data"),
                          "TINY", "--index", "2", "--out", str(out)])
        assert code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("second", ["0.25", "0.25, 2.0, 3.0"], ids=["narrow", "wide"])
    def test_ragged_attribute_line_names_its_line(self, tmp_path, capsys, second):
        # Two nodes whose attribute lines differ in width.
        data = tmp_path / "data"
        data.mkdir()
        for suffix, text in (("A", "1, 2\n2, 1\n"), ("graph_indicator", "1\n1\n"),
                             ("graph_labels", "0\n"), ("node_attributes", f"0.5, 1.0\n{second}\n")):
            (data / f"R_{suffix}.txt").write_text(text)
        code = main(["pool", "--tu", str(data), "R", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "R_node_attributes.txt:2:" in capsys.readouterr().err

    def test_graph_with_no_nodes_rejected_at_load(self, tmp_path, capsys):
        # Two labels but one graph in the indicator: graph 2 has no nodes.
        data = tmp_path / "data"
        data.mkdir()
        for suffix, text in (("A", "1, 2\n2, 1\n"), ("graph_indicator", "1\n1\n"),
                             ("graph_labels", "0\n1\n")):
            (data / f"E_{suffix}.txt").write_text(text)
        out = tmp_path / "out"
        code = main(["train-graph", "--quiet", "--tu", str(data), "E", "--folds", "2",
                     "--out", str(out)])
        assert code == 2
        assert "E_graph_indicator.txt: graph 2 has no nodes" in capsys.readouterr().err
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
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__, "scipy": scipy.__version__}

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
        assert exit_code(["train-node", "--quiet", "--out", str(tmp_path)]) == 2

    def test_input_and_synthetic_together_rejected(self, tmp_path, capsys):
        task_path = tmp_path / "task.json"
        write_task(task_path)
        out = tmp_path / "out"
        code = exit_code(["train-node", "--input", str(task_path), "--synthetic", "sbm",
                          "--quiet", "--out", str(out)])
        assert code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not out.exists()

    def test_task_with_edge_features_refused(self, tmp_path, capsys):
        # A graph has no edge features, so the key is refused, not ignored.
        task_path = tmp_path / "task.json"
        write_task(task_path)
        obj = json.loads(task_path.read_text())
        obj["edge_features"] = [[float(k % 3), 1.0] for k in range(len(obj["edges"]))]
        task_path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert main(["train-node", "--input", str(task_path), "--epochs", "1",
                     "--channels", "4", "--quiet", "--out", str(out)]) == 2
        assert "edge_features are not supported" in capsys.readouterr().err
        assert not out.exists()

    def test_task_with_null_edge_features_trains_as_without(self, tmp_path):
        # null means absent: the same task file trains to the same checkpoint.
        checkpoints = []
        for k, extra in enumerate([{}, {"edge_features": None}]):
            task_path = tmp_path / f"task{k}.json"
            write_task(task_path)
            task_path.write_text(json.dumps(json.loads(task_path.read_text()) | extra))
            out = tmp_path / f"out{k}"
            assert main(["train-node", "--input", str(task_path), "--epochs", "1",
                         "--channels", "4", "--quiet", "--out", str(out)]) == 0
            checkpoints.append((out / "checkpoint.json").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    @pytest.mark.parametrize("field, value, message", [
        ("train_nodes", [0, 999], "not an index"),
        ("train_nodes", [-1, 0], "not an index"),
        ("train_nodes", [0.5, 1], "not a node index"),
        ("node_labels", [0] * 10, "one entry per node"),
        ("test_nodes", [], "is empty"),
        ("train_nodes", [], "is empty"),
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

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_too_few_folds_rejected(self, tmp_path, capsys, folds):
        write_dataset(tmp_path / "data", num_graphs=10)
        out = tmp_path / "run"
        code = main(["train-graph", "--tu", str(tmp_path / "data"), "TINY",
                     "--folds", folds, "--quiet", "--out", str(out)])
        assert code == 2
        assert f"--folds must be at least 2, got {folds}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_a_nan_error_is_written_as_null(self, tmp_path, monkeypatch, capsys):
        # A NaN unpool adjoint gives NaN errors; the report stays strict JSON.
        def nan_adjoint_unpool(*args):
            out = layers.unpool(*args)
            vjp = out.vjp
            out.vjp = lambda dy: (lambda g: (g[0] * np.nan, g[1]))(vjp(dy))
            return out

        monkeypatch.setattr(fdcheck, "unpool", nan_adjoint_unpool)
        out = tmp_path / "report"
        assert main(["gradcheck", "--cases", "unpool", "--out", str(out)]) == 1
        assert "FAIL unpool_adjoint: max_rel_err=nan max_abs_err=nan" in capsys.readouterr().out

        def refuse(token):
            raise AssertionError(f"non-standard JSON token {token}")

        report = json.loads((out / "gradcheck.json").read_text(), parse_constant=refuse)
        [adjoint] = [entry for entry in report if entry["name"] == "unpool_adjoint"]
        assert not adjoint["passed"]
        assert adjoint["max_abs_err"] is None and adjoint["max_rel_err"] is None


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
        ("2.5", "10", "--min-edges must be a whole finite number"),
        ("10", "30.9", "--max-edges must be a whole finite number"),
        ("\u0661\u0660", "100", "--min-edges must be a whole finite number"),
        ("10", "1_000", "--max-edges must be a whole finite number"),
    ], ids=["min-zero", "min-negative", "min-inf", "max-overflow", "min-nan", "min-fractional",
            "max-fractional", "min-arabic-indic", "max-underscore"])
    def test_bad_edge_counts_rejected(self, tmp_path, capsys, min_edges, max_edges, message):
        out = tmp_path / "bench"
        code = main(["bench", "--min-edges", min_edges, "--max-edges", max_edges,
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# Valid files for the JSON fuzz test: a graph with both label keys for
# `pool`, a task for `train-node`, and scorer params for the graph.
FUZZ_BASES = {
    "graph": {"num_nodes": 4, "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2]],
              "node_features": [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 1.0]],
              "label": 1, "node_labels": [0, 0, 1, 1]},
    "task": {"num_nodes": 4, "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2]],
             "node_features": [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 1.0]],
             "node_labels": [0, 0, 1, 1], "train_nodes": [0, 2], "test_nodes": [1, 3]},
    "params": {"weight": [0.5, -0.5, 0.25, -0.25], "bias": 0.0},
}
LITERAL_1E400 = "<1e400>"  # written as the bare JSON number 1e400, which reads as inf
FUZZ_VALUES = [None, True, False, "1", {}, {"a": 1}, [], [1], 2**70, LITERAL_1E400, 0.5, -2.5]


class TestManifestOutputs:
    # manifest.json lists every file a run wrote, once, and nothing else.
    @pytest.mark.parametrize("argv", [
        ["pool", "--input", "{graph}", "--levels", "0"],
        ["pool", "--input", "{graph}", "--levels", "2"],
        ["train-graph", "--tu", "{data}", "TINY", "--folds", "2", "--epochs", "1",
         "--channels", "8", "--quiet"],
        ["train-node", "--input", "{task}", "--epochs", "1", "--channels", "8", "--quiet"],
        ["gradcheck"],
        ["bench", "--min-edges", "1e3", "--max-edges", "1e3"],
    ], ids=["pool-0", "pool-2", "train-graph", "train-node", "gradcheck", "bench"])
    def test_outputs_are_the_files_written(self, tmp_path, argv):
        inputs = {"graph": tmp_path / "g.json", "task": tmp_path / "task.json",
                  "data": tmp_path / "data"}
        write_graph(inputs["graph"])
        write_task(inputs["task"])
        write_dataset(inputs["data"])
        out = tmp_path / "out"
        assert main([a.format(**inputs) for a in argv] + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = [Path(path).name for path in manifest["outputs"]]
        assert len(listed) == len(set(listed))
        assert set(listed) == {p.name for p in out.iterdir()} - {"manifest.json"}

    # Each is refused by the training config or the fold split, which the
    # commands build after their manifest starts.
    @pytest.mark.parametrize("argv", [
        ["train-graph", "--tu", "{data}", "TINY", "--epochs", "0"],
        ["train-graph", "--tu", "{data}", "TINY", "--lr", "0"],
        ["train-graph", "--tu", "{data}", "TINY", "--batch-size", "0"],
        ["train-graph", "--tu", "{data}", "TINY", "--folds", "50"],
        ["train-node", "--synthetic", "sbm", "--channels", "0"],
    ], ids=["epochs-0", "lr-0", "batch-size-0", "folds-50", "channels-0"])
    def test_a_refused_run_makes_no_out(self, tmp_path, capsys, argv):
        write_dataset(tmp_path / "data", num_graphs=12)
        out = tmp_path / "out"
        argv = [a.format(data=tmp_path / "data") for a in argv]
        assert main(argv + ["--quiet", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_digest_tool_covers_every_listed_output(self, tmp_path):
        # tests/artifacts.py shows two trees write the same bytes: it digests
        # every file each manifest lists, and each manifest, timings aside.
        digest_tool.run_set(digest_tool.SRC, tmp_path)
        digested = digest_tool.digests(tmp_path)
        manifests = sorted(tmp_path.rglob("manifest.json"))
        assert len(manifests) == len(digest_tool.RUNS)
        for path in manifests:
            listed = json.loads(path.read_text())["outputs"] + [str(path)]
            for out in listed:
                rel = Path(out).relative_to(tmp_path).as_posix()
                assert rel in digested or rel in digest_tool.TIMED, rel
            assert str(tmp_path) not in digest_tool._normalized_manifest(path, tmp_path).decode()

    def test_digest_tool_diff_names_changed_and_one_sided_files(self):
        parent = {"a/same": "1", "a/moved": "2", "b/gone": "3"}
        change = {"a/same": "1", "a/moved": "4", "c/new": "5"}
        assert digest_tool.differing(parent, change) == ["a/moved", "b/gone", "c/new"]
        assert digest_tool.differing(parent, dict(parent)) == []

    def test_digest_tool_exits_1_when_two_trees_differ(self, monkeypatch, capsys):
        trees = {"same": {"a/x": "1"}, "twin": {"a/x": "1"}, "other": {"a/x": "2"}}
        monkeypatch.setattr(digest_tool, "tree_digests", lambda src: trees[src.name])
        assert digest_tool.main(["same", "twin"]) == 0
        assert capsys.readouterr().out == ""
        assert digest_tool.main(["same", "other"]) == 1
        assert capsys.readouterr().out == "a/x\n"
        assert digest_tool.main(["other"]) == 0


@st.composite
def odd_json_files(draw):
    """(file kind, JSON text): one key of a valid file, or its top level, set to
    an odd value, put in one entry of a list, or made into a ragged row. A
    graph or task may instead gain an ``edge_features`` key of an odd value."""
    kind = draw(st.sampled_from(sorted(FUZZ_BASES)))
    obj = copy.deepcopy(FUZZ_BASES[kind])
    key = draw(st.sampled_from([None, *obj] + ["edge_features"] * (kind != "params")))
    odd = draw(st.sampled_from(FUZZ_VALUES))
    how = draw(st.sampled_from(["whole", "entry", "ragged"]))
    if key is None:
        obj = odd
    elif how == "whole" or not isinstance(obj.get(key), list) or not obj[key]:
        obj[key] = odd
    else:
        rows = obj[key]
        i = draw(st.integers(0, len(rows) - 1))
        if how == "ragged":
            rows[i] = rows[i] + [0] if isinstance(rows[i], list) else [rows[i]]
        elif isinstance(rows[i], list):
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = odd
        else:
            rows[i] = odd
    return kind, json.dumps(obj).replace(json.dumps(LITERAL_1E400), "1e400")


def same_numbers(parsed, value) -> bool:
    """Whether a JSON value holds only numbers (no booleans) equal to ``parsed``'s."""
    if isinstance(value, list):
        return (isinstance(parsed, list) and len(parsed) == len(value)
                and all(map(same_numbers, parsed, value)))
    return type(value) in (int, float) and parsed == value


def assert_read_exactly(got, obj, key):
    """``got`` is None where ``obj[key]`` is null or absent, else holds exactly its numbers."""
    if obj.get(key) is None:
        assert got is None
    else:
        value = sorted(obj[key]) if key == "edges" else obj[key]  # edges come back canonical
        assert same_numbers(np.asarray(got).tolist(), value)


def recording(calls, name, fn):
    """``fn``, recording its last call's arguments and result under ``name``."""
    def record(*args, **kwargs):
        calls[name] = args, fn(*args, **kwargs)
        return calls[name][1]
    return record


class TestJsonFuzz:
    # Every number the CLI reads from a graph, task or params file passes
    # one rule: a run exits 0 having read exactly the file's values, or 2
    # with a message, and never raises. A graph's non-null edge_features
    # always exit 2: a graph has none.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=odd_json_files())
    def test_odd_values_exit_0_with_exact_values_or_2(self, tmp_path_factory, case):
        kind, text = case
        tmp = tmp_path_factory.mktemp("fuzz")
        path = tmp / f"{kind}.json"
        path.write_text(text)
        graph_path = tmp / "base_graph.json"
        graph_path.write_text(json.dumps(FUZZ_BASES["graph"]))
        runs = {
            "graph": [["pool", "--input", str(path)]],
            "task": [["pool", "--input", str(path)],
                     ["train-node", "--input", str(path), "--epochs", "1", "--channels", "2",
                      "--quiet"]],
            "params": [["pool", "--input", str(graph_path), "--params", str(path)]],
        }[kind]
        for argv in runs:
            calls = {}
            with pytest.MonkeyPatch.context() as mp:
                for name in ("load_graph_file", "edge_pool", "train_node_model"):
                    mp.setattr(cli, name, recording(calls, name, getattr(cli, name)))
                code = main([*argv, "--out", str(tmp / "out")])
            assert code in (0, 2)
            obj = json.loads(text)
            if kind != "params" and isinstance(obj, dict):
                assert code == 2 or obj.get("edge_features") is None
            if code != 0:
                continue
            if kind == "params":
                (_, weight, bias, _), _ = calls["edge_pool"]
                assert_read_exactly(weight.data, obj, "weight")
                assert_read_exactly(bias.data, obj, "bias")
                continue
            if argv[0] == "pool":
                _, (graph, label, node_labels) = calls["load_graph_file"]
                assert_read_exactly(label, obj, "label")
                assert_read_exactly(node_labels, obj, "node_labels")
            else:
                (task, _), _ = calls["train_node_model"]
                graph = task.graph
            for key in ("num_nodes", "edges", "node_features"):
                assert_read_exactly(getattr(graph, key), obj, key)


TU_FUZZ_BASE = {
    "A": ["1, 2", "2, 1", "2, 3", "3, 2", "4, 5", "5, 4"],
    "graph_indicator": ["1", "1", "1", "2", "2"],
    "graph_labels": ["6", "3"],
    "node_labels": ["0", "1", "1", "0", "2"],
    "node_attributes": ["0.5, 1.0", "0.25, 2.0", "0.125, 3.0", "2.5, 4.0", "1.5, 5.0"],
}
TU_FUZZ_TOKENS = ["\u0661", "\uff11\uff12", "\u0663.\u0665", "1_0", "0x1", "\u00b2", "1 2", "",
                  "nan", "inf", "-inf", "1e400", "1e39", "2**3", "e5", ".", "2.5", "1.", ".5",
                  "1e-50", "5E-1", "+1", "-0", " 3 ", "007", "-1", "0", "2", "4",
                  "9223372036854775808"]
TU_INTEGER = re.compile(r"[+-]?[0-9]+")
TU_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


@st.composite
def odd_tu_files(draw):
    """The lines of each TU file, with one entry of one line set to an odd token."""
    files = copy.deepcopy(TU_FUZZ_BASE)
    suffix = draw(st.sampled_from(sorted(files)))
    lines = files[suffix]
    i = draw(st.integers(0, len(lines) - 1))
    entries = lines[i].split(",")
    entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(TU_FUZZ_TOKENS))
    lines[i] = ",".join(entries)
    return files


def canonical_tu(files):
    """Each entry rewritten as the number it spells under the ASCII rule, or None
    when some entry breaks the rule."""
    out = {}
    for suffix, lines in files.items():
        pattern, spell = ((TU_DECIMAL, lambda t: repr(float(t))) if suffix == "node_attributes"
                          else (TU_INTEGER, lambda t: str(int(t))))
        out[suffix] = []
        for line in lines:
            entries = [t.strip() for t in line.split(",")]
            if not all(pattern.fullmatch(t) for t in entries):
                return None
            out[suffix].append(", ".join(map(spell, entries)))
    return out


def write_tu(directory, files):
    directory.mkdir()
    for suffix, lines in files.items():
        (directory / f"F_{suffix}.txt").write_text("\n".join(lines) + "\n")


def same_dataset(a, b) -> bool:
    return (a.labels.tolist() == b.labels.tolist() and len(a.graphs) == len(b.graphs)
            and all(g.edges.tobytes() == h.edges.tobytes()
                    and g.node_features.dtype == h.node_features.dtype
                    and g.node_features.tobytes() == h.node_features.tobytes()
                    for g, h in zip(a.graphs, b.graphs)))


class TestTuFuzz:
    # Every number in a TU text file passes one ASCII rule: a run exits 0
    # having read exactly the numbers the entries spell, or 2 with a message,
    # and never raises.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(files=odd_tu_files())
    def test_odd_entries_exit_0_with_exact_values_or_2(self, tmp_path_factory, files):
        tmp = tmp_path_factory.mktemp("tufuzz")
        write_tu(tmp / "odd", files)
        calls = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "load_tu", recording(calls, "load_tu", load_tu))
            code = main(["pool", "--tu", str(tmp / "odd"), "F", "--out", str(tmp / "out")])
        assert code in (0, 2)
        canonical = canonical_tu(files)
        if canonical is None:
            assert code == 2
        if code != 0:
            return
        write_tu(tmp / "canonical", canonical)
        _, dataset = calls["load_tu"]
        assert same_dataset(dataset, load_tu(tmp / "canonical", "F"))


TU_LINE_EDITS = ["drop", "repeat", "move", "insert", "widen", "narrow", "truncate", "remove"]
TU_ODD_LINES = ["", "   ", ",", "1,", "1,,2", "1 2", "\u0661, 2", "6", "1, 2, 3", "0.5, 0.5, 0.5"]


@st.composite
def tu_files_with_odd_lines(draw):
    """The lines of each TU file after one or two line edits: a line dropped,
    repeated, moved, preceded by an odd line, given an extra entry or cut to
    its first; a file cut short; or a file removed."""
    files = copy.deepcopy(TU_FUZZ_BASE)
    for _ in range(draw(st.integers(1, 2))):
        suffix = draw(st.sampled_from(sorted(files)))
        lines = files[suffix]
        edit = draw(st.sampled_from(TU_LINE_EDITS))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "remove":
            del files[suffix]
        elif edit == "insert":
            lines.insert(i, draw(st.sampled_from(TU_ODD_LINES)))
        elif edit == "truncate":
            del lines[i:]
        elif not lines:
            continue
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif edit == "widen":
            lines[i] += ", " + draw(st.sampled_from(TU_FUZZ_TOKENS))
        else:
            lines[i] = lines[i].split(",")[0]
    return files


class TestTuLineFuzz:
    # Whole lines of each TU file dropped, repeated, moved, added, widened,
    # narrowed or cut off, or a file removed: load_tu reads exactly what the
    # loop oracle reads from the same files, or refuses them as it does or
    # for a graph with no nodes (which the oracle loads), and a run exits 0
    # or 2 and never raises.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(files=tu_files_with_odd_lines())
    def test_odd_lines_read_as_the_oracle_reads_them_or_exit_2(self, tmp_path_factory, files):
        tmp = tmp_path_factory.mktemp("tulines")
        write_tu(tmp / "odd", files)
        try:
            want = loop_load_tu(tmp / "odd", "F")
        except (OSError, ValueError):
            want = None
        if want is not None and any(g.num_nodes == 0 for g in want.graphs):
            want = None
        calls = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "load_tu", recording(calls, "load_tu", load_tu))
            code = main(["pool", "--tu", str(tmp / "odd"), "F", "--out", str(tmp / "out")])
        assert code in (0, 2)
        if want is None:
            assert code == 2 and "load_tu" not in calls
        else:
            _, dataset = calls["load_tu"]
            assert same_dataset(dataset, want)


# Every flag that takes a number. Each command takes --out, and the three that
# read an input take one source (SOURCE_ARGV).
NUMBER_FLAGS = [("pool", "--index"), ("pool", "--levels"), ("pool", "--seed"),
                *[("train-graph", f) for f in ("--seed", "--epochs", "--channels", "--lr",
                                               "--folds", "--batch-size")],
                *[("train-node", f) for f in ("--seed", "--epochs", "--channels", "--lr")],
                ("gradcheck", "--seed"), ("bench", "--seed")]


SOURCE_ARGV = {"pool": ["--input", "g.json"], "train-graph": ["--tu", "data", "T"],
               "train-node": ["--synthetic", "sbm"]}


def number_argv(command, out, option, text):
    return [command, *SOURCE_ARGV.get(command, []), "--out", str(out), option, text]


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

    @pytest.mark.parametrize("lr, message", [
        ("nan", "invalid decimal value: 'nan'"),
        ("inf", "invalid decimal value: 'inf'"),
        ("1e999", "must be positive and finite"),
        ("0", "must be positive and finite"),
    ], ids=["nan", "inf", "overflow", "0"])
    def test_learning_rate_must_be_positive_and_finite(self, tmp_path, lr, message, capsys):
        # Without pooling no score check stops a NaN rate: only the parser
        # (nan and inf are no decimal numbers) and the config (a decimal that
        # overflows to inf, or 0) keep training from finishing with a
        # checkpoint of NaNs.
        code = exit_code(["train-node", "--synthetic", "sbm", "--pooling", "none",
                          "--epochs", "1", "--lr", lr, "--quiet", "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.json").exists()

    @pytest.mark.parametrize("flag", NUMBER_FLAGS, ids=" ".join)
    @pytest.mark.parametrize("text", ["\u0661", "1_0"], ids=["arabic-indic", "underscore"])
    def test_number_flags_take_ascii_digits_only(self, tmp_path, capsys, flag, text):
        # The rule of the TU files: float() and int() would read both as numbers.
        command, option = flag
        out = tmp_path / "out"
        assert exit_code(number_argv(command, out, option, text)) == 2
        assert f"argument {option}: invalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", NUMBER_FLAGS, ids=" ".join)
    def test_number_flags_parse_valid_spellings_as_before(self, tmp_path, flag):
        command, option = flag
        texts = ["+5", " 7", "-0"] if option != "--lr" else ["1e3", "+5", "0.001", ".5", "2."]
        convert = float if option == "--lr" else int
        for text in texts:
            args = cli._build_parser().parse_args(number_argv(command, tmp_path, option, text))
            got = getattr(args, option[2:].replace("-", "_"))
            assert type(got) is convert and got == convert(text)

    @pytest.mark.parametrize("text, count", [("1e3", 1000), ("+5", 5), ("1000", 1000),
                                             ("2.5e1", 25)])
    def test_edge_counts_parse_valid_spellings_as_before(self, text, count):
        assert cli._edge_count(text, "--min-edges") == count

    @pytest.mark.parametrize("argv", [
        ["pool", "--input", "g.json", "--random-seed", "7"],
        ["train-node", "--synthetic", "sbm", "--batch-size", "4"],
    ], ids=["pool-random-seed", "train-node-batch-size"])
    def test_removed_flags_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2


# Each subcommand's flags as (option strings, default, choices, required,
# type, nargs), keyed by dest. Declaring the training flags once must change
# none of them.
PARSER_FLAGS = {
    "pool": {
        "input": (["--input"], None, None, False, None, None),
        "tu": (["--tu"], None, None, False, None, 2),
        "index": (["--index"], 0, None, False, "integer", None),
        "levels": (["--levels"], 1, None, False, "integer", None),
        "params": (["--params"], None, None, False, None, None),
        "seed": (["--seed"], 0, None, False, "integer", None),
        "out": (["--out"], None, None, True, None, None),
    },
    "train-graph": {
        "tu": (["--tu"], None, None, True, None, 2),
        "pooling": (["--pooling"], "edgepool", ["none", "edgepool"], False, None, None),
        "folds": (["--folds"], 10, None, False, "integer", None),
        "seed": (["--seed"], 0, None, False, "integer", None),
        "epochs": (["--epochs"], 200, None, False, "integer", None),
        "channels": (["--channels"], 64, None, False, "integer", None),
        "batch_size": (["--batch-size"], 128, None, False, "integer", None),
        "lr": (["--lr"], 0.001, None, False, "decimal", None),
        "quiet": (["--quiet"], False, None, False, None, 0),
        "out": (["--out"], None, None, True, None, None),
    },
    "train-node": {
        "input": (["--input"], None, None, False, None, None),
        "synthetic": (["--synthetic"], None, ["sbm"], False, None, None),
        "pooling": (["--pooling"], "edgepool", ["none", "edgepool"], False, None, None),
        "conv": (["--conv"], "mean", ["mean", "mlp"], False, None, None),
        "seed": (["--seed"], 0, None, False, "integer", None),
        "epochs": (["--epochs"], 200, None, False, "integer", None),
        "channels": (["--channels"], 64, None, False, "integer", None),
        "lr": (["--lr"], 0.001, None, False, "decimal", None),
        "quiet": (["--quiet"], False, None, False, None, 0),
        "out": (["--out"], None, None, True, None, None),
    },
    "gradcheck": {
        "seed": (["--seed"], 0, None, False, "integer", None),
        "cases": (["--cases"], "all", ["all", "edgepool", "layers", "unpool"], False, None, None),
        "corrupt": (["--corrupt"], False, None, False, None, 0),
        "out": (["--out"], None, None, False, None, None),
    },
    "bench": {
        "min_edges": (["--min-edges"], "1e3", None, False, None, None),
        "max_edges": (["--max-edges"], "1e6", None, False, None, None),
        "seed": (["--seed"], 0, None, False, "integer", None),
        "out": (["--out"], "bench_out", None, False, None, None),
    },
}


def parser_flags():
    """``PARSER_FLAGS`` as the parser builds it."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {
            a.dest: (list(a.option_strings), a.default,
                     None if a.choices is None else list(a.choices), a.required,
                     None if a.type is None else a.type.__name__, a.nargs)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        }
        for command, p in sub.choices.items()
    }


class TestParser:
    def test_every_flag_is_pinned(self):
        got = parser_flags()
        assert list(got) == list(PARSER_FLAGS)
        for command, flags in PARSER_FLAGS.items():
            assert got[command] == flags, command

    def test_training_defaults_come_from_the_library(self):
        flags = parser_flags()
        for command in ("train-graph", "train-node"):
            for dest, field in (("seed", "seed"), ("epochs", "epochs"),
                                ("channels", "channels"), ("lr", "learning_rate")):
                assert flags[command][dest][1] == getattr(TrainConfig(), field)
        assert flags["train-graph"]["batch_size"][1] == TrainConfig().batch_size
        assert flags["train-node"]["conv"][2] == list(CONV_KINDS)
