"""The public surface: what ``edgepool`` exports and what README documents."""

import ast
import dataclasses
import inspect
import re
import subprocess
import sys
from pathlib import Path

import edgepool
from edgepool.params import ParamStore

README = Path(__file__).resolve().parents[1] / "README.md"
CODELINES = Path(__file__).resolve().parent / "codelines.py"


def readme_surface_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    block = re.search(r"from edgepool import \((.*?)\)", section, re.S).group(1)
    names = []
    for line in block.splitlines():
        names += [n.strip() for n in line.split("#", 1)[0].split(",") if n.strip()]
    return names


def test_every_exported_name_resolves():
    missing = [name for name in edgepool.__all__ if not hasattr(edgepool, name)]
    assert missing == []
    assert len(set(edgepool.__all__)) == len(edgepool.__all__)


def test_readme_surface_is_exported():
    names = readme_surface_names()
    assert "edgepool_forward" in names and "edge_pool" in names
    assert [n for n in names if n not in edgepool.__all__] == []


def test_exports_are_the_readme_surface():
    names = readme_surface_names()
    assert len(names) == len(set(names)) == 32
    assert set(edgepool.__all__) - {"__version__"} == set(names)


def test_every_submodule_is_imported():
    # The benchmark looks the modules up in sys.modules after ``import edgepool``.
    for short in ("autodiff", "data", "fdcheck", "graph", "layers", "models",
                  "params", "pool", "rng", "unpool"):
        assert f"edgepool.{short}" in sys.modules


def test_one_merge_rule():
    assert "WeightedCombine" not in edgepool.__all__
    assert not hasattr(edgepool, "WeightedCombine")
    assert not hasattr(edgepool.pool, "WeightedCombine")


def test_train_config_holds_only_what_commands_set():
    # Each field is set by a training command's flag; the rest of the recipe
    # (halving period, dropout rates) is fixed, so no test-only knob returns.
    fields = [f.name for f in dataclasses.fields(edgepool.TrainConfig)]
    assert fields == ["epochs", "batch_size", "learning_rate", "channels", "seed"]


def test_models_hold_only_what_forward_reads():
    # Widths, class counts, pooling levels and the aggregation kind all live
    # in the parameters; a second copy on the model could disagree with them.
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (edgepool.GraphClassifier, edgepool.NodeClassifier)}
    assert fields == {"GraphClassifier": ["params"], "NodeClassifier": ["params"]}


def test_param_store_methods():
    # The library reads a store through these alone.
    methods = sorted(n for n, v in vars(ParamStore).items() if callable(v))
    assert methods == ["__init__", "add", "as_vars", "items"]


def test_nothing_settable_that_the_code_derives():
    # Train or eval is the models' to know (they pass rate 0 outside
    # training), a batch's graph count is read off graph_id, the pooled
    # node count and in-degrees are derived, and the JSON writer writes a
    # graph alone.
    from edgepool import graph, layers, pool

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(layers.feature_dropout) == ["x", "p", "rng"]
    assert params(layers.edge_pool) == ["x", "weight", "bias", "graph", "dropout_p", "seed"]
    assert params(layers.global_mean_pool) == ["x", "graph_id"]
    assert params(edgepool.GraphClassifier.forward) == [
        "self", "leaves", "graph", "graph_id", "training", "seed", "trace"]
    assert params(graph.graph_to_json) == ["graph"]
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (graph.BatchedGraph, pool.PoolInfo)}
    assert fields == {"BatchedGraph": ["graph", "graph_id"],
                      "PoolInfo": ["matching", "cluster_of", "node_score", "matched_edge_index"]}
    assert not hasattr(graph.Graph, "in_degrees")
    assert not hasattr(graph, "save_graph_file")


def test_edge_features_are_named_only_by_their_refusal():
    # A graph has no edge features: the JSON reader refuses the key, and no
    # other line of the library mentions them, so no branch for them returns.
    def mentions(text, first=1):
        return [first + i for i, line in enumerate(text.splitlines())
                if "edge_feature" in re.sub("[ -]", "_", line.lower())]

    src = Path(edgepool.__file__).parent
    found = {path.name: mentions(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    tree = ast.parse((src / "graph.py").read_text(encoding="utf-8"))
    home = next(fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "graph_from_json")
    refusal = [n for n in found["graph.py"] if home.lineno <= n <= home.end_lineno]
    assert refusal, "graph_from_json refuses no edge_features"
    assert {name: lines for name, lines in found.items() if lines} == {"graph.py": refusal}


def test_one_home_for_each_label_rule_and_no_test_generators():
    # The loss is the tape op alone, and graphs that only tests build live
    # with the tests.
    from edgepool import data, layers

    assert not hasattr(layers, "softmax_cross_entropy")
    assert "softmax_cross_entropy" not in layers.__all__
    for name in ("make_path", "make_cycle", "make_star"):
        assert not hasattr(data, name) and name not in data.__all__


def test_line_counter_prints_lines_and_code_lines():
    # tests/codelines.py is the count that each size claim quotes.
    out = subprocess.run([sys.executable, str(CODELINES)], capture_output=True, text=True,
                         check=True).stdout.split()
    assert len(out) == 2 and all(word.isdigit() for word in out), out
    lines, code = map(int, out)
    assert 0 < code < lines
