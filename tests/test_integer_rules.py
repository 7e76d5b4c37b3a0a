"""The integer rules at their boundaries, and the guard that keeps them in one home.

``graph._codes`` is the one rule for integer codes (endpoints, matched
pairs, graph ids, gathered rows, split indices and labels) and
``graph._count`` the one rule for counts and seeds. ``_CASES`` is their
boundary table, one row per (public callable, integer argument), in the
style of fdcheck's case table: each bad value raises ValueError whose
message starts with the argument's name, and the row's good value gives
the same result as np.int64, np.int32 and np.uint8.
"""

import argparse
import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from edgepool import (
    NodeClassifier,
    TrainConfig,
    Var,
    build_graph,
    edge_pool,
    edgepool_forward,
    gen_synthetic,
    kfold_splits,
    node_split,
    random_pool_params,
    run_gradcheck,
    symmetrize,
    train_graph_model,
    train_node_model,
)
from edgepool import GraphClassifier, cli
from edgepool.graph import to_dot
from edgepool.layers import cross_entropy, gather_rows, global_mean_pool
from edgepool.models import evaluate_graph_model, evaluate_node_model
from edgepool.params import ParamStore, adam_step
from edgepool.pool import EdgeScores, contract
from edgepool.rng import seeded_rng

SRC = Path(__file__).resolve().parents[1] / "src" / "edgepool"
RULES = {"_codes", "_count", "_split"}  # _split passes its indices to _codes

CONFIG = TrainConfig(epochs=1, batch_size=4, channels=4, seed=0)
DATASET = gen_synthetic("path_proteinlike", {"num_graphs": 6, "min_nodes": 5, "max_nodes": 8})
SMALL_SBM = {"nodes_per_block": 20, "per_class_train": 4, "per_class_test": 6}
TASK = gen_synthetic("sbm_node_task", SMALL_SBM)
NODE_MODEL = NodeClassifier.create(TASK.graph.feature_width, TASK.num_classes, channels=4)
GRAPH_MODEL = GraphClassifier.create(DATASET.graphs[0].feature_width, DATASET.num_classes,
                                     channels=4)
PATH4 = symmetrize(build_graph(4, [(0, 1), (1, 2), (2, 3)], np.arange(8.0).reshape(4, 2)))
PATH4_SCORES = EdgeScores(normalized=np.ones(PATH4.num_edges),
                          dropped=np.zeros(PATH4.num_edges, dtype=bool))
PATH4_PARAMS = random_pool_params(PATH4.feature_width, seed=1)
ROWS3 = np.arange(6.0).reshape(3, 2)


def _adam_store(lr, t):
    """A three-entry parameter after one Adam step at ``lr`` and step count ``t``."""
    store = ParamStore()
    store.add("w", np.zeros(3))
    leaves = store.as_vars()
    leaves["w"].grad = np.array([2.0, -2.0, 0.5])
    adam_step(store, leaves, lr, t)
    return store


def _labels(ds, labels):
    return dataclasses.replace(ds, labels=np.asarray(labels))


def _node_labels(task, labels):
    return dataclasses.replace(task, node_labels=np.asarray(labels))


def _with(labels, at, value):
    out = np.array(labels)
    out[at] = value
    return out


# Integer codes: a float, a boolean, a negative and a past-the-bound array.
def _code_cases(good, bound, at=0):
    good = np.asarray(good)
    return {"float": good.astype(np.float64), "bool": good.astype(bool),
            "negative": _with(good, at, -1), "past-bound": _with(good, at, bound)}


def _count_cases(minimum=0):
    return {"float": 2.5, "bool": True, "negative": minimum - 1}


SEED_CASES = {"float": 3.7, "bool": True}

# "module.callable:argument" -> (call(value), good value or None, {case: bad value}).
# A row's message starts with the argument's name, a key or flag for the
# parameters of gen_synthetic, TrainConfig and the CLI.
_CASES = {
    "graph.build_graph:edge_list": (
        lambda e: build_graph(4, e, np.ones((4, 1))), [[0, 1], [1, 2], [2, 3]],
        _code_cases([[0, 1], [1, 2], [2, 3]], 4) | {
            "probe-mixed-list": [(0, 1.5), (True, 2)], "flat": [0, 1, 2, 3]}),
    "graph.build_graph:num_nodes": (
        lambda n: build_graph(n, [], np.ones((2, 1))), 2,
        _count_cases() | {"past-bound": 2**32}),
    # Cluster ordinals are codes with no upper bound: the palette wraps.
    "graph.to_dot:cluster_colors": (
        lambda c: to_dot(PATH4, c), [0, 1, 12, 3],
        {"float": [0.0, 1.0, 12.0, 3.0], "bool": [True, True, False, True],
         "negative": [0, 1, -1, 3], "probe": [1.7, 0.2, -1, 2.5], "probe-short": [0, 1]}),
    "pool.contract:matching": (
        lambda m: contract(PATH4, m, PATH4_SCORES), [[0, 1], [2, 3]],
        _code_cases([[0, 1], [2, 3]], 4, at=(1, 1)) | {
            "probe-float-pair": [(0.5, 1)], "probe-flat": [0, 1, 2, 3]}),
    "layers.gather_rows:index": (
        lambda i: gather_rows(Var(ROWS3), i), [2, 0, 2], _code_cases([2, 0, 2], 3)),
    "layers.global_mean_pool:graph_id": (
        lambda g: global_mean_pool(Var(ROWS3), g), [0, 0, 1],
        _code_cases([0, 0, 1], 2, at=2) | {
            "past-bound": np.asarray([0, 2**63, 1], dtype=np.uint64)}),
    "layers.cross_entropy:labels": (
        lambda y: cross_entropy(Var(ROWS3), y), [0, 1, 1], _code_cases([0, 1, 1], 2)),
    "models.train_graph_model:train_idx": (
        lambda i: train_graph_model(DATASET, i, [4, 5], CONFIG), [0, 1, 2, 3],
        _code_cases([0, 1, 2, 3], 6)),
    "models.train_graph_model:eval_idx": (
        lambda i: train_graph_model(DATASET, [0, 1, 2, 3], i, CONFIG), [4, 5],
        _code_cases([4, 5], 6)),
    "models.train_graph_model:labels": (
        lambda y: train_graph_model(_labels(DATASET, y), [0, 1, 2, 3], [4, 5], CONFIG),
        DATASET.labels, _code_cases(DATASET.labels, 2, at=5)),
    "models.evaluate_graph_model:indices": (
        lambda i: evaluate_graph_model(GRAPH_MODEL, DATASET, i, CONFIG), [5, 0, 3],
        _code_cases([5, 0, 3], 6)),
    "models.evaluate_graph_model:labels": (
        lambda y: evaluate_graph_model(GRAPH_MODEL, _labels(DATASET, y), [4, 5], CONFIG),
        DATASET.labels, _code_cases(DATASET.labels, 2, at=5)),
    "models.train_node_model:node_labels": (
        lambda y: train_node_model(_node_labels(TASK, y), CONFIG), TASK.node_labels,
        _code_cases(TASK.node_labels, 2, at=7)),
    "models.evaluate_node_model:node_labels": (
        lambda y: evaluate_node_model(NODE_MODEL, _node_labels(TASK, y), CONFIG),
        TASK.node_labels, _code_cases(TASK.node_labels, 2, at=7)),
    # Raw labels take any integer, so only the dtype and shape are refused.
    "data.node_split:node_labels": (
        lambda y: node_split(TASK.graph, y, 4, 6), TASK.node_labels,
        {"float": TASK.node_labels + 0.7, "bool": TASK.node_labels > 0,
         "short": TASK.node_labels[:-1]}),
    "data.node_split:per_class_train": (
        lambda c: node_split(TASK.graph, TASK.node_labels, c, 1), 4,
        _count_cases() | {"probe": 1.5}),
    "data.node_split:per_class_test": (
        lambda c: node_split(TASK.graph, TASK.node_labels, 4, c), 6, _count_cases()),
    "data.kfold_splits:n": (lambda n: kfold_splits(n, 3), 10, _count_cases()),
    "data.kfold_splits:k": (
        lambda k: kfold_splits(10, k), 3,
        _count_cases() | {"probe": 2.5, "one": 1, "past-bound": 11}),
    # Every size of a synthetic set is at least 1, and max_nodes at least min_nodes.
    "data.gen_synthetic:num_graphs": (
        lambda n: gen_synthetic("path_proteinlike", {"num_graphs": n}), 3,
        _count_cases(1) | {"probe": 2.7}),
    "data.gen_synthetic:max_nodes": (
        lambda n: gen_synthetic("path_proteinlike", {"num_graphs": 3, "min_nodes": 5,
                                                     "max_nodes": n}), 8,
        _count_cases(1) | {"probe-below-min_nodes": 3}),
    "data.gen_synthetic:blocks": (
        lambda b: gen_synthetic("sbm_node_task", SMALL_SBM | {"blocks": b}), 2,
        _count_cases(1)),
    "params.TrainConfig:epochs": (
        lambda v: TrainConfig(epochs=v), 3, _count_cases(1) | {"probe": 2.5}),
    "params.TrainConfig:batch_size": (lambda v: TrainConfig(batch_size=v), 3, _count_cases(1)),
    "params.TrainConfig:channels": (
        lambda v: TrainConfig(channels=v), 3, _count_cases(1) | {"probe": 1.5}),
    "params.TrainConfig:seed": (
        lambda s: TrainConfig(seed=s), 3, SEED_CASES | {"probe": 2.5}),
    "rng.seeded_rng:seed": (
        lambda s: seeded_rng(s, "label").random(3), 3, SEED_CASES | {"probe": 2.5}),
    "pool.edgepool_forward:seed": (
        lambda s: edgepool_forward(PATH4, PATH4_PARAMS, training=True, dropout_p=0.5, seed=s),
        3, SEED_CASES),
    "layers.edge_pool:seed": (
        lambda s: edge_pool(Var(PATH4.node_features), Var(PATH4_PARAMS.weight),
                            Var(np.asarray(PATH4_PARAMS.bias)), PATH4, dropout_p=0.5, seed=s),
        3, SEED_CASES),
    # Widths are at least 0 (a JSON graph may have zero-width features), class
    # counts and channels at least 1.
    "pool.random_pool_params:feature_width": (
        lambda w: random_pool_params(w), 3, _count_cases() | {"probe": 2.5}),
    "models.GraphClassifier:feature_width": (
        lambda w: GraphClassifier.create(w, 2, channels=4), 3, _count_cases() | {"probe": 3.5}),
    "models.GraphClassifier:num_classes": (
        lambda c: GraphClassifier.create(3, c, channels=4), 2, _count_cases(1) | {"probe": 2.0}),
    "models.GraphClassifier:channels": (
        lambda c: GraphClassifier.create(3, 2, channels=c), 4, _count_cases(1)),
    "models.NodeClassifier:feature_width": (
        lambda w: NodeClassifier.create(w, 2, channels=4), 3, _count_cases()),
    "models.NodeClassifier:num_classes": (
        lambda c: NodeClassifier.create(3, c, channels=4), 2, _count_cases(1)),
    "models.NodeClassifier:channels": (
        lambda c: NodeClassifier.create(3, 2, channels=c), 4, _count_cases(1)),
    "params.adam_step:t": (lambda t: _adam_store(0.1, t), 3, _count_cases(1) | {"probe": 1.5}),
    "fdcheck.run_gradcheck:seed": (lambda s: run_gradcheck(s, ["relu"]), None, SEED_CASES),
    # The parser reads both flags as integers; the commands check the count.
    "cli.cmd_pool:--levels": (
        lambda v: cli.cmd_pool(argparse.Namespace(levels=v)), None, _count_cases()),
    "cli.cmd_train_graph:--folds": (
        lambda v: cli.cmd_train_graph(argparse.Namespace(folds=v)), None,
        _count_cases(2) | {"one": 1}),
}

BAD = [(row, case, value) for row, (_, _, cases) in _CASES.items()
       for case, value in cases.items()]
GOOD = [row for row, (_, good, _) in _CASES.items() if good is not None]


@pytest.mark.parametrize("row, case, value", BAD, ids=[f"{r}-{c}" for r, c, _ in BAD])
def test_bad_integer_is_refused_naming_the_argument(row, case, value):
    call, _, _ = _CASES[row]
    arg = row.split(":")[1]
    with pytest.raises(ValueError, match=f"^{re.escape(arg)} "):
        call(value)


def _leaves(obj) -> list:
    """Every array (dtype, shape, bytes) and scalar (type, value) of a result, in order."""
    if isinstance(obj, np.ndarray):
        return [(obj.dtype.str, obj.shape, obj.tobytes())]
    if isinstance(obj, Var):
        return _leaves(obj.data)
    if isinstance(obj, ParamStore):
        return _leaves(list(obj.items()))
    if dataclasses.is_dataclass(obj):
        return _leaves([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    if isinstance(obj, dict):
        return _leaves(list(obj.items()))
    if isinstance(obj, (list, tuple)):
        return [leaf for item in obj for leaf in _leaves(item)]
    return [(type(obj).__name__, obj)]


def _as(value, dtype):
    return np.asarray(value).astype(dtype) if np.ndim(value) else dtype(value)


@pytest.mark.parametrize("row", GOOD)
def test_narrow_integer_types_give_the_int64_result(row):
    call, good, _ = _CASES[row]
    expected = _leaves(call(_as(good, np.int64)))
    for dtype in (np.int32, np.uint8):
        assert _leaves(call(_as(good, dtype))) == expected, dtype


def test_every_kind_of_bad_value_has_rows():
    kinds = {case for _, case, _ in BAD}
    assert {"float", "bool", "negative", "past-bound"} <= kinds
    assert all({"float", "bool"} <= set(cases) for _, _, cases in _CASES.values())


@pytest.mark.parametrize("second", [1, 0, -1, True, 1.0, np.int8(1)],
                         ids=["int", "zero", "negative", "bool", "float", "narrow"])
def test_random_pool_params_takes_its_seed_by_keyword_only(second):
    # A second positional argument, of any value the edge-feature width once
    # took or refused, is not read as the seed.
    with pytest.raises(TypeError):
        random_pool_params(2, second)
    assert random_pool_params(2, seed=1).weight.shape == (4,)


def test_negative_seeds_stay_valid():
    # A seed is an integer of any sign: only floats and booleans are refused.
    assert TrainConfig(seed=-3).seed == -3
    assert not np.array_equal(seeded_rng(-3, "a").random(4), seeded_rng(3, "a").random(4))
    _, _, scores = edgepool_forward(PATH4, PATH4_PARAMS, training=True, dropout_p=0.5, seed=-3)
    assert scores.dropped.shape == (PATH4.num_edges,)


def test_train_config_keeps_python_ints():
    config = TrainConfig(epochs=np.int32(3), batch_size=np.uint8(2), seed=np.int64(-1))
    assert [type(v) for v in (config.epochs, config.batch_size, config.seed)] == [int] * 3
    assert config == TrainConfig(epochs=3, batch_size=2, seed=-1)


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _public_rule_callers() -> set[str]:
    """``module.name`` of each public function, or public class by any of its
    methods, that calls an integer rule directly or through ``models._split``."""
    found = set()
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                called = {c.func.id for c in ast.walk(node)
                          if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                if called & RULES:
                    found.add(f"{module}.{node.name}")
    return found


def test_every_caller_of_the_integer_rules_has_a_row():
    # A callable that takes codes, counts or seeds shows its boundary here;
    # a check copied into a new callable instead of calling a rule fails below.
    callers = _public_rule_callers()
    assert {"graph.build_graph", "pool.contract", "params.TrainConfig"} <= callers
    covered = {row.split(":")[0] for row in _CASES}
    assert sorted(callers - covered) == []


def _array_cast(call: ast.Call, dtypes: set[str]) -> bool:
    """Whether ``call`` is ``np.asarray`` or ``np.array`` with a dtype in ``dtypes``."""
    dtype = [k.value for k in call.keywords if k.arg == "dtype"] + call.args[1:2]
    return (ast.unparse(call.func) in ("np.asarray", "np.array")
            and any(ast.unparse(d) in dtypes for d in dtype))


def _parameter(node: ast.AST) -> str | None:
    """The name that ``node`` reads, a bare name or an attribute or a
    subscript of one (``params.weight``, ``scores.dropped``,
    ``cluster_colors[v]``); None for anything else, such as a call."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _own_argument_casts(is_cast) -> list[str]:
    """``module.function: call`` for each call that ``is_cast`` matches and
    that passes the function its own parameter, or an attribute or a
    subscript of one."""
    casts = []
    for module, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            casts += [f"{module}.{fn.name}: {ast.unparse(c)}" for c in ast.walk(fn)
                      if isinstance(c, ast.Call) and c.args
                      and _parameter(c.args[0]) in params and is_cast(c)]
    return casts


def test_no_function_casts_its_own_arguments_to_integers():
    # int(2.5) is 2 and np.asarray([0.5], dtype=np.int64) is [0]: an argument
    # passes a rule instead, which refuses what a cast would truncate.
    assert _own_argument_casts(
        lambda c: ast.unparse(c.func) == "int" or _array_cast(c, {"np.int64"})) == []
