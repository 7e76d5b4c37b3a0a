"""The real-number and mask rules at their boundaries, and the guards that keep
every rule in one home.

``graph._real`` is the one rule for real arrays (features, activations,
the tape ops' parameters, the scorer weight, gradients, gates and scores),
``graph._real_number`` the one rule for real scalars (dropout rates, the
learning rate and the scorer bias) and ``graph._mask`` the one rule for
boolean masks. ``_CASES`` is their boundary table, in the style of
``test_integer_rules._CASES``: one row per (public callable, real
argument). Each bad value raises ValueError whose message starts with the
argument's name (a key for the dropout rates and the scorer weight and
bias, ``scores.<field>`` for a field of an ``EdgeScores``), and the row's
integer good value gives the result of its float64 widening: integers are
widened, never truncated.
"""

import ast
import re

import numpy as np
import pytest

import edgepool
from edgepool import TrainConfig, Var, backward, build_graph, gen_synthetic, layers
from edgepool.graph import _real
from edgepool.layers import (
    batch_norm,
    concat_cols,
    cross_entropy,
    dense,
    edge_pool,
    feature_dropout,
    gather_rows,
    global_mean_pool,
    mean_conv,
    relu,
    unpool,
)
from edgepool.pool import (
    EdgeScores,
    PoolParams,
    apply_score_dropout,
    contract,
    edgepool_backward,
    edgepool_forward,
    normalize_scores,
    random_pool_params,
    raw_scores,
    score_path_backward,
    select_contractions,
)
from edgepool.rng import seeded_rng
from edgepool.unpool import unpool_backward, unpool_once

from test_integer_rules import _CASES as INTEGER_CASES
from test_integer_rules import (
    PATH4,
    PATH4_PARAMS,
    ROWS3,
    SMALL_SBM,
    _adam_store,
    _array_cast,
    _as,
    _leaves,
    _modules,
    _own_argument_casts,
)

RULES = {"_real", "_real_number", "_mask"}

M = PATH4.num_edges
POOLED, INFO, SCORES = edgepool_forward(PATH4, PATH4_PARAMS)
OUT, GATE, _, _, _ = edge_pool(Var(PATH4.node_features), Var(PATH4_PARAMS.weight),
                               Var(np.asarray(PATH4_PARAMS.bias)), PATH4)
assert INFO.num_matched > 0
W23 = np.arange(6.0).reshape(2, 3)
KEPT = np.zeros(M, dtype=bool)
# An integer mask that holds 2 at edge (1, 0); and the scorer weight of an f = 3 graph.
assert PATH4.edge_src[1] == 1 and PATH4.edge_dst[1] == 0
INT_DROPPED = np.array([0, 2, 0, 0, 0, 0])
WEIGHT_F3 = random_pool_params(3).weight


def _ints(*shape):
    return np.arange(np.prod(shape), dtype=np.int64).reshape(shape) % 5


# A real array: a boolean, complex, string and object array of the good
# shape, and the good entries in the wrong number of dimensions.
def _array_cases(good):
    good = np.asarray(good)
    return {"bool": good > 0, "complex": good.astype(complex), "string": good.astype(str),
            "object": good.astype(object),
            "ndim": good.ravel() if good.ndim > 1 else good[:, None]}


# A real number: a boolean, a string, None and a 1-entry array.
NUMBER_CASES = {"bool": True, "string": "a", "none": None, "array": [0.5]}
RATE_CASES = NUMBER_CASES | {"one": 1.0, "negative": -0.1, "nan": float("nan")}


def _grad_of_relu(seed):
    x = Var(ROWS3)
    backward(relu(x), seed)
    return x.grad


def _value_and_grad(op, x):
    """An op's output on the leaf ``x``, and the leaf's gradient under ones."""
    leaf = Var(x)
    out = op(leaf)
    backward(out)
    return out, leaf.grad


# An entrywise op takes a real array of any shape: every bad kind but the shape.
def _entrywise_cases(good):
    return {case: value for case, value in _array_cases(good).items() if case != "ndim"}


def _with_weight(w):
    return PoolParams(w, PATH4_PARAMS.bias)


# The three stages that read an EdgeScores, each as a call of the scores.
_STAGES = {
    "select_contractions": lambda s: select_contractions(PATH4, s),
    "contract": lambda s: contract(PATH4, INFO.matching, s),
    "score_path_backward": lambda s: score_path_backward(PATH4, PATH4_PARAMS, INFO, s,
                                                         np.ones(INFO.num_matched)),
}
# Scores that the stages accept: positive at every edge, so contract takes any matching.
GOOD_SCORES = _ints(M) + 1
# Selection orders the scores, so it also refuses a NaN or an infinite one.
NON_FINITE_SCORES = {"select_contractions": {
    "nan": np.r_[np.nan, np.ones(M - 1)], "inf": np.r_[np.ones(M - 1), np.inf],
    "-inf": np.r_[1.0, -np.inf, np.ones(M - 2)]}}


def _score_rows():
    rows = {}
    for stage, call in _STAGES.items():
        rows[f"pool.{stage}:scores.normalized"] = (
            lambda s, call=call: call(EdgeScores(s, KEPT)), GOOD_SCORES,
            _array_cases(GOOD_SCORES) | {"probe-length": np.ones(3), "length": np.ones(M + 1)}
            | NON_FINITE_SCORES.get(stage, {}))
        # A mask is boolean: the integer mask [0, 2, ...] is not cast (nor an index).
        rows[f"pool.{stage}:scores.dropped"] = (
            lambda d, call=call: call(EdgeScores(SCORES.normalized, d)), None,
            {"probe-int": INT_DROPPED, "float": np.zeros(M),
             "length": np.zeros(M - 1, dtype=bool), "flat-2-D": np.zeros((M, 1), dtype=bool)})
    return rows


# "module.callable:argument" -> (call(value), integer good value or None, {case: bad value}).
_CASES = {
    "graph.build_graph:node features": (
        lambda x: build_graph(4, [(0, 1)], x), _ints(4, 2),
        _array_cases(_ints(4, 2)) | {"rows": np.ones((3, 2))}),
    "graph.Graph.with_node_features:node features": (
        PATH4.with_node_features, _ints(4, 2), _array_cases(_ints(4, 2))),
    "layers.dense:x": (
        lambda x: dense(Var(x), Var(W23), Var(np.zeros(3))), _ints(3, 2),
        _array_cases(_ints(3, 2)) | {"width": np.ones((3, 3))}),
    "layers.dense:weight": (
        lambda w: dense(Var(ROWS3), Var(w), Var(np.zeros(3))), _ints(2, 3),
        _array_cases(_ints(2, 3)) | {"probe-1-D": np.ones(2)}),
    "layers.dense:bias": (
        lambda b: dense(Var(ROWS3), Var(np.ones((2, 3))), Var(b)), _ints(3),
        _array_cases(_ints(3)) | {"length": np.zeros(2)}),
    "layers.mean_conv:x": (
        lambda x: mean_conv(PATH4, Var(x), Var(W23), Var(W23), Var(np.zeros(3))), _ints(4, 2),
        _array_cases(_ints(4, 2)) | {"probe-1-D": np.ones(4), "rows": np.ones((3, 2))}),
    "layers.mean_conv:w_self": (
        lambda w: mean_conv(PATH4, Var(PATH4.node_features), Var(w), Var(W23),
                            Var(np.zeros(3))), _ints(2, 3),
        _array_cases(_ints(2, 3)) | {"rows": np.ones((3, 3))}),
    "layers.mean_conv:w_neigh": (
        lambda w: mean_conv(PATH4, Var(PATH4.node_features), Var(W23), Var(w),
                            Var(np.zeros(3))), _ints(2, 3),
        _array_cases(_ints(2, 3)) | {"cols": np.ones((2, 2)), "rows": np.ones((3, 3))}),
    "layers.mean_conv:bias": (
        lambda b: mean_conv(PATH4, Var(PATH4.node_features), Var(W23), Var(W23), Var(b)),
        _ints(3), _array_cases(_ints(3)) | {"probe-(4,1)": np.zeros((4, 1))}),
    "layers.batch_norm:x": (
        lambda x: batch_norm(Var(x), Var(np.ones(2)), Var(np.zeros(2))), _ints(3, 2),
        _array_cases(_ints(3, 2)) | {"no-rows": np.ones((0, 2))}),
    "layers.batch_norm:gamma": (
        lambda g: batch_norm(Var(ROWS3), Var(g), Var(np.zeros(2))), _ints(2),
        _array_cases(_ints(2)) | {"probe-(1,)": np.ones(1)}),
    "layers.batch_norm:beta": (
        lambda b: batch_norm(Var(ROWS3), Var(np.ones(2)), Var(b)), _ints(2),
        _array_cases(_ints(2)) | {"length": np.ones(3)}),
    "layers.feature_dropout:dropout probability": (
        lambda p: feature_dropout(Var(ROWS3), p, seeded_rng(0, "rate")), 0,
        RATE_CASES | {"probe": "a"}),
    # Integer activations are widened: dropout's kept entries read 1 / (1 - p), not 1.
    "layers.feature_dropout:x": (
        lambda x: _value_and_grad(lambda v: feature_dropout(v, 0.3, seeded_rng(0, "x")), x),
        _ints(3, 2), _entrywise_cases(_ints(3, 2))),
    "layers.relu:x": (
        lambda x: _value_and_grad(relu, x), _ints(3, 2), _entrywise_cases(_ints(3, 2))),
    "layers.gather_rows:x": (
        lambda x: _value_and_grad(lambda v: gather_rows(v, [2, 0, 2]), x), _ints(3, 2),
        _entrywise_cases(_ints(3, 2)) | {"0-D": np.asarray(1.0)}),
    "layers.global_mean_pool:x": (
        lambda x: global_mean_pool(Var(x), [0, 0, 1]), _ints(3, 2),
        _array_cases(_ints(3, 2)) | {"probe-1-D": np.arange(3.0)}),
    "layers.concat_cols:a": (
        lambda a: concat_cols(Var(a), Var(ROWS3)), _ints(3, 1),
        _array_cases(_ints(3, 1)) | {"probe-1-D": np.ones(3)}),
    "layers.concat_cols:b": (
        lambda b: concat_cols(Var(ROWS3), Var(b)), _ints(3, 1),
        _array_cases(_ints(3, 1)) | {"probe-rows": np.ones((2, 1))}),
    "layers.cross_entropy:logits": (
        lambda z: cross_entropy(Var(z), [0, 1, 1]), _ints(3, 2),
        _array_cases(_ints(3, 2)) | {"probe-1-D": np.ones(3)}),
    # An integer x is scored and pooled as its float64 widening, and gets its gradient.
    "layers.edge_pool:x": (
        lambda x: _value_and_grad(lambda v: edge_pool(v, Var(PATH4_PARAMS.weight),
                                                      Var(np.asarray(0.0)), PATH4)[0], x),
        _ints(4, 2),
        _array_cases(_ints(4, 2)) | {"rows": np.ones((3, 2))}),
    "layers.edge_pool:bias": (
        lambda b: edge_pool(Var(PATH4.node_features), Var(PATH4_PARAMS.weight), Var(b), PATH4),
        1, NUMBER_CASES | {"probe-(1,)": [0.0], "probe-(2,)": [0.0, 1.0]}),
    "layers.edge_pool:dropout probability": (
        lambda p: edge_pool(Var(PATH4.node_features), Var(PATH4_PARAMS.weight),
                            Var(np.asarray(0.0)), PATH4, dropout_p=p, seed=3),
        0, RATE_CASES),
    "layers.unpool:x": (
        lambda x: unpool(Var(x), GATE, INFO), _ints(POOLED.num_nodes, 2),
        _array_cases(_ints(POOLED.num_nodes, 2)) | {"rows": np.ones((4, 2))}),
    # The gate must hold the level's scores, so it has no integer good value.
    "layers.unpool:gate": (
        lambda g: unpool(OUT, Var(g), INFO), None, _array_cases(GATE.data)),
    # The weight rule reads the length first: its wording is pinned by the CLI tests.
    "pool.raw_scores:scorer weight": (
        lambda w: raw_scores(PATH4, _with_weight(w)), _ints(4), _array_cases(_ints(4))),
    "pool.raw_scores:scorer bias": (
        lambda b: raw_scores(PATH4, PoolParams(PATH4_PARAMS.weight, b)), 1, NUMBER_CASES),
    "pool.normalize_scores:raw": (
        lambda r: normalize_scores(PATH4, r, np.zeros(M, dtype=bool)), _ints(M),
        _array_cases(_ints(M)) | {"length": np.zeros(M + 1)}),
    # A mask is boolean: an integer mask such as [0, 2, ...] is not cast.
    "pool.normalize_scores:dropped": (
        lambda d: normalize_scores(PATH4, np.zeros(M), d), None,
        {"probe-int": [0, 2] + [0] * (M - 2), "float": np.zeros(M),
         "length": np.zeros(M - 1, dtype=bool), "flat-2-D": np.zeros((M, 1), dtype=bool)}),
    "pool.apply_score_dropout:dropout probability": (
        lambda p: apply_score_dropout(6, p, 3), 0, RATE_CASES),
    "pool.edgepool_forward:dropout probability": (
        lambda p: edgepool_forward(PATH4, PATH4_PARAMS, training=True, dropout_p=p, seed=3), 0,
        RATE_CASES | {"probe": "a"}),
    "pool.edgepool_forward:scorer weight": (
        lambda w: edgepool_forward(PATH4, _with_weight(w)), _ints(4), _array_cases(_ints(4))),
    "pool.edgepool_forward:scorer bias": (
        lambda b: edgepool_forward(PATH4, PoolParams(PATH4_PARAMS.weight, b)), 1, NUMBER_CASES),
    "pool.edgepool_backward:upstream_grad": (
        lambda u: edgepool_backward(PATH4, PATH4_PARAMS, INFO, SCORES, u),
        _ints(POOLED.num_nodes, 2),
        _array_cases(_ints(POOLED.num_nodes, 2)) | {"width": np.ones((POOLED.num_nodes, 3))}),
    "pool.edgepool_backward:scorer weight": (
        lambda w: edgepool_backward(PATH4, _with_weight(w), INFO, SCORES, OUT.data), _ints(4),
        _array_cases(_ints(4)) | {"probe-length": WEIGHT_F3}),
    "pool.score_path_backward:g_s": (
        lambda g: score_path_backward(PATH4, PATH4_PARAMS, INFO, SCORES, g),
        _ints(INFO.num_matched), _array_cases(_ints(INFO.num_matched))),
    "pool.score_path_backward:scorer weight": (
        lambda w: score_path_backward(PATH4, _with_weight(w), INFO, SCORES,
                                      np.ones(INFO.num_matched)), _ints(4),
        _array_cases(_ints(4)) | {"probe-length": WEIGHT_F3}),
    "unpool.unpool_once:pooled_features": (
        lambda x: unpool_once(x, INFO), _ints(POOLED.num_nodes, 2),
        _array_cases(_ints(POOLED.num_nodes, 2)) | {"rows": np.ones((4, 2))}),
    "unpool.unpool_backward:upstream_grad": (
        lambda y: unpool_backward(y, INFO), _ints(4, 2),
        _array_cases(_ints(4, 2)) | {"rows": np.ones((POOLED.num_nodes, 2))}),
    "autodiff.backward:seed": (
        _grad_of_relu, _ints(3, 2), _array_cases(_ints(3, 2)) | {"probe-shape": np.ones(3)}),
    "params.TrainConfig:learning_rate": (
        lambda lr: TrainConfig(learning_rate=lr), 1,
        NUMBER_CASES | {"zero": 0.0, "inf": float("inf"), "nan": float("nan")}),
    "params.adam_step:lr": (
        lambda lr: _adam_store(lr, 1), 1,
        NUMBER_CASES | {"zero": 0.0, "negative": -1.0, "inf": float("inf"),
                        "nan": float("nan")}),
    # gen_synthetic's real keys: probabilities in [0, 1], a noise scale at
    # least 0 and a finite signal, so NaN, 2.0 and True are no probability.
    **{f"data.gen_synthetic:{key}": (
        lambda v, key=key: gen_synthetic("sbm_node_task", SMALL_SBM | {key: v}), good,
        NUMBER_CASES | {"nan": float("nan"), "inf": float("inf")} | extra)
       for key, good, extra in (
           ("p_in", 1, {"above": 2.0, "negative": -0.1}),
           ("p_out", 0, {"above": 1.5, "negative": -0.1}),
           ("feature_noise", 1, {"negative": -1.0}),
           ("signal", 2, {}))},
} | _score_rows()

BAD = [(row, case, value) for row, (_, _, cases) in _CASES.items()
       for case, value in cases.items()]
GOOD = [row for row, (_, good, _) in _CASES.items() if good is not None]


@pytest.mark.parametrize("row, case, value", BAD, ids=[f"{r}-{c}" for r, c, _ in BAD])
def test_bad_real_value_is_refused_naming_the_argument(row, case, value):
    call, _, _ = _CASES[row]
    arg = row.split(":")[1]
    with pytest.raises(ValueError, match=f"^{re.escape(arg)} "):
        call(value)


@pytest.mark.parametrize("row", GOOD)
def test_integers_give_the_float64_result(row):
    # Widened, never truncated: unpool_once of integer ones divides by the gates.
    call, good, _ = _CASES[row]
    expected = _leaves(call(_as(good, np.float64)))
    for dtype in (np.int64, np.uint8):
        assert _leaves(call(_as(good, dtype))) == expected, dtype


def test_float_arrays_pass_unchanged():
    # The rule reads the dtype and the shape alone: a float operand is not copied.
    x = np.ones((4, 2), dtype=np.float32)
    assert _real("x", x, (4, None)) is x
    assert PATH4.with_node_features(x).node_features.dtype == np.float32
    assert unpool_once(x[: POOLED.num_nodes], INFO).dtype == np.float32


def test_every_kind_of_bad_value_has_rows():
    kinds = {case for _, case, _ in BAD}
    assert {"bool", "complex", "string", "object", "ndim", "array", "none"} <= kinds
    assert all("bool" in cases or "float" in cases for _, _, cases in _CASES.values())


def _public_rule_callers() -> set[str]:
    """``module.name`` of each public function, or public class by any of its
    methods, that calls a real or mask rule directly."""
    found = set()
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                called = {c.func.id for c in ast.walk(node)
                          if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                if called & RULES:
                    found.add(f"{module}.{node.name}")
    return found


def _callables(table) -> set[str]:
    """``module.name`` of each row's callable (a class for a method's row)."""
    return {".".join(row.split(":")[0].split(".")[:2]) for row in table}


def test_every_caller_of_the_real_rules_has_a_row():
    callers = _public_rule_callers()
    assert {"graph.build_graph", "layers.dense", "params.TrainConfig"} <= callers
    assert sorted(callers - _callables(_CASES)) == []


# Public callables with no row in either table, each with the reason it needs none.
EXEMPT = {
    "symmetrize": "takes a Graph, whose arrays build_graph or a checked path made",
    "batch": "takes Graphs, and refuses only mismatched widths among them",
    "PoolParams": "a container: raw_scores and score_path_backward check its weight "
                  "(pool._check_widths), and raw_scores its bias",
    "EdgeScores": "a container: each stage that reads one checks both fields against its "
                  "graph (pool._check_scores)",
    "Var": "wraps any array: each tape op checks the operands it reads",
    "load_tu": "reads files, by the one rule of TU tables (data._read_table)",
    "save_tu": "writes a GraphDataset's graphs, which build_graph checked",
    "GraphDataset": "a container: the graph trainers check its labels and splits",
    "NodeTask": "a container: the node trainers check its masks and labels",
}


def test_every_public_callable_has_a_row_or_an_exemption():
    public = (set(edgepool.__all__) - {"__version__"}) | set(layers.__all__)
    rows = {name.split(".")[1] for name in _callables(_CASES) | _callables(INTEGER_CASES)}
    assert sorted(public - rows - set(EXEMPT)) == []
    assert sorted(set(EXEMPT) & rows) == [] and set(EXEMPT) <= public


def test_no_function_casts_its_own_arguments_to_reals_or_masks():
    # np.asarray([0, 2], dtype=bool) is a mask and np.asarray(True, dtype=np.float64)
    # a number: an argument passes a rule instead, which refuses what a cast would hide.
    assert _own_argument_casts(
        lambda c: _array_cast(c, {"bool", "np.float32", "np.float64"})) == []
