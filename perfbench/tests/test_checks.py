"""Negative controls for the benchmark's output checks."""

import math

import numpy as np
import pytest

import checks
from edgepool import (
    EdgeScores,
    build_graph,
    edgepool_forward,
    random_pool_params,
    select_contractions,
    symmetrize,
    unpool_backward,
    unpool_once,
)


def _graph(seed, n=60, m=150, f=3):
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, n, size=(2, m))
    keep = u != v
    key = np.unique(np.minimum(u[keep], v[keep]) * n + np.maximum(u[keep], v[keep]))
    pairs = np.stack([key // n, key % n], axis=1)
    return symmetrize(build_graph(n, pairs, rng.normal(size=(n, f))))


def _pooled(graph_seed, **kw):
    graph = _graph(graph_seed)
    params = random_pool_params(3, seed=graph_seed)
    pooled, info, scores = edgepool_forward(graph, params, **kw)
    return graph, pooled, info, scores


@pytest.mark.parametrize("seed", range(5))
def test_greedy_matching_passes(seed):
    graph, _, info, scores = _pooled(seed)
    assert checks.greedy_matching_errors(graph, scores, info.matching) == []


def test_greedy_matching_with_dropped_edges_passes():
    graph, _, info, scores = _pooled(3, training=True, dropout_p=0.3, seed=11)
    assert scores.dropped.any()
    assert checks.greedy_matching_errors(graph, scores, info.matching) == []


def test_ties_break_by_edge_index():
    graph = _graph(1)
    scores = EdgeScores(
        raw=np.zeros(graph.num_edges),
        normalized=np.ones(graph.num_edges),
        dropped=np.zeros(graph.num_edges, dtype=bool),
    )
    matching = select_contractions(graph, scores)
    assert checks.greedy_matching_errors(graph, scores, matching) == []
    assert checks.greedy_matching_errors(graph, scores, matching[::-1]) != []


def test_rows_out_of_selection_order_fail():
    graph, _, info, scores = _pooled(0)
    swapped = info.matching.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert checks.greedy_matching_errors(graph, scores, swapped) != []


def test_reversed_pair_fails():
    graph, _, info, scores = _pooled(0)
    reversed_pair = info.matching.copy()
    reversed_pair[0] = reversed_pair[0, ::-1]
    assert checks.greedy_matching_errors(graph, scores, reversed_pair) != []


@pytest.mark.parametrize("row", [0, -1])
def test_dropping_a_greedy_edge_fails(row):
    graph, _, info, scores = _pooled(2)
    dropped = np.delete(info.matching, row if row >= 0 else len(info.matching) - 1, axis=0)
    assert checks.greedy_matching_errors(graph, scores, dropped) != []


def test_swapping_a_pair_for_another_edge_fails():
    graph, _, info, scores = _pooled(4)
    matched = set(info.matching.ravel().tolist())
    for row, (a, b) in enumerate(info.matching.tolist()):
        # Replace (a, b) by an edge from a to a node no pair covers.
        others = graph.edge_dst[(graph.edge_src == a) & (graph.edge_dst != b)]
        free = [int(c) for c in others if int(c) not in matched]
        if free:
            swapped = info.matching.copy()
            swapped[row] = (a, free[0])
            break
    else:
        pytest.skip("no pair can be swapped on this graph")
    assert checks.greedy_matching_errors(graph, scores, swapped) != []


def test_matching_a_dropped_or_missing_edge_fails():
    graph, _, info, scores = _pooled(3, training=True, dropout_p=0.3, seed=11)
    e = int(np.flatnonzero(scores.dropped)[0])
    with_dropped = np.vstack([info.matching, graph.edges[e]])
    assert checks.greedy_matching_errors(graph, scores, with_dropped) != []
    missing = np.vstack([info.matching, [[0, 0]]])
    assert checks.greedy_matching_errors(graph, scores, missing) != []


def test_shared_node_fails():
    graph, _, info, scores = _pooled(0)
    shared = info.matching.copy()
    shared[1, 0] = shared[0, 0]
    assert checks.greedy_matching_errors(graph, scores, shared) != []


def test_pooled_size():
    graph, pooled, info, _ = _pooled(0)
    assert checks.pooled_size_errors(graph, pooled, info) == []
    assert checks.pooled_size_errors(graph, graph, info) != []


def test_unpool_adjoint():
    _, _, info, _ = _pooled(0)
    rng = np.random.default_rng(0)
    assert checks.unpool_adjoint_errors(info, unpool_once, unpool_backward, rng) == []

    def wrong_adjoint(x, info):
        return unpool_backward(x, info) * 1.001

    assert checks.unpool_adjoint_errors(info, unpool_once, wrong_adjoint, rng) != []


def test_backward_errors():
    graph = _graph(0)
    good = (np.zeros_like(graph.node_features), np.zeros(6), 0.0)
    assert checks.backward_errors(graph, good) == []
    assert checks.backward_errors(graph, (good[0], good[1], math.nan)) != []
    assert checks.backward_errors(graph, (good[0][1:], good[1], 0.0)) != []


def test_history_errors():
    rows = [{"epoch": e, "train_loss": 1.0 - 0.1 * e, "eval_acc": 0.5} for e in range(5)]
    assert checks.history_errors(rows, 4, (0.5, 0.7)) == []
    assert checks.history_errors(rows, 4, (0.7, 0.9)) != []
    assert checks.history_errors(rows[:4], 4, (0.5, 0.7)) != []
    rows[2]["train_loss"] = math.inf
    assert checks.history_errors(rows, 4, (0.5, 0.7)) != []
