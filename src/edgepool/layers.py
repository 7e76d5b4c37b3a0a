"""Differentiable layers: each op fuses its forward and exact backward.

All ops take and return :class:`~edgepool.autodiff.Var` nodes. Structural
inputs (graphs, index vectors, labels, dropout masks) are constants of the
backward pass. Neighbor and segment reductions are products with unit-weight
sparse operators (the graph's cached in-adjacency, or a segment matrix):
they accumulate in double precision in fixed canonical order, then cast back
to the activation dtype.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Var
from .graph import Graph, _segment_sum
from .pool import (
    EdgeScores,
    PoolInfo,
    PoolParams,
    edgepool_backward,
    edgepool_forward,
    score_path_backward,
)
from .unpool import unpool_backward as _unpool_adjoint
from .unpool import unpool_once

__all__ = [
    "dense",
    "mean_conv",
    "batch_norm",
    "relu",
    "feature_dropout",
    "global_mean_pool",
    "concat_cols",
    "gather_rows",
    "softmax_cross_entropy",
    "cross_entropy",
    "edge_pool",
    "unpool",
]


def dense(x: Var, weight: Var, bias: Var) -> Var:
    """y = x @ weight + bias."""
    if x.data.shape[1] != weight.data.shape[0]:
        raise ValueError(
            f"dense shape mismatch: {x.data.shape} @ {weight.data.shape}"
        )
    y = x.data @ weight.data + bias.data

    def vjp(dy):
        return dy @ weight.data.T, x.data.T @ dy, dy.sum(axis=0)

    return Var(y, (x, weight, bias), vjp)


def _neighbor_mean(graph: Graph, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of in-neighbor features per node; zero where there are none.

    The sum is ``graph.in_adjacency @ x`` in double precision, adding each
    node's in-neighbors in ascending (canonical) order. Also returns the
    inverse in-degrees (0 for isolated nodes).
    """
    acc = graph.in_adjacency @ x.astype(np.float64)
    deg = graph.in_degrees().astype(np.float64)
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    return (acc * inv[:, None]).astype(x.dtype), inv


def mean_conv(graph: Graph, x: Var, w_self: Var, w_neigh: Var, bias: Var) -> Var:
    """Graph convolution with mean aggregation.

    y_i = x_i @ w_self + mean over in-neighbors k of x_k @ w_neigh + bias;
    isolated nodes use a zero neighbor term. Forward and backward aggregate
    with the cached ``graph.in_adjacency`` and its transpose, in fixed
    canonical order.
    """
    if x.data.shape[0] != graph.num_nodes:
        raise ValueError(
            f"activation rows ({x.data.shape[0]}) != num_nodes ({graph.num_nodes})"
        )
    nm, inv_deg = _neighbor_mean(graph, x.data)
    y = x.data @ w_self.data + nm @ w_neigh.data + bias.data

    def vjp(dy):
        dx = dy @ w_self.data.T
        d_nm = dy @ w_neigh.data.T
        scatter = graph.in_adjacency.T @ (d_nm * inv_deg[:, None])
        dx = dx + scatter.astype(dx.dtype)
        return dx, x.data.T @ dy, nm.T @ dy, dy.sum(axis=0)

    return Var(y, (x, w_self, w_neigh, bias), vjp)


BATCH_NORM_EPS = 1e-5


def batch_norm(x: Var, gamma: Var, beta: Var) -> Var:
    """Standardize per feature with current-batch statistics, then affine.

    Batch statistics are used in both training and evaluation; there are no
    running averages. A single row is its own mean with variance 0, so it
    standardizes to exactly 0: the output is ``beta``, and the gradients
    with respect to ``x`` and ``gamma`` are exactly 0. A batch of one graph
    that pooling has reduced to one node gives such a batch. Zero rows
    raise ``ValueError``.
    """
    if x.data.shape[0] < 1:
        raise ValueError("batch norm needs at least 1 row")
    mu = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
    xhat = (x.data - mu) * inv_std
    y = gamma.data * xhat + beta.data
    n = x.data.shape[0]

    def vjp(dy):
        dgamma = (dy * xhat).sum(axis=0)
        dbeta = dy.sum(axis=0)
        dxhat = dy * gamma.data
        dx = inv_std * (
            dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).sum(axis=0) / n
        )
        return dx, dgamma, dbeta

    return Var(y, (x, gamma, beta), vjp)


def relu(x: Var) -> Var:
    y = np.maximum(x.data, 0)

    def vjp(dy):
        return ((x.data > 0) * dy,)

    return Var(y, (x,), vjp)


def feature_dropout(x: Var, p: float, rng: np.random.Generator, training: bool) -> Var:
    """Inverted dropout on feature entries; identity outside training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    mask = mask.astype(x.data.dtype)
    return Var(x.data * mask, (x,), lambda dy: (dy * mask,))


def global_mean_pool(x: Var, graph_id: np.ndarray, num_graphs: int) -> Var:
    """Per-graph mean of node rows, following the node-to-graph map."""
    if x.data.shape[0] != len(graph_id):
        raise ValueError("activation rows != graph_id length")
    counts = np.bincount(graph_id, minlength=num_graphs).astype(np.float64)
    if np.any(counts == 0):
        raise ValueError("every graph in a batch needs at least one node")
    acc = _segment_sum(graph_id, x.data.astype(np.float64), num_graphs)
    y = (acc / counts[:, None]).astype(x.data.dtype)

    def vjp(dy):
        return ((dy / counts[:, None].astype(dy.dtype))[graph_id],)

    return Var(y, (x,), vjp)


def concat_cols(a: Var, b: Var) -> Var:
    y = np.concatenate([a.data, b.data], axis=1)
    na = a.data.shape[1]

    def vjp(dy):
        return dy[:, :na], dy[:, na:]

    return Var(y, (a, b), vjp)


def gather_rows(x: Var, index: np.ndarray) -> Var:
    y = x.data[index]

    def vjp(dy):
        dx = _segment_sum(index, dy.astype(np.float64), x.data.shape[0])
        return (dx.astype(x.data.dtype),)

    return Var(y, (x,), vjp)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean negative log softmax probability of the true class.

    Returns (loss, gradient w.r.t. logits). Uses a stable log-sum-exp.
    """
    logits64 = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits64.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},)")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise ValueError("label out of class range")
    mx = logits64.max(axis=1, keepdims=True)
    shifted = logits64 - mx
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(np.asarray(logits).dtype)


def cross_entropy(logits: Var, labels: np.ndarray) -> Var:
    """Tape op wrapping :func:`softmax_cross_entropy`; yields a scalar Var."""
    loss, base_grad = softmax_cross_entropy(logits.data, labels)

    def vjp(dy):
        return (float(dy) * base_grad,)

    return Var(np.asarray(loss), (logits,), vjp)


def edge_pool(
    x: Var,
    weight: Var,
    bias: Var,
    graph: Graph,
    training: bool = False,
    dropout_p: float = 0.0,
    seed: int | None = None,
) -> tuple[Var, Var, Graph, PoolInfo, EdgeScores]:
    """Tape op for one pooling level over the current activations.

    A thin wrapper: the pooling math is :func:`edgepool_forward`,
    :func:`edgepool_backward` and :func:`score_path_backward`. Returns
    (pooled activations, per-node gating scores, pooled graph, level info,
    edge scores). The gating-score Var lets later consumers (unpooling
    divides by it) propagate gradient back into the scorer; the matching
    itself is a constant of the backward pass.
    """
    scored_graph = graph.with_node_features(x.data)
    params = PoolParams(weight=weight.data, bias=float(bias.data))
    pooled, info, scores = edgepool_forward(
        scored_graph, params, training=training, dropout_p=dropout_p, seed=seed
    )

    def vjp(dy):
        gx, gw, gb = edgepool_backward(scored_graph, params, info, scores, dy)
        return gx, gw, np.asarray(gb)

    out = Var(pooled.node_features, (x, weight, bias), vjp)

    def vjp_score(d_node_score):
        # Unmatched node scores are the constant 1.0; only matched pairs
        # carry gradient, both members contributing to their edge's score.
        mi, mj = info.matching[:, 0], info.matching[:, 1]
        g_s = d_node_score[mi] + d_node_score[mj]
        gx, gw, gb = score_path_backward(scored_graph, params, info, scores, g_s)
        return gx.astype(x.data.dtype), gw, np.asarray(gb)

    score_var = Var(info.node_score, (x, weight, bias), vjp_score)
    return out, score_var, pooled, info, scores


def unpool(x: Var, node_score: Var, info: PoolInfo) -> Var:
    """Tape op for one unpooling level (duplicate rows, divide by gate).

    ``node_score`` is the gating-score Var returned by :func:`edge_pool`
    for the same level; the division's score dependence is differentiated
    through it.
    """
    y = unpool_once(x.data, info)

    def vjp(dy):
        dy64 = np.asarray(dy, dtype=np.float64)
        d_score = -np.einsum("nf,nf->n", dy64, np.asarray(y, dtype=np.float64))
        d_score /= info.node_score
        return _unpool_adjoint(dy, info), d_score

    return Var(y, (x, node_score), vjp)
