"""Differentiable layers: each op fuses its forward and exact backward.

All ops take and return :class:`~edgepool.autodiff.Var` nodes. Structural
inputs (graphs, index vectors, labels, dropout masks) are constants of the
backward pass. Every index vector passes the one rule of integer codes,
``graph._codes``: float and boolean arrays are refused, never cast, and each
entry lies in its range. It checks the labels of the loss,
:func:`cross_entropy` (one class per logit row), :func:`global_mean_pool`'s
graph ids and :func:`gather_rows`' row index. Every activation an op reads
(``x``, of any shape for the entrywise ops, ``logits``, ``concat_cols``'
two operands and :func:`unpool`'s gate) and every parameter of :func:`dense`,
:func:`mean_conv` and :func:`batch_norm` passes the one rule of real
arrays, ``graph._real``, of the shape the op needs, and every rate and
the scorer bias the one rule of real numbers, ``graph._real_number``:
boolean, complex, string and object input is refused, nothing is
broadcast, and integer activations are widened to float64, never
truncated. Both rules read the dtype and the shape alone, so a float
operand costs O(1) and is not copied.
No op takes what it can work out: dropout takes a rate alone (rate 0 is
the identity), and a readout counts graphs off ``graph_id``. :func:`edge_pool` is a level's
gate and merge, whose vjps are the two halves of ``edgepool_backward``.
Neighbor and segment reductions are products with unit-weight sparse
operators (the graph's cached in-adjacency, or a segment matrix) in fixed
canonical order. Two dtype rules have one home each. The operators' ones
(``graph._unit_csr``) are float32 and widen exactly, so every such sum runs
in its operand's dtype and no op widens its operand or casts a sum back;
float64 stays in the pooling scorer, its softmax and the unpool divisions.
And :func:`~edgepool.autodiff.backward` casts each gradient to its
parent's float dtype (float64 for an integer parent), so no vjp casts its
result (``cross_entropy`` casts its float64 gradient to the logits'
dtype).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .autodiff import Var, _link_past
from .graph import Graph, _codes, _real, _real_number, _segment_sum
from .pool import (
    EdgeScores,
    PoolInfo,
    PoolParams,
    _add_gated_rows,
    _gate_gradient,
    _member_rows,
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
    "cross_entropy",
    "edge_pool",
    "unpool",
]


def dense(x: Var, weight: Var, bias: Var) -> Var:
    """y = x @ weight + bias, for a 2-D ``x`` with a row of weight per column
    and a bias entry per column of weight."""
    w = _real("weight", weight.data, (None, None))
    xd = _real("x", x.data, (None, w.shape[0]))
    y = xd @ w + _real("bias", bias.data, (w.shape[1],))

    def vjp(dy):
        return dy @ w.T, xd.T @ dy, dy.sum(axis=0)

    return Var(y, (x, weight, bias), vjp)


def _neighbor_mean(graph: Graph, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of in-neighbor features per node; zero where there are none.

    The sum is ``graph.in_adjacency @ x`` in ``x``'s dtype, adding each
    node's in-neighbors in ascending (canonical) order. Also returns the
    inverse in-degrees (0 for isolated nodes), read off the operator's rows.
    """
    acc = graph.in_adjacency @ x
    deg = np.diff(graph.in_adjacency.indptr).astype(acc.dtype)
    inv = np.where(deg > 0, 1 / np.maximum(deg, 1), 0)
    acc *= inv[:, None]
    return acc, inv


def mean_conv(graph: Graph, x: Var, w_self: Var, w_neigh: Var, bias: Var) -> Var:
    """Graph convolution with mean aggregation.

    y_i = x_i @ w_self + mean over in-neighbors k of x_k @ w_neigh + bias;
    isolated nodes use a zero neighbor term. ``w_self`` and ``w_neigh`` are
    (c_in, c_out) and ``bias`` (c_out,). Forward and backward aggregate
    with the cached ``graph.in_adjacency`` and its transpose, in fixed
    canonical order.
    """
    xd = _real("x", x.data, (graph.num_nodes, None))
    ws = _real("w_self", w_self.data, (xd.shape[1], None))
    wn = _real("w_neigh", w_neigh.data, ws.shape)
    nm, inv_deg = _neighbor_mean(graph, xd)
    y = xd @ ws + nm @ wn + _real("bias", bias.data, (ws.shape[1],))

    def vjp(dy):
        d_nm = dy @ wn.T
        dx = dy @ ws.T + graph.in_adjacency.T @ (d_nm * inv_deg[:, None])
        return dx, xd.T @ dy, nm.T @ dy, dy.sum(axis=0)

    return Var(y, (x, w_self, w_neigh, bias), vjp)


BATCH_NORM_EPS = 1e-5


def batch_norm(x: Var, gamma: Var, beta: Var) -> Var:
    """Standardize per feature with current-batch statistics, then affine.

    Batch statistics are used in both training and evaluation; there are no
    running averages. A single row is its own mean with variance 0, so it
    standardizes to exactly 0: the output is ``beta``, and the gradients
    with respect to ``x`` and ``gamma`` are exactly 0. A batch of one graph
    that pooling has reduced to one node gives such a batch. Zero rows
    raise ``ValueError``, as does an ``x`` that is not 2-D, or a ``gamma`` or
    ``beta`` that is not one entry per column of ``x``.

    The vjp builds the gradient of ``x`` in place from ``dy * gamma``, with
    the operations of ``inv_std * (dxhat - mean(dxhat) - xhat * sum(dxhat *
    xhat) / n)`` in that order, so it has the formula's bits while at most
    two (n, f) arrays are live. ``dy`` comes in the output's dtype (a float
    dtype that holds ``xhat``'s), as ``autodiff.backward`` casts it.
    """
    xd = _real("x", x.data, (None, None))
    g = _real("gamma", gamma.data, xd.shape[1:])
    n = xd.shape[0]
    if n < 1:
        raise ValueError("x must have at least 1 row")
    centered = xd - xd.mean(axis=0)
    # The mean and centered sum of squares of ``x.data.var(axis=0)``, bit for bit.
    var = np.add.reduce(centered * centered, axis=0) / n
    inv_std = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
    xhat = centered * inv_std
    y = g * xhat + _real("beta", beta.data, xd.shape[1:])

    def vjp(dy):
        dgamma = (dy * xhat).sum(axis=0)
        dbeta = dy.sum(axis=0)
        dx = dy * g  # the gradient of xhat, turned into that of x in place
        mean = dx.mean(axis=0)
        t = xhat * (dx * xhat).sum(axis=0)
        t /= n
        dx -= mean
        dx -= t
        dx *= inv_std
        return dx, dgamma, dbeta

    return Var(y, (x, gamma, beta), vjp)


def relu(x: Var) -> Var:
    """max(x, 0) entrywise, for a real ``x`` of any shape.

    The vjp reads the output's sign: ``y > 0`` has the bits of ``x > 0`` (a
    NaN or a 0 gives ``False`` both ways). So the result links past the op
    that made ``x`` (:func:`~edgepool.autodiff._link_past`), and the tape
    keeps no pre-activation: the output of :func:`mean_conv`,
    :func:`batch_norm` or :func:`dense` is freed once the caller drops it.
    """
    y = np.maximum(_real("x", x.data, (None,) * x.data.ndim), 0)
    return _link_past(x, y, lambda dy: (y > 0) * dy)


def feature_dropout(x: Var, p: float, rng: np.random.Generator) -> Var:
    """Inverted dropout on the entries of a real ``x`` at rate ``p``; rate 0
    is the identity."""
    p = _real_number("dropout probability", p, "in [0, 1)")
    xd = _real("x", x.data, (None,) * x.data.ndim)
    if p == 0.0:
        return x
    mask = ((rng.random(xd.shape) >= p) / (1.0 - p)).astype(xd.dtype)
    return Var(xd * mask, (x,), lambda dy: (dy * mask,))


def global_mean_pool(x: Var, graph_id: np.ndarray) -> Var:
    """Per-graph mean of node rows: one row per graph, 0 to ``graph_id.max()``.

    ``graph_id`` follows the rule of integer codes
    (:func:`~edgepool.graph._codes`): one integer per activation row, none
    negative.
    """
    xd = _real("x", x.data, (None, None))
    graph_id = _codes("graph_id", graph_id, (len(xd),), item="activation row")
    counts = np.bincount(graph_id).astype(xd.dtype)
    if np.any(counts == 0):
        raise ValueError("every graph in a batch needs at least one node")
    y = _segment_sum(graph_id, xd, len(counts)) / counts[:, None]

    def vjp(dy):
        return (np.take(dy / counts[:, None], graph_id, axis=0),)

    return Var(y, (x,), vjp)


def concat_cols(a: Var, b: Var) -> Var:
    """Columns of ``a`` then of ``b``, two 2-D Vars of the same row count."""
    ad = _real("a", a.data, (None, None))
    y = np.concatenate([ad, _real("b", b.data, (len(ad), None))], axis=1)
    na = ad.shape[1]

    def vjp(dy):
        return dy[:, :na], dy[:, na:]

    return Var(y, (a, b), vjp)


def gather_rows(x: Var, index: np.ndarray) -> Var:
    """Rows ``x[index]`` of a real ``x`` of at least one dimension; ``index``
    is a 1-D integer array with entries in ``[0, rows)``
    (:func:`~edgepool.graph._codes`)."""
    xd = _real("x", x.data, (None,) * max(x.data.ndim, 1))
    index = _codes("index", index, (None,), len(xd))
    y = np.take(xd, index, axis=0)

    def vjp(dy):
        return (_segment_sum(index, dy, len(xd)),)

    return Var(y, (x,), vjp)


def cross_entropy(logits: Var, labels: np.ndarray) -> Var:
    """Mean negative log softmax probability of the true class: a scalar Var.

    A stable log-sum-exp in double precision. ``logits`` must have at least
    one row, since the mean of no rows is undefined. ``labels`` follow the
    rule of integer codes (:func:`~edgepool.graph._codes`): one integer
    class per logit row, in ``[0, classes)``.
    """
    logits64 = _real("logits", logits.data, (None, None)).astype(np.float64, copy=False)
    n, c = logits64.shape
    if n < 1:
        raise ValueError("logits must have at least 1 row")
    labels = _codes("labels", labels, (n,), c, item="logit row")
    mx = logits64.max(axis=1, keepdims=True)
    shifted = logits64 - mx
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    grad = grad.astype(logits.data.dtype)

    def vjp(dy):
        return (float(dy) * grad,)

    return Var(np.asarray(loss), (logits,), vjp)


def edge_pool(
    x: Var,
    weight: Var,
    bias: Var,
    graph: Graph,
    dropout_p: float = 0.0,
    seed: int | None = None,
) -> tuple[Var, Var, Graph, PoolInfo, EdgeScores]:
    """Tape ops for one pooling level, :func:`edgepool_forward`, as two ops.

    The gate, the matched pairs' normalized scores in matching order, shape
    (k,), has parents (x, weight, bias) and vjp :func:`score_path_backward`.
    The pooled activations have parents (x, gate) and the merge adjoint as
    vjp. Edge-score dropout at rate ``dropout_p`` needs a ``seed``; rate 0
    drops nothing. Returns (pooled activations, gate, pooled graph, level
    info, edge scores); the matching is a constant of the backward.

    ``x`` is real and finite, one row per node (``graph._real``), else
    ``ValueError``. The scored graph holds a view of ``x.data``, not a
    copy: ``Graph`` makes the view read-only and leaves ``x.data`` as it
    was, and the gate's vjp keeps nothing the tape does not hold already.
    """
    xd = _real("x", x.data, (graph.num_nodes, None), finite=True)
    scored_graph = replace(graph, node_features=xd.view())
    params = PoolParams(weight=weight.data, bias=_real_number("bias", bias.data))
    # Training mode: the rate alone decides whether edges are dropped.
    pooled, info, scores = edgepool_forward(scored_graph, params, training=True,
                                            dropout_p=dropout_p, seed=seed)

    gate = Var(scores.normalized[info.matched_edge_index], (x, weight, bias),
               lambda g_s: score_path_backward(scored_graph, params, info, scores, g_s))

    def vjp(dy):
        gx = _add_gated_rows(info, dy, np.zeros_like(xd))
        return gx, _gate_gradient(scored_graph, info, dy)

    return Var(pooled.node_features, (x, gate), vjp), gate, pooled, info, scores


def unpool(x: Var, gate: Var, info: PoolInfo) -> Var:
    """Tape op for one unpooling level (duplicate rows, divide by gate).

    ``gate`` is the gate Var that :func:`edge_pool` returned for the same
    level: shape (k,) and, per pair, the score that ``info.node_score``
    holds for both members, else ``ValueError``. The forward divides by
    ``info.node_score``, and the division's score dependence is
    differentiated through the gate.
    """
    _real("gate", gate.data, (info.num_matched,))
    # Both members of a pair hold its gate, so the second members' scores serve.
    if not np.array_equal(gate.data, info.node_score[info.matching[:, 1]]):
        raise ValueError("gate must be this level's gate: its scores differ from info.node_score")
    y = unpool_once(_real("x", x.data, (info.pooled_num_nodes, None)), info)

    def vjp(dy):
        # Per pair, the member sum of each row's -<dy, y> over its gate.
        # einsum widens rows in its 8192-entry buffer, which sums a row of
        # up to 8192 entries as its float64 copy would.
        d = -np.einsum("nf,nf->n", dy, y, dtype=np.float64) / info.node_score
        return _unpool_adjoint(dy, info), _member_rows(info, d[:, None])[: info.num_matched, 0]

    return Var(y, (x, gate), vjp)
