"""Independent reference implementations used to validate the library.

Everything here is written the slow, obvious way (python loops, repeated
scans, at most one sort) so that agreement with the optimized code is
meaningful.
"""

from __future__ import annotations

import math
import os

import numpy as np

from edgepool.autodiff import Var
from edgepool.data import GraphDataset, _float32, _read_table, _tu_path
from edgepool.graph import _real, build_graph, symmetrize


def naive_normalize(edges: np.ndarray, raw: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """Per-destination softmax plus 0.5, one edge at a time."""
    out = np.zeros(len(raw), dtype=np.float64)
    for e, (_, dst) in enumerate(edges):
        if dropped[e]:
            continue
        group = [
            k for k, (_, d) in enumerate(edges) if d == dst and not dropped[k]
        ]
        m = max(raw[k] for k in group)
        denom = sum(math.exp(raw[k] - m) for k in group)
        out[e] = 0.5 + math.exp(raw[e] - m) / denom
    return out


def naive_matching(edges: np.ndarray, normalized: np.ndarray, dropped: np.ndarray) -> list:
    """Repeated argmax over still-contractible edges, O(E^2).

    Ties break toward the lower canonical edge index, matching the library's
    declared ordering.
    """
    matched_nodes: set[int] = set()
    matching = []
    while True:
        best = None
        for e, (src, dst) in enumerate(edges):
            if dropped[e] or src in matched_nodes or dst in matched_nodes:
                continue
            if best is None or normalized[e] > normalized[best]:
                best = e
        if best is None:
            return matching
        src, dst = int(edges[best][0]), int(edges[best][1])
        matching.append((src, dst))
        matched_nodes.update((src, dst))


def sequential_greedy(edges: np.ndarray, normalized: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """One stable sort of the kept edges, then a linear sweep, O(E log E).

    Visits edges by normalized score descending, canonical edge index
    ascending on ties, and takes an edge iff neither endpoint is matched
    yet. Returns the matched edges in selection order as a (k, 2) int64
    array; fast enough to check the library on a million edges.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keep = np.flatnonzero(~np.asarray(dropped, dtype=bool))
    if keep.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    order = keep[np.argsort(-normalized[keep], kind="stable")]
    src = edges[order, 0].tolist()
    dst = edges[order, 1].tolist()
    matched = bytearray(int(edges.max()) + 1)
    pairs = []
    for i, j in zip(src, dst):
        if not matched[i] and not matched[j]:
            matched[i] = 1
            matched[j] = 1
            pairs.append((i, j))
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def argsort_sweep(e, src, dst, s, num_nodes):
    """``pool._greedy_sweep`` as it was before it sorted block by block: one
    stable argsort of every edge it is handed, then the loop.

    Sequential greedy over edges ``e`` (ascending) with endpoints and scores.

    Visits by score descending, index ascending on ties; returns the taken
    edge indices in visiting order. The edges must touch no node matched
    earlier, so every node starts unmatched.
    """
    order = np.argsort(-s, kind="stable")
    matched = bytearray(num_nodes)
    out = []
    for k, i, j in zip(e[order].tolist(), src[order].tolist(), dst[order].tolist()):
        if not matched[i] and not matched[j]:
            matched[i] = 1
            matched[j] = 1
            out.append(k)
    return np.asarray(out, dtype=np.int64)


def naive_contract_features(
    node_features: np.ndarray,
    matching: list,
    normalized_by_pair: list,
) -> np.ndarray:
    """Merged rows first (matching order), then unmatched in node order."""
    n = node_features.shape[0]
    used = set()
    rows = []
    for (i, j), s in zip(matching, normalized_by_pair):
        rows.append(s * (node_features[i] + node_features[j]))
        used.update((i, j))
    for v in range(n):
        if v not in used:
            rows.append(node_features[v].astype(np.float64))
    return np.asarray(rows)


def unique_symmetrize(graph):
    """``symmetrize`` by ``np.unique(return_index=True)`` over the forward
    edges followed by their reversals.

    ``np.unique`` keeps each key's first occurrence; the result goes
    through ``build_graph`` again.
    """
    from edgepool import build_graph

    if graph.num_edges == 0:
        return graph
    both = np.concatenate([graph.edges, graph.edges[:, ::-1]], axis=0)
    key = both[:, 0] * np.int64(graph.num_nodes) + both[:, 1]
    _, first = np.unique(key, return_index=True)
    return build_graph(graph.num_nodes, both[first], graph.node_features)


def whole_array_score_path_backward(graph, params, info, scores, g_s):
    """``score_path_backward`` over whole arrays, as the library first wrote it.

    One expression per step, every temporary kept until the end, and the
    (v, f) gradient summed over all rows at once: the dropped edges' p is
    an ``np.where``, and both endpoint terms are added into zeros.
    """
    v, f = graph.num_nodes, graph.feature_width
    w = np.asarray(params.weight, dtype=np.float64)
    e_idx = info.matched_edge_index
    g_s = np.asarray(g_s, dtype=np.float64)
    p = np.where(~scores.dropped, scores.normalized - 0.5, 0.0)
    group_coeff = np.zeros(v, dtype=np.float64)
    group_coeff[graph.edge_dst[e_idx]] = g_s * p[e_idx]
    grad_r = -group_coeff[graph.edge_dst] * p
    grad_r[e_idx] += g_s * p[e_idx]
    live = np.flatnonzero(grad_r != 0.0)
    gr = grad_r[live]
    g_src = np.bincount(graph.edge_src[live], gr, minlength=v)
    g_dst = np.bincount(graph.edge_dst[live], gr, minlength=v)
    grad_x = np.zeros((v, f), dtype=np.float64)
    grad_x += g_src[:, None] * w[:f]
    grad_x += g_dst[:, None] * w[f : 2 * f]
    x = graph.node_features.astype(np.float64)
    grad_w = np.zeros_like(w)
    grad_w[:f] = g_src @ x
    grad_w[f : 2 * f] = g_dst @ x
    return grad_x, grad_w, float(gr.sum())


def scatter_edgepool_backward(graph, params, info, scores, upstream):
    """``edgepool_backward`` with its row terms as fancy-index scatters.

    The unmatched nodes' pass-through and each pair's gated gradient are
    added into the whole-array score path's (v, f) float64 term row set by
    row set, as the library did before it gathered every node's cluster row.
    """
    k = info.num_matched
    upstream = np.asarray(upstream)
    mi, mj = info.matching[:, 0], info.matching[:, 1]
    s = scores.normalized[info.matched_edge_index]
    g_out = upstream[:k].astype(np.float64)
    x = graph.node_features
    g_s = np.einsum("kf,kf->k", g_out, x[mi].astype(np.float64) + x[mj])
    grad_x, grad_w, grad_b = whole_array_score_path_backward(graph, params, info, scores, g_s)
    unmatched = np.flatnonzero(info.cluster_of >= k)
    grad_x[unmatched] += upstream[info.cluster_of[unmatched]]
    grad_x[mi] += s[:, None] * g_out
    grad_x[mj] += s[:, None] * g_out
    return grad_x.astype(graph.node_features.dtype), grad_w, grad_b


def fancy_unpool_once(pooled_features, info):
    """``unpool_once`` by fancy row indexing: each node's cluster row over its score."""
    pooled_features = np.asarray(pooled_features)
    out = pooled_features[info.cluster_of].astype(np.float64)
    out /= info.node_score[:, None]
    return out.astype(pooled_features.dtype)


def segment_sum_unpool_backward(upstream, info):
    """``unpool_backward`` as one sparse cluster-by-node product.

    Scales each row by its gate score, then sums it into its cluster through
    a unit-weight CSR operator, which adds a row's terms into zeros in
    ascending node order.
    """
    from edgepool.graph import _segment_sum

    upstream = np.asarray(upstream)
    scaled = upstream.astype(np.float64) / info.node_score[:, None]
    out = _segment_sum(info.cluster_of, scaled, info.pooled_num_nodes)
    return out.astype(upstream.dtype)


def two_loop_train_graph_model(dataset, train_idx, eval_idx, config, pooling=True):
    """``train_graph_model`` as its own Adam loop, as the library first wrote it.

    Verbatim but for the forward call, which no longer takes the config or
    the graph count.
    """
    from edgepool.autodiff import backward
    from edgepool.graph import batch
    from edgepool.layers import cross_entropy
    from edgepool.models import (
        GraphClassifier, _batches, _check_step, evaluate_graph_model,
    )
    from edgepool.params import adam_step, lr_at_epoch
    from edgepool.rng import draw_seed, seeded_rng

    model = GraphClassifier.create(
        dataset.graphs[0].feature_width,
        dataset.num_classes,
        channels=config.channels,
        pooling=pooling,
        seed=config.seed,
    )
    train_idx = np.asarray(train_idx, dtype=np.int64)
    eval_idx = np.asarray(eval_idx, dtype=np.int64)
    history = []
    step = 0
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        epoch_rng = seeded_rng(config.seed, "graph-epoch", epoch)
        perm = train_idx[epoch_rng.permutation(len(train_idx))]
        total_loss, total_examples = 0.0, 0
        for batch_index, chunk in enumerate(_batches(perm, config.batch_size)):
            batched = batch([dataset.graphs[i] for i in chunk])
            leaves = model.params.as_vars()
            logits = model.forward(
                leaves,
                batched.graph,
                batched.graph_id,
                training=True,
                seed=draw_seed(epoch_rng),
            )
            loss = cross_entropy(logits, dataset.labels[chunk])
            backward(loss)
            _check_step(loss, leaves, epoch, batch_index)
            step += 1
            adam_step(model.params, leaves, lr, step)
            total_loss += float(loss.data) * len(chunk)
            total_examples += len(chunk)
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": total_loss / max(total_examples, 1),
            "eval_acc": evaluate_graph_model(model, dataset, eval_idx, config),
        }
        history.append(row)
    return model, history


def two_loop_train_node_model(task, config, conv_kind="mean", pooling=True):
    """``train_node_model`` as its own full-batch Adam loop, as the library
    first wrote it. Verbatim but for the forward call, which no longer takes
    the config.
    """
    from edgepool.autodiff import backward
    from edgepool.layers import cross_entropy, gather_rows
    from edgepool.models import NodeClassifier, _check_step, evaluate_node_model
    from edgepool.params import adam_step, lr_at_epoch
    from edgepool.rng import draw_seed, seeded_rng

    model = NodeClassifier.create(
        task.graph.feature_width,
        task.num_classes,
        channels=config.channels,
        conv_kind=conv_kind,
        pooling=pooling,
        seed=config.seed,
    )
    train_nodes = np.flatnonzero(task.train_mask)
    history = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        epoch_rng = seeded_rng(config.seed, "node-epoch", epoch)
        leaves = model.params.as_vars()
        logits = model.forward(leaves, task.graph, training=True, seed=draw_seed(epoch_rng))
        loss = cross_entropy(gather_rows(logits, train_nodes), task.node_labels[train_nodes])
        backward(loss)
        _check_step(loss, leaves, epoch, 0)
        adam_step(model.params, leaves, lr, epoch + 1)
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(loss.data),
            "eval_acc": evaluate_node_model(model, task, config),
        }
        history.append(row)
    return model, history


def var_batch_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    """``edgepool.layers.batch_norm``'s forward with numpy's ``x.var``: mean and
    variance computed apart, then ``(x - mean) * inv_std``."""
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return gamma * xhat + beta


def _read_lines(path, what: str, parse_row) -> list[list]:
    """Parse every non-blank line of ``path``, split at commas, with ``parse_row``.

    Raises ``ValueError`` naming ``path:line`` for a line ``parse_row`` rejects.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(parse_row(line.split(",")))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {what} line {line!r}: {exc}") from None
    return rows


def loop_load_tu(directory, name: str) -> GraphDataset:
    """``edgepool.data.load_tu`` as it was before edges were grouped by one
    sort: one Python step per edge line, then ``np.unique(axis=0)`` per graph.
    Its integer tables are read by the library's own ``_read_table``, whose
    lines ``tests/test_data.py::TestReadTable`` checks against what they
    spell; its attribute reader, one entry at a time, leaves a ragged
    attribute file to numpy to refuse.

    Load one benchmark dataset from its plain-text files.

    Node features are the attributes concatenated with a one-hot encoding
    of the node labels; datasets with neither get a constant 1.0 feature.
    Graph labels are remapped to 0..C-1 preserving sorted original order.
    Edges are symmetrized and deduplicated.
    """
    a_path = _tu_path(directory, name, "A")
    ind_path = _tu_path(directory, name, "graph_indicator")
    lab_path = _tu_path(directory, name, "graph_labels")
    for path, what in ((a_path, "adjacency"), (ind_path, "graph indicator"), (lab_path, "graph labels")):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing mandatory {what} file: {path}")

    indicator = _read_table(ind_path, "graph indicator", np.int64, 1)[:, 0]
    raw_labels = _read_table(lab_path, "graph label", np.int64, 1)[:, 0]
    edges_global = _read_table(a_path, "edge", np.int64, 2)

    total_nodes = len(indicator)
    num_graphs = len(raw_labels)
    if indicator.min(initial=1) < 1 or indicator.max(initial=1) > num_graphs:
        raise ValueError("graph indicator value out of range")

    node_labels = None
    nl_path = _tu_path(directory, name, "node_labels")
    if os.path.exists(nl_path):
        node_labels = _read_table(nl_path, "node label", np.int64, 1)[:, 0]
        if len(node_labels) != total_nodes:
            raise ValueError("node label count != node count")

    attributes = None
    attr_path = _tu_path(directory, name, "node_attributes")
    if os.path.exists(attr_path):
        rows = _read_lines(attr_path, "node attribute", lambda tokens: list(map(_float32, tokens)))
        attributes = np.asarray(rows, dtype=np.float32)
        if attributes.shape[0] != total_nodes:
            raise ValueError("node attribute count != node count")

    feature_parts = []
    if attributes is not None:
        feature_parts.append(attributes)
    if node_labels is not None:
        values = np.unique(node_labels)
        onehot = np.zeros((total_nodes, len(values)), dtype=np.float32)
        onehot[np.arange(total_nodes), np.searchsorted(values, node_labels)] = 1.0
        feature_parts.append(onehot)
    if feature_parts:
        features = np.concatenate(feature_parts, axis=1)
    else:
        features = np.ones((total_nodes, 1), dtype=np.float32)

    # Group nodes per graph; the format lists nodes in graph order.
    node_graph = indicator - 1
    counts = np.bincount(node_graph, minlength=num_graphs)
    if np.any(np.diff(node_graph) < 0):
        raise ValueError("graph indicator must be non-decreasing")
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])

    per_graph_edges: list[list[tuple[int, int]]] = [[] for _ in range(num_graphs)]
    for u, v in edges_global:
        if not (1 <= u <= total_nodes and 1 <= v <= total_nodes):
            raise ValueError(f"edge endpoint {u if u < 1 or u > total_nodes else v} out of range")
        gu, gv = node_graph[u - 1], node_graph[v - 1]
        if gu != gv:
            raise ValueError(f"edge ({u}, {v}) references a node outside its graph")
        off = offsets[gu]
        per_graph_edges[gu].append((u - 1 - off, v - 1 - off))

    label_values = np.unique(raw_labels)
    labels = np.searchsorted(label_values, raw_labels).astype(np.int64)

    graphs = []
    for g in range(num_graphs):
        n = int(counts[g])
        off = int(offsets[g])
        raw = np.asarray(per_graph_edges[g], dtype=np.int64).reshape(-1, 2)
        uniq = np.unique(raw, axis=0) if raw.size else raw
        graph = build_graph(n, uniq, features[off : off + n])
        graphs.append(symmetrize(graph))

    return GraphDataset(graphs=graphs, labels=labels, num_classes=len(label_values), name=name)


def keeping_backward(root, seed=None) -> None:
    """``autodiff.backward`` as it was before it consumed the tape: the same
    walk and casts, but every node keeps its vjp and its gradient."""
    from edgepool.autodiff import _topo_order

    root.grad = np.ones_like(root.data) if seed is None else (
        _real("seed", seed, root.data.shape).astype(root.data.dtype, copy=False))
    for node in reversed(_topo_order(root)):
        if node.vjp is None or node.grad is None:
            continue
        grads = node.vjp(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            g = np.asarray(g, dtype=parent.data.dtype if parent.data.dtype.kind == "f" else np.float64)
            parent.grad = g if parent.grad is None else parent.grad + g


def listed_backward(root: Var, seed: np.ndarray | None = None) -> None:
    """``autodiff.backward`` as it was before the walk dropped each node's
    parents: it walks ``reversed(order)``, so the order keeps every node,
    and a held root's parents every node below it, alive until the walk
    ends. Each walked node still drops its vjp and its gradient."""
    from edgepool.autodiff import _consumed, _topo_order

    seed = np.ones_like(root.data) if seed is None else (
        _real("seed", seed, root.data.shape).astype(root.data.dtype, copy=False))
    order = _topo_order(root)
    root.grad = seed
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        grads = node.vjp(node.grad)
        node.vjp, node.grad = _consumed, None  # a leaf has no vjp, so it keeps its gradient
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            g = np.asarray(g, dtype=parent.data.dtype if parent.data.dtype.kind == "f" else np.float64)
            parent.grad = g if parent.grad is None else parent.grad + g


def formula_batch_norm(x: Var, gamma: Var, beta: Var) -> Var:
    """``edgepool.layers.batch_norm`` as it was before its vjp built the
    gradient of ``x`` in place: the vjp evaluates the formula as one
    expression, with four (n, f) arrays live at its peak."""
    from edgepool.layers import BATCH_NORM_EPS

    xd = _real("x", x.data, (None, None))
    g = _real("gamma", gamma.data, xd.shape[1:])
    n = xd.shape[0]
    if n < 1:
        raise ValueError("x must have at least 1 row")
    centered = xd - xd.mean(axis=0)
    var = np.add.reduce(centered * centered, axis=0) / n
    inv_std = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
    xhat = centered * inv_std
    y = g * xhat + _real("beta", beta.data, xd.shape[1:])

    def vjp(dy):
        dgamma = (dy * xhat).sum(axis=0)
        dbeta = dy.sum(axis=0)
        dxhat = dy * g
        dx = inv_std * (
            dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).sum(axis=0) / n
        )
        return dx, dgamma, dbeta

    return Var(y, (x, gamma, beta), vjp)


def linked_relu(x: Var) -> Var:
    """``layers.relu`` as it was before it linked past its producer: its vjp
    reads ``x``, and the tape keeps ``x``, so it keeps every pre-activation."""
    xd = _real("x", x.data, (None,) * x.data.ndim)
    y = np.maximum(xd, 0)

    def vjp(dy):
        return ((xd > 0) * dy,)

    return Var(y, (x,), vjp)
