"""Independent reference implementations used to validate the library.

Everything here is written the slow, obvious way (python loops, repeated
scans, at most one sort) so that agreement with the optimized code is
meaningful.
"""

from __future__ import annotations

import math

import numpy as np


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


def brute_force_max_matching_size(num_nodes: int, undirected_pairs: set) -> int:
    """Size of a maximum (not merely maximal) matching, by recursion.

    Used only to sanity-check reduction ratios on tiny graphs.
    """
    pairs = sorted(undirected_pairs)

    def rec(available: frozenset, idx: int) -> int:
        best = 0
        for k in range(idx, len(pairs)):
            i, j = pairs[k]
            if i in available and j in available:
                best = max(best, 1 + rec(available - {i, j}, k + 1))
        return best

    return rec(frozenset(range(num_nodes)), 0)


def unique_symmetrize(graph):
    """``symmetrize`` by ``np.unique(return_index=True)`` over the forward
    edges followed by their reversals.

    ``np.unique`` keeps each key's first occurrence, so an existing edge
    wins over an added reversal and keeps its features; the result goes
    through ``build_graph`` again.
    """
    from edgepool import build_graph

    if graph.num_edges == 0:
        return graph
    both = np.concatenate([graph.edges, graph.edges[:, ::-1]], axis=0)
    key = both[:, 0] * np.int64(graph.num_nodes) + both[:, 1]
    _, first = np.unique(key, return_index=True)
    ef = None
    if graph.edge_features is not None:
        ef = np.concatenate([graph.edge_features, graph.edge_features], axis=0)[first]
    return build_graph(graph.num_nodes, both[first], graph.node_features, ef)


def scatter_edgepool_backward(graph, params, info, scores, upstream):
    """``edgepool_backward`` with its row terms as fancy-index scatters.

    The unmatched nodes' pass-through and each pair's gated gradient are
    added into the score path's (v, f) float64 term row set by row set,
    as the library did before it gathered every node's cluster row.
    """
    from edgepool.pool import _pair_features, score_path_backward

    k = info.num_matched
    upstream = np.asarray(upstream)
    mi, mj = info.matching[:, 0], info.matching[:, 1]
    s = scores.normalized[info.matched_edge_index]
    g_out = upstream[:k].astype(np.float64)
    g_s = np.einsum("kf,kf->k", g_out, _pair_features(graph, info.matching))
    grad_x, grad_w, grad_b = score_path_backward(graph, params, info, scores, g_s)
    unmatched = np.flatnonzero(info.cluster_of >= k)
    grad_x[unmatched] += upstream[info.cluster_of[unmatched]]
    grad_x[mi] += s[:, None] * g_out
    grad_x[mj] += s[:, None] * g_out
    dtype = graph.node_features.dtype
    return grad_x.astype(dtype), grad_w.astype(dtype), grad_b


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
