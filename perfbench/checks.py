"""Exact output checks for the benchmark workloads.

Each check returns a list of error strings; an empty list means the output
is correct. They depend only on array semantics, not on how the package
computes its result, so they keep holding when an implementation changes.
"""

from __future__ import annotations

import math

import numpy as np


def greedy_matching_errors(graph, scores, matching) -> list[str]:
    """Check that ``matching`` is exactly the greedy matching, in O(m log m).

    Kept (non-dropped) edges are ranked by normalized score descending, then
    canonical edge index ascending. The matching is the greedy one iff its
    pairs are kept edges, pairwise disjoint, listed in rank order, and every
    unmatched kept edge has an endpoint matched by an edge of earlier rank.
    (By induction over the ranks: a matched edge finds both endpoints free,
    and an unmatched one finds an endpoint already taken.)
    """
    n, m = graph.num_nodes, graph.num_edges
    matching = np.asarray(matching, dtype=np.int64).reshape(-1, 2)
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    keys = src * np.int64(n) + dst
    want = matching[:, 0] * np.int64(n) + matching[:, 1]
    idx = np.searchsorted(keys, want)
    found = idx < m
    found[found] = keys[idx[found]] == want[found]
    if not found.all():
        return [f"{int((~found).sum())} matched pairs are not edges of the graph"]
    errors = []
    if scores.dropped[idx].any():
        errors.append(f"{int(scores.dropped[idx].sum())} matched edges were dropped")
    if np.bincount(matching.ravel(), minlength=n).max(initial=0) > 1:
        errors.append("matched pairs share a node")
    if errors:
        return errors

    kept = np.flatnonzero(~scores.dropped)
    order = kept[np.lexsort((kept, -scores.normalized[kept]))]
    rank = np.full(m, m, dtype=np.int64)
    rank[order] = np.arange(order.size)
    matched_rank = rank[idx]
    if np.any(np.diff(matched_rank) <= 0):
        errors.append("matched pairs are not listed in selection order")
    cover = np.full(n, m, dtype=np.int64)
    cover[matching[:, 0]] = matched_rank
    cover[matching[:, 1]] = matched_rank
    is_matched = np.zeros(m, dtype=bool)
    is_matched[idx] = True
    free = kept[~is_matched[kept]]
    blocked_by = np.minimum(cover[src[free]], cover[dst[free]])
    missed = free[blocked_by >= rank[free]]
    if missed.size:
        e = int(missed[0])
        errors.append(
            f"{missed.size} unmatched edges had both endpoints free at their turn "
            f"(first: edge {e} = ({int(src[e])}, {int(dst[e])}))"
        )
    return errors


def pooled_size_errors(graph, pooled, info) -> list[str]:
    """The pooled graph has one node per matched pair plus each unmatched node."""
    expect = graph.num_nodes - info.num_matched
    if pooled.num_nodes != expect or info.pooled_num_nodes != expect:
        return [f"pooled node count {pooled.num_nodes} != n - k = {expect}"]
    return []


def unpool_adjoint_errors(info, unpool_once, unpool_backward, rng, width=4, rtol=1e-9):
    """<unpool(y), x> == <y, unpool_backward(x)> for float64 probes y, x."""
    y = rng.normal(size=(info.pooled_num_nodes, width))
    x = rng.normal(size=(len(info.cluster_of), width))
    lhs = float(np.vdot(unpool_once(y, info), x))
    rhs = float(np.vdot(y, unpool_backward(x, info)))
    if not abs(lhs - rhs) <= rtol * max(abs(lhs), abs(rhs), 1.0):
        return [f"unpool adjoint identity off: {lhs!r} vs {rhs!r}"]
    return []


def backward_errors(graph, grads) -> list[str]:
    """Pooling gradients have the input's shape and are finite."""
    gx, gw, gb = grads
    errors = []
    if gx.shape != graph.node_features.shape:
        errors.append(f"input gradient shape {gx.shape} != {graph.node_features.shape}")
    if not (np.isfinite(gx).all() and np.isfinite(gw).all() and math.isfinite(gb)):
        errors.append("pooling gradient is not finite")
    return errors


def history_errors(rows, band_epoch: int, band: tuple[float, float]) -> list[str]:
    """Every epoch's loss and accuracy are finite; the loss at ``band_epoch`` is in band."""
    errors = []
    for row in rows:
        if not math.isfinite(row["train_loss"]):
            errors.append(f"epoch {row['epoch']}: train loss {row['train_loss']!r}")
        if not 0.0 <= row["eval_acc"] <= 1.0:
            errors.append(f"epoch {row['epoch']}: eval accuracy {row['eval_acc']!r}")
    if len(rows) <= band_epoch:
        errors.append(f"training stopped before epoch {band_epoch}")
    else:
        loss = rows[band_epoch]["train_loss"]
        if not band[0] <= loss <= band[1]:
            errors.append(f"epoch {band_epoch} loss {loss!r} outside band {band}")
    return errors
