"""Inverse of pooling: map pooled node features back to finer resolutions.

Each original node receives its pooled representative's feature vector
divided by the gating score stored at pooling time; unmatched nodes
(score 1.0) are plain copies. The map is linear in the features, so the
backward pass is its exact adjoint, and levels chain by composing cluster
maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import _segment_sum
from .pool import PoolInfo

__all__ = ["UnpoolPlan", "unpool_once", "unpool_chain", "unpool_backward"]


@dataclass(frozen=True)
class UnpoolPlan:
    """Ordered pooling levels, outermost (first-applied) first."""

    levels: tuple[PoolInfo, ...]

    def __post_init__(self):
        for a, b in zip(self.levels, self.levels[1:]):
            if a.pooled_num_nodes != len(b.cluster_of):
                raise ValueError(
                    f"level chain broken: {a.pooled_num_nodes} pooled nodes "
                    f"feed a level expecting {len(b.cluster_of)}"
                )


def unpool_once(pooled_features: np.ndarray, info: PoolInfo) -> np.ndarray:
    """Expand one level: copy each cluster's row, divided by its gate score.

    Both members of a merged pair receive the same vector.
    """
    pooled_features = np.asarray(pooled_features)
    if pooled_features.ndim != 2 or pooled_features.shape[0] != info.pooled_num_nodes:
        raise ValueError(
            f"expected {info.pooled_num_nodes} pooled feature rows, "
            f"got shape {pooled_features.shape}"
        )
    if not np.all(info.node_score > 0.0):
        raise ValueError("gate scores must be positive")
    out = pooled_features[info.cluster_of].astype(np.float64)
    out /= info.node_score[:, None]
    return out.astype(pooled_features.dtype)


def unpool_chain(features: np.ndarray, plan: UnpoolPlan) -> np.ndarray:
    """Apply :func:`unpool_once` for every level, innermost first."""
    out = np.asarray(features)
    for info in reversed(plan.levels):
        out = unpool_once(out, info)
    return out


def unpool_backward(upstream_grad: np.ndarray, info: PoolInfo) -> np.ndarray:
    """Adjoint of :func:`unpool_once`.

    Sums, over the originals of each cluster, the upstream gradient divided
    by the gate score.
    """
    upstream = np.asarray(upstream_grad)
    if upstream.ndim != 2 or upstream.shape[0] != len(info.cluster_of):
        raise ValueError(
            f"expected {len(info.cluster_of)} gradient rows, got shape {upstream.shape}"
        )
    if not np.all(info.node_score > 0.0):
        raise ValueError("gate scores must be positive")
    # Divide before summing; folding 1/score into the operator's weights
    # rounds differently.
    scaled = upstream.astype(np.float64) / info.node_score[:, None]
    out = _segment_sum(info.cluster_of, scaled, info.pooled_num_nodes)
    return out.astype(upstream.dtype)
