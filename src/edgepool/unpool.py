"""Inverse of pooling: map pooled node features back to finer resolutions.

Each original node receives its pooled representative's feature vector
divided by the gating score stored at pooling time; unmatched nodes
(score 1.0) are plain copies. The map is linear in the features, so the
backward pass is its exact adjoint, the level's member sum
(``pool._member_rows``) of the divided rows. Several levels unpool by
applying :func:`unpool_once` per level, innermost first; its row check
rejects a level that does not fit the one before. Both directions are row
gathers (``np.take``), with no sparse operator.
"""

from __future__ import annotations

import numpy as np

from .pool import PoolInfo, _member_rows

__all__ = ["unpool_once", "unpool_backward"]


def unpool_once(pooled_features: np.ndarray, info: PoolInfo) -> np.ndarray:
    """Expand one level: copy each cluster's row, divided by its gate score.

    Both members of a merged pair receive the same vector.
    """
    pooled_features = _checked(pooled_features, info.pooled_num_nodes, "pooled feature", info)
    out = np.take(pooled_features, info.cluster_of, axis=0).astype(np.float64, copy=False)
    out /= info.node_score[:, None]
    return out.astype(pooled_features.dtype, copy=False)


def unpool_backward(upstream_grad: np.ndarray, info: PoolInfo) -> np.ndarray:
    """Adjoint of :func:`unpool_once`: each pooled node's members' upstream
    rows, each over its gate score, summed, plus 0.0 (so -0.0 reads +0.0, as
    in a sum into zeros)."""
    upstream = _checked(upstream_grad, len(info.cluster_of), "gradient", info)
    out = _member_rows(info, upstream, info.node_score)
    out += 0.0
    return out.astype(upstream.dtype, copy=False)


def _checked(x: np.ndarray, rows: int, what: str, info: PoolInfo) -> np.ndarray:
    """``x`` as a 2-D array; ``ValueError`` unless it has ``rows`` rows and gates are > 0."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != rows:
        raise ValueError(f"expected {rows} {what} rows, got shape {x.shape}")
    if not np.all(info.node_score > 0.0):
        raise ValueError("gate scores must be positive")
    return x

