"""Inverse of pooling: map pooled node features back to finer resolutions.

Each original node receives its pooled representative's feature vector
divided by the gating score stored at pooling time; unmatched nodes
(score 1.0) are plain copies. The map is linear in the features, so the
backward pass is its exact adjoint, the level's member sum
(``pool._member_rows``) of the divided rows. Several levels unpool by
applying :func:`unpool_once` per level, innermost first. Both directions
take a 2-D real array with one row per node of their side of the level,
by the one rule of real arrays (``graph._real``): a level that does not fit
the one before is refused, and so are boolean arrays, while integer arrays
are widened to float64, never truncated. Both directions are row gathers
(``np.take``), with no sparse operator.
"""

from __future__ import annotations

import numpy as np

from .graph import _real
from .pool import PoolInfo, _member_rows

__all__ = ["unpool_once", "unpool_backward"]


def unpool_once(pooled_features: np.ndarray, info: PoolInfo) -> np.ndarray:
    """Expand one level: copy each cluster's row, divided by its gate score.

    Both members of a merged pair receive the same vector.
    """
    x = _real("pooled_features", pooled_features, (info.pooled_num_nodes, None))
    out = np.take(x, info.cluster_of, axis=0).astype(np.float64, copy=False)
    out /= _gate_scores(info)[:, None]
    return out.astype(x.dtype, copy=False)


def unpool_backward(upstream_grad: np.ndarray, info: PoolInfo) -> np.ndarray:
    """Adjoint of :func:`unpool_once`: each pooled node's members' upstream
    rows, each over its gate score, summed, plus 0.0 (so -0.0 reads +0.0, as
    in a sum into zeros)."""
    upstream = _real("upstream_grad", upstream_grad, (len(info.cluster_of), None))
    out = _member_rows(info, upstream, _gate_scores(info))
    out += 0.0
    return out.astype(upstream.dtype, copy=False)


def _gate_scores(info: PoolInfo) -> np.ndarray:
    """``info.node_score``; ``ValueError`` unless every gate score is > 0."""
    if not np.all(info.node_score > 0.0):
        raise ValueError("gate scores must be positive")
    return info.node_score
