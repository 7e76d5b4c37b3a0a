"""Edge-contraction pooling: scoring, greedy selection, merge, exact backward.

One pooling level works in four stages:

1. every directed edge gets a raw score, a linear function of the
   concatenated endpoint features (plus edge features, when configured);
2. raw scores are normalized per destination node with a softmax shifted
   so the score range is centred at 1;
3. edges are contracted greedily in score order, skipping any edge with an
   already-merged endpoint, which yields a maximal matching. The order is
   strict (score descending, canonical edge index ascending), so the greedy
   matching is found without sorting every edge: in vectorized rounds, each
   taking the edges that rank first among the alive edges at both of their
   endpoints, with a sequential sweep once rounds stop paying off. The
   sweep sorts its edges in blocks of the visiting order, each just before
   its visit, so the edges matched away first are never sorted;
4. each matched pair collapses to one node whose feature vector is the sum
   of the pair's features gated (multiplied) by the edge score, so that
   gradients reach the scoring parameters despite the discrete selection.

The backward pass differentiates stages 1, 2, and 4 exactly, treating the
selection of stage 3 as a constant.

The forward compacts arrays by index, not by boolean mask: one
``np.flatnonzero`` per mask, then integer takes. On numpy 2.4 a 1e6-entry
random mask costs 6-8 ms per array it selects from, against about 1 ms
for ``np.flatnonzero`` and about 1 ms per take after it, and selection
compacts four arrays per round. The one mask left is deduplication's
step mask, which is nearly all true and costs about 1.4 ms. Rows of 2-D
arrays are gathered with ``np.take(a, idx, axis=0)``: on numpy 2.4.6 the
fancy row index ``a[idx]`` gives the same rows 5-6x slower.

At scale a level's memory is its arrays with one entry per directed edge
(m of them, 8 bytes each). Between stages the forward holds only the
normalized scores and the dropped mask; it frees the raw scores once they
are normalized. Within a stage, temporaries are built in place (``out=``,
``&=``, ``*=``) and deleted before the next one is made, so ``contract``,
the forward's peak, holds about five m-length arrays and the score-path
backward about two. The backward's (v, f) float64 updates run over row
blocks of ``_ROW_BLOCK_BYTES`` (2 MB, one block at training sizes);
elementwise operations round the same in any blocking, so the blocks
change no bit. Measured on numpy 2.4.6 at 1e6 edges:

- when a level starts on a trimmed heap (as in perfbench's ``pool_1e6``
  loop), the forward grows it again, and the backward runs free of page
  faults only if its peak fits under the forward's. With whole-array
  (v, f) updates it did not: a median of 346 minor faults per backward
  call there, against 0 with row blocks;
- ``np.flatnonzero`` of a float array with 33k nonzeros took 5.7 ms, of
  ``a != 0.0`` 1.9 ms;
- a float32 by float64 row scaling took 5.4 ms, a float64 copy scaled in
  place 3.9 ms.

Measured on numpy 2.4.6 for the block sweep, against one stable argsort
of every edge handed to the sweep:

- on perfbench's ``node_train`` graph (2,000 nodes, about 33k directed
  edges, mean degree about 16) the rounds leave about 19k edges to the
  sweep, of which a few thousand are still unmatched at both ends when
  their block comes. ``select_contractions`` took 4.4-4.5 ms per call,
  against 7.8-8.8 ms (the calls of 10 training epochs, seeds 3 and 11,
  replayed in-process);
- on the 100k-node monotone path of the tests, which the sweep visits
  almost whole, selection took 0.088 against 0.094 s (medians of 16
  alternating rounds, best of 5 each; faster in 14). Four variants did
  worse there, each against one argsort in the same run: compacting the
  remainder's arrays after each block, so that later blocks scan only it
  (0.074 against 0.057 s), since every block copied the whole remainder;
  blocks of a fixed 512 edges (0.19 against 0.087 s), one scan per block;
  and recording the taken edges in Python lists, of edge indices (0.103
  against 0.096 s) or of endpoint pairs (0.081 against 0.081 s), whose
  ints are made and read back one at a time.
"""

from __future__ import annotations

from array import array
from dataclasses import KW_ONLY, InitVar, dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, _require_finite, _segment_sum, _sorted_unique, graph_to_json
from .rng import seeded_rng

__all__ = [
    "PoolParams",
    "EdgeScores",
    "PoolInfo",
    "raw_scores",
    "normalize_scores",
    "apply_score_dropout",
    "select_contractions",
    "contract",
    "edgepool_forward",
    "edgepool_backward",
    "random_pool_params",
    "pool_hierarchy",
    "hierarchy_to_json",
]


@dataclass(frozen=True)
class PoolParams:
    """Linear edge scorer: weight has length 2f, or 2f+g with edge features."""

    weight: np.ndarray
    bias: float


@dataclass(frozen=True)
class EdgeScores:
    """Per-directed-edge scores for one pooling level.

    ``normalized`` is the shifted softmax value in (0.5, 1.5) for kept
    edges and exactly 0.0 for dropped ones. ``dropped`` marks edges removed
    by score dropout; they take part in neither normalization nor
    selection. The scorer output itself is not kept, since neither
    selection nor the backward reads it; :func:`raw_scores` recomputes it.
    A ``raw=`` keyword is accepted and discarded, so that constructions
    written when it was the first field still run; keyword-only, so that a
    positional call in the old order fails instead of shifting the fields.
    """

    normalized: np.ndarray
    dropped: np.ndarray
    _: KW_ONLY
    raw: InitVar[np.ndarray | None] = None


@dataclass(frozen=True)
class PoolInfo:
    """One coarsening level: which pairs merged and how to map back.

    ``matching`` lists the contracted directed edges in selection order;
    pooled node c < len(matching) is the merge of matching[c]. ``cluster_of``
    maps every original node to its pooled node. ``node_score`` is the
    gating score of the edge that merged the node (1.0 for unmatched nodes).
    ``matched_edge_index`` caches each matched pair's canonical edge index.
    """

    matching: np.ndarray
    cluster_of: np.ndarray
    node_score: np.ndarray
    matched_edge_index: np.ndarray

    @property
    def num_matched(self) -> int:
        return int(self.matching.shape[0])

    @property
    def pooled_num_nodes(self) -> int:
        return len(self.cluster_of) - self.num_matched


def _check_widths(graph: Graph, params: PoolParams) -> int:
    f = graph.feature_width
    g = graph.edge_feature_width
    expected = 2 * f + g
    if len(params.weight) != expected:
        raise ValueError(
            f"scorer weight length {len(params.weight)} does not match "
            f"2*{f}+{g}={expected} for this graph"
        )
    return f


@np.errstate(over="ignore")  # an overflow to inf is normalize_scores' to reject
def raw_scores(graph: Graph, params: PoolParams) -> np.ndarray:
    """Linear raw score per directed edge, in float64.

    For edge (i, j): weight . (features_i ++ features_j [++ edge_features])
    plus bias. The node terms are projected once per node, then gathered.
    """
    f = _check_widths(graph, params)
    w = np.asarray(params.weight, dtype=np.float64)
    x = graph.node_features.astype(np.float64, copy=False)
    r = (x @ w[:f])[graph.edge_src]
    r += (x @ w[f : 2 * f])[graph.edge_dst]
    if graph.edge_feature_width:
        r += graph.edge_features.astype(np.float64, copy=False) @ w[2 * f :]
    r += float(params.bias)
    return r


def normalize_scores(graph: Graph, raw: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """Shifted softmax over the incoming edges of each destination node.

    For every non-dropped edge (i, j): 0.5 plus the softmax (over all
    non-dropped edges into j) of the raw score, computed with
    max-subtraction in double precision. Edges marked in the boolean mask
    ``dropped`` (all false without score dropout) get exactly 0.0. Kept
    values lie in (0.5, 1.5) and, per destination, sum to
    (#incoming kept) * 0.5 + 1. Raises ``ValueError`` when a kept raw
    score is NaN or infinite (an overflowing scorer, say), since selection
    compares scores for equality.
    """
    m = graph.num_edges
    raw = np.asarray(raw, dtype=np.float64)
    dropped = np.asarray(dropped, dtype=bool)
    if raw.shape != (m,) or dropped.shape != (m,):
        raise ValueError(f"raw scores and the dropped mask must have shape ({m},)")
    # With nothing dropped, a full slice skips the compaction (1-3 ms at 1e6
    # edges), and the softmax buffer is the result.
    keep = np.flatnonzero(~dropped) if dropped.any() else slice(None)
    dst = graph.edge_dst[keep]
    r = raw[keep]
    if not np.isfinite(r).all():
        raise ValueError("edge scores must be finite: a kept raw score is NaN or infinite")
    mx = np.full(graph.num_nodes, -np.inf)
    np.maximum.at(mx, dst, r)
    ex = mx[dst]
    np.subtract(r, ex, out=ex)
    np.exp(ex, out=ex)
    # bincount adds the weights in input order, as an in-order scatter-add.
    denom = np.bincount(dst, ex, minlength=graph.num_nodes)
    ex /= denom[dst]
    ex += 0.5
    if isinstance(keep, slice):
        return ex
    out = np.zeros(m, dtype=np.float64)
    out[keep] = ex
    return out


def _check_dropout_rate(p: float) -> None:
    """The one rule for a dropout rate, of edge scores or of features: 0 <= p < 1."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")


def apply_score_dropout(num_edges: int, p: float, seed: int) -> np.ndarray:
    """Boolean mask dropping each of ``num_edges`` edges with probability ``p``.

    Training only; deterministic given the seed. Dropped edges take part in
    neither normalization nor selection.
    """
    _check_dropout_rate(p)
    rng = seeded_rng(seed, "edge-score-dropout")
    return rng.random(num_edges) < p


# A round that removes less than this share of the alive edges hands them to
# the sequential sweep; rounds on the bulk of a random graph remove about 2/3.
# With the block sweep, shares from 0.25 to 1.0 gave the same node_train
# selection time (4.3-4.5 ms per call), and at 0.25 neither graph_train
# nor pool_1e6 reaches the sweep.
_SWEEP_SHARE = 0.25
# The sweep's first block of edges, and the factor by which each next one grows.
_SWEEP_BLOCK = 512
_SWEEP_GROWTH = 4


def select_contractions(graph: Graph, scores: EdgeScores) -> np.ndarray:
    """Greedy maximal matching over non-dropped edges.

    The greedy visits edges by normalized score descending, canonical edge
    index ascending on ties, and takes an edge iff neither endpoint is
    matched yet. Under that strict order, an edge that ranks first among
    the alive edges at both of its endpoints (locally dominant) is taken:
    no edge ranked above it touches those endpoints. Every other edge at
    them ranks below it and is skipped. So the greedy matching is the
    locally dominant edges plus the greedy matching of the edges left
    after removing their endpoints, and it is built in rounds over the
    alive kept edges without a global sort. Each round finds every node's
    first incident edge (``np.maximum.at`` on the score, then
    ``np.minimum.at`` on the edge index over the incidences at that best
    score), takes every edge that is first at both endpoints, and drops
    every edge that touches a newly matched node. A chain of monotone
    scores matches one edge per round, so once a round removes less than
    ``_SWEEP_SHARE`` of the alive edges, :func:`_greedy_sweep` finishes
    the remaining edges in order, which is exact for the same reason. It
    sorts them block by block and skips, before each block is sorted, the
    edges already matched away, which on a dense graph are most of them.
    Returns the matched directed edges in selection order (the greedy's
    visiting order) as a (k, 2) int64 array.
    """
    v = graph.num_nodes
    if scores.dropped.any():
        e = np.flatnonzero(~scores.dropped)
        src, dst, s = graph.edge_src[e], graph.edge_dst[e], scores.normalized[e]
    else:  # round 1 reads the graph's endpoint columns and the scores themselves
        e = np.arange(graph.num_edges)
        src, dst, s = graph.edge_src, graph.edge_dst, scores.normalized
    taken = [np.zeros(0, dtype=np.int64)]
    while e.size:
        best = np.full(v, -np.inf)
        np.maximum.at(best, src, s)
        np.maximum.at(best, dst, s)
        first = np.full(v, graph.num_edges, dtype=np.int64)
        at = np.flatnonzero(s == best[src])
        np.minimum.at(first, src[at], e[at])
        at = np.flatnonzero(s == best[dst])
        np.minimum.at(first, dst[at], e[at])
        del at
        hit = first[src] == e
        hit &= first[dst] == e
        win = np.flatnonzero(hit)
        taken.append(e[win])
        matched = np.zeros(v, dtype=bool)
        matched[src[win]] = True
        matched[dst[win]] = True
        gone = matched[src]
        gone |= matched[dst]
        alive = np.flatnonzero(np.logical_not(gone, out=gone))
        del hit, gone
        before = e.size
        # One array at a time, so each old one is freed before the next copy.
        e = e[alive]
        src = src[alive]
        dst = dst[alive]
        s = s[alive]
        del alive
        if before - e.size < _SWEEP_SHARE * before:
            taken.append(_greedy_sweep(e, src, dst, s, v))
            break
    # Selection order: only the k taken edges are sorted.
    t = np.sort(np.concatenate(taken))
    t = t[np.argsort(-scores.normalized[t], kind="stable")]
    return np.stack([graph.edge_src[t], graph.edge_dst[t]], axis=1)


def _greedy_sweep(
    e: np.ndarray, src: np.ndarray, dst: np.ndarray, s: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Sequential greedy over edges ``e`` (ascending) with endpoints and scores.

    Visits by score descending, index ascending on ties; returns the taken
    edge indices, ascending. The edges must touch no node matched earlier,
    so every node starts unmatched, and must be canonical edges in
    canonical order, so that their (src, dst) keys ascend with ``e``.

    Most edges touch a matched node by the time their turn comes, so the
    visiting order is cut into blocks by score, and each block is sorted
    just before its visit, without the edges matched away meanwhile. One
    ``np.partition`` finds each block's lowest score: the scores of rank
    ``_SWEEP_BLOCK``, then of ranks further on by blocks growing
    ``_SWEEP_GROWTH``-fold, up to where at most two more blocks' worth is
    left; the last block is the rest. A block takes every edge scoring from
    its bound up to the previous block's bound, so whole tie classes come
    in and the blocks are consecutive runs of the visiting order; a stable
    sort of a block keeps its ties in index order. Each block scans all
    the edges to find its members, which the growth keeps to a few scans.
    The loop stores each taken edge's dst under its src in a C ``array``,
    which numpy reads without conversion; the taken edges' keys are then
    looked up.
    """
    m = e.size
    ends, size = [0], _SWEEP_BLOCK
    while m - ends[-1] > 2 * size:
        ends.append(ends[-1] + size)
        size *= _SWEEP_GROWTH
    kth = [m - c for c in ends[1:]]
    bounds = np.partition(s, kth)[kth].tolist() if kth else []
    matched = bytearray(num_nodes)
    is_matched = np.frombuffer(matched, dtype=bool)
    mate = array("q", [-1]) * num_nodes
    above = np.inf
    for t in bounds + [-np.inf]:
        block = np.flatnonzero((s >= t) & (s < above))
        gone = is_matched[src[block]]
        gone |= is_matched[dst[block]]
        block = block[np.flatnonzero(~gone)]
        order = block[np.argsort(-s[block], kind="stable")]
        for i, j in zip(src[order].tolist(), dst[order].tolist()):
            if not matched[i] and not matched[j]:
                matched[i] = 1
                matched[j] = 1
                mate[i] = j
        above = t
    mate = np.frombuffer(mate, dtype=np.int64)
    taken = np.flatnonzero(mate >= 0)
    n = np.int64(num_nodes)
    key = src * n
    key += dst
    return e[np.searchsorted(key, taken * n + mate[taken])]


def _pair_features(graph: Graph, matching: np.ndarray) -> np.ndarray:
    """Pre-gating merged features per matched edge, float64, (k, f)."""
    # Gather the matched rows before widening them: no (v, f) float64 copy.
    # The add widens the second gather on the fly (numpy reuses the first's buffer).
    x_src = np.take(graph.node_features, matching[:, 0], axis=0).astype(np.float64)
    return x_src + np.take(graph.node_features, matching[:, 1], axis=0)


def _matched_edge_index(
    graph: Graph, matching: np.ndarray, src_c: np.ndarray, dst_c: np.ndarray
) -> np.ndarray:
    """Canonical edge index per matched pair, from each edge's endpoint clusters.

    Raises ``ValueError`` naming the first pair that is not an edge.
    """
    inner = np.flatnonzero(src_c == dst_c)
    hit = inner[graph.edge_src[inner] == matching[src_c[inner], 0]]
    edge_idx = np.full(matching.shape[0], -1, dtype=np.int64)
    edge_idx[src_c[hit]] = hit
    if np.any(edge_idx < 0):
        bad = matching[np.argmax(edge_idx < 0)]
        raise ValueError(f"({bad[0]}, {bad[1]}) is not an edge of the graph")
    return edge_idx


@np.errstate(over="ignore")
def contract(
    graph: Graph,
    matching: np.ndarray | Sequence,
    scores: EdgeScores,
) -> tuple[Graph, PoolInfo]:
    """Collapse each matched edge into one node; rebuild the edge set.

    Pooled node order: merged nodes first in matching order, then unmatched
    nodes in original order. Pooled edges are the image of the original
    edges under the cluster map, with self-loops removed and parallel
    edges deduplicated (edge features of collapsing edges are summed).
    The matched edges are read off the cluster map: the only edges it
    sends into one cluster run between the two members of a pair, and a
    pair's matched edge is the one that starts at its first member.
    Deduplication sorts the int64 key ``src * pooled_n + dst`` (the bound
    of :func:`build_graph`) and keeps each value that differs from its
    predecessor; the sorted unique keys decode to canonical edges, so the
    pooled graph is built directly, without :func:`build_graph`'s sort and
    checks. The features computed here are checked to be finite, since a
    gated float32 sum can overflow (with no warning). Only with edge features is
    each edge's pooled index looked up (``np.searchsorted``), to sum the
    features of edges that collapse into one.
    """
    matching = np.asarray(matching, dtype=np.int64).reshape(-1, 2)
    v = graph.num_nodes
    k = matching.shape[0]

    if np.any((matching < 0) | (matching >= v)):
        raise ValueError(f"invalid matching: a node index is outside [0, {v})")
    if np.any(np.bincount(matching.ravel(), minlength=v) > 1):
        raise ValueError("invalid matching: a node appears in two matched edges")

    cluster_of = np.full(v, -1, dtype=np.int64)
    cluster_of[matching] = np.arange(k)[:, None]
    unmatched = np.flatnonzero(cluster_of < 0)
    cluster_of[unmatched] = k + np.arange(len(unmatched))

    src_c = cluster_of[graph.edge_src]
    dst_c = cluster_of[graph.edge_dst]
    edge_idx = _matched_edge_index(graph, matching, src_c, dst_c)
    s = scores.normalized[edge_idx]
    if np.any(s <= 0.0):
        raise ValueError("cannot contract a dropped (zero-score) edge")

    node_score = np.concatenate([s, np.ones(len(unmatched))])[cluster_of]

    pooled_n = v - k
    feats = np.empty((pooled_n, graph.feature_width), dtype=np.float64)
    feats[:k] = s[:, None] * _pair_features(graph, matching)
    feats[k:] = np.take(graph.node_features, unmatched, axis=0)
    feats = feats.astype(graph.node_features.dtype, copy=False)
    _require_finite(feats, "node features")

    keep = np.flatnonzero(src_c != dst_c)
    n = np.int64(pooled_n)
    key = src_c[keep]
    key *= n
    key += dst_c[keep]
    del src_c, dst_c
    ef = None
    if graph.edge_features is not None:
        ef = np.take(graph.edge_features, keep, axis=0).astype(np.float64)
    del keep
    uniq_key = _sorted_unique(key if ef is None else key.copy())
    if ef is not None:
        inverse = np.searchsorted(uniq_key, key)
        ef = _segment_sum(inverse, ef, len(uniq_key)).astype(graph.edge_features.dtype)
        _require_finite(ef, "edge features")

    pooled = Graph(pooled_n, feats, uniq_key // n, uniq_key % n, ef)
    info = PoolInfo(
        matching=matching,
        cluster_of=cluster_of,
        node_score=node_score,
        matched_edge_index=edge_idx,
    )
    return pooled, info


def edgepool_forward(
    graph: Graph,
    params: PoolParams,
    training: bool = False,
    dropout_p: float = 0.0,
    seed: int | None = None,
) -> tuple[Graph, PoolInfo, EdgeScores]:
    """One full pooling level: score, (dropout), normalize, select, contract.

    The dropout mask is drawn on raw edges; dropped edges are excluded from
    both the softmax denominator and selection. Dropout applies only when
    ``training`` is true.
    """
    raw = raw_scores(graph, params)
    if training and dropout_p > 0.0:
        if seed is None:
            raise ValueError("edge-score dropout requires a seed")
        dropped = apply_score_dropout(graph.num_edges, dropout_p, seed)
    else:
        dropped = np.zeros(graph.num_edges, dtype=bool)
    scores = EdgeScores(normalize_scores(graph, raw, dropped), dropped)
    del raw
    matching = select_contractions(graph, scores)
    pooled, info = contract(graph, matching, scores)
    return pooled, info, scores


# The (v, f) float64 updates of the backward run over row blocks of this
# many bytes, so no temporary of a whole gradient's size is made.
_ROW_BLOCK_BYTES = 2 << 20


def _row_blocks(num_rows: int, width: int):
    """Slices covering ``range(num_rows)``, each of about ``_ROW_BLOCK_BYTES`` of float64 rows."""
    step = max(1, _ROW_BLOCK_BYTES // (8 * max(width, 1)))
    return (slice(a, a + step) for a in range(0, num_rows, step))


def edgepool_backward(
    graph: Graph,
    params: PoolParams,
    info: PoolInfo,
    scores: EdgeScores,
    upstream_grad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact reverse-mode derivatives of one pooling level.

    ``upstream_grad`` is the loss gradient w.r.t. the pooled node features.
    Returns gradients w.r.t. the input node features (in their dtype), the
    scorer weight (float64, as the scorer computes in float64) and the
    scorer bias. The matching is a constant of the backward pass;
    the gradient flows through the gating score, whose softmax couples all
    non-dropped edges sharing a destination with a matched edge.
    """
    upstream = np.asarray(upstream_grad)
    if upstream.shape != (info.pooled_num_nodes, graph.feature_width):
        raise ValueError(f"upstream gradient must have shape "
                         f"({info.pooled_num_nodes}, {graph.feature_width})")
    g_s = np.einsum("kf,kf->k", upstream[: info.num_matched].astype(np.float64),
                    _pair_features(graph, info.matching))
    # The score term holds no -0.0, so adding the row terms to it in place
    # rounds exactly as adding it to them.
    grad_x, grad_w, grad_b = score_path_backward(graph, params, info, scores, g_s)
    # Every node's cluster row times its gate, which is exactly 1.0 for an
    # unmatched node (a pass-through) and the pair's score for both members.
    for rows in _row_blocks(graph.num_nodes, graph.feature_width):
        term = np.take(upstream, info.cluster_of[rows], axis=0).astype(np.float64, copy=False)
        term *= info.node_score[rows, None]
        grad_x[rows] += term

    return grad_x.astype(graph.node_features.dtype), grad_w, grad_b


def score_path_backward(
    graph: Graph,
    params: PoolParams,
    info: PoolInfo,
    scores: EdgeScores,
    g_s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gradients of sum_e g_s[e] * s_e over the matched edges.

    ``g_s`` is the loss gradient w.r.t. the normalized score of each
    matched edge, ordered like info.matching. Returns gradients w.r.t.
    node features, scorer weight, and scorer bias. Shared by the merge
    gating and by any later consumer of the scores (unpooling divides by
    them), both of which route their score gradients through here.
    """
    v, f = graph.num_nodes, graph.feature_width
    w = np.asarray(params.weight, dtype=np.float64)
    e_idx = info.matched_edge_index
    g_s = np.asarray(g_s, dtype=np.float64)
    if g_s.shape != (info.num_matched,):
        raise ValueError(f"g_s must have shape ({info.num_matched},)")

    # Softmax coupling: within the destination group of matched edge e,
    # d s_e / d r_k = p_e (delta_ek - p_k) with p = normalized - 0.5.
    # Matched destinations are distinct, so one coefficient per group.
    p = scores.normalized - 0.5
    p[scores.dropped] = 0.0
    group_coeff = np.zeros(v, dtype=np.float64)  # g_s * p_e per destination
    group_coeff[graph.edge_dst[e_idx]] = g_s * p[e_idx]
    grad_r = group_coeff[graph.edge_dst]
    np.negative(grad_r, out=grad_r)
    grad_r *= p
    grad_r[e_idx] += g_s * p[e_idx]
    del p

    # Linear scorer backward, restricted to edges with nonzero grad_r and
    # summed per endpoint node before touching the (v, f) features.
    live = np.flatnonzero(grad_r != 0.0)
    gr = grad_r[live]
    del grad_r
    g_src = np.bincount(graph.edge_src[live], gr, minlength=v)
    g_dst = np.bincount(graph.edge_dst[live], gr, minlength=v)
    grad_w = np.zeros_like(w)
    if graph.edge_feature_width:
        grad_w[2 * f :] = gr @ np.take(graph.edge_features, live, axis=0).astype(np.float64)
    grad_b = float(gr.sum())
    del live, gr
    x = graph.node_features.astype(np.float64, copy=False)
    grad_w[:f] = g_src @ x
    grad_w[f : 2 * f] = g_dst @ x
    del x
    # Added one term at a time into the zeros, so the sum holds no -0.0,
    # which edgepool_backward relies on.
    grad_x = np.zeros((v, f), dtype=np.float64)
    for rows in _row_blocks(v, f):
        grad_x[rows] += g_src[rows, None] * w[:f]
        grad_x[rows] += g_dst[rows, None] * w[f : 2 * f]
    return grad_x, grad_w, grad_b


def random_pool_params(
    feature_width: int,
    edge_feature_width: int = 0,
    seed: int = 0,
) -> PoolParams:
    """Gaussian scorer parameters, for visualization and property checks."""
    rng = seeded_rng(seed, "pool-params")
    n = 2 * feature_width + edge_feature_width
    return PoolParams(weight=rng.normal(size=n), bias=0.0)


def pool_hierarchy(
    graph: Graph,
    params: PoolParams,
    levels: int,
) -> list[tuple[Graph, PoolInfo, EdgeScores]]:
    """Pool repeatedly with the same scorer; one entry per level."""
    out = []
    current = graph
    for _ in range(levels):
        pooled, info, scores = edgepool_forward(current, params)
        out.append((pooled, info, scores))
        current = pooled
    return out


def hierarchy_to_json(levels: list[tuple[Graph, PoolInfo, EdgeScores]]) -> list[dict]:
    """Serialize a pooling hierarchy: one dict per level.

    Each level carries the cluster map, the matching, the per-node gating
    scores, and the pooled graph in the interchange format.
    """
    out = []
    for pooled, info, _ in levels:
        out.append(
            {
                "cluster_of": info.cluster_of.tolist(),
                "matching": info.matching.tolist(),
                "node_score": info.node_score.tolist(),
                "graph": graph_to_json(pooled),
            }
        )
    return out
