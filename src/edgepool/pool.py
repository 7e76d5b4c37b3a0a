"""Edge-contraction pooling: scoring, greedy selection, merge, exact backward.

One pooling level works in four stages:

1. every directed edge gets a raw score, a linear function of the
   concatenated endpoint features;
2. raw scores are normalized per destination node with a softmax shifted
   so the score range is centred at 1;
3. edges are contracted greedily in score order, skipping any edge with an
   already-merged endpoint, which yields a maximal matching. The order is
   strict (score descending, canonical edge index ascending), so the greedy
   matching is found without sorting every edge: in vectorized rounds, each
   taking the edges that rank first among the alive edges at both of their
   endpoints, with a sequential sweep once rounds stop paying off. The
   visiting order has one home, :func:`_score_order`: the sweep orders its
   edges by it once and walks that order in fixed slices, and the taken
   edges are put in selection order by it;
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
``&=``, ``*=``) and deleted before the next one is made. Without score
dropout the forward peaks in ``contract``, which holds three m-length
arrays (its pooled edge key is built in one of its two endpoint cluster
columns); with dropout, in ``select_contractions``' compacted kept edges.
The score-path backward holds about two. The backward's (v, f) float64
updates run over row blocks of ``_ROW_BLOCK_BYTES`` (2 MB, one block at
training sizes); elementwise operations round the same in any blocking,
so the blocks change no bit. Measured on numpy 2.4.6 at 1e6 edges:

- when a level starts on a trimmed heap (as in perfbench's ``pool_1e6``
  loop), the forward grows it again, and the backward runs free of page
  faults only if its peak fits under the forward's. With whole-array
  (v, f) updates it did not: a median of 346 minor faults per backward
  call there, against 0 with row blocks;
- ``np.flatnonzero`` of a float array with 33k nonzeros took 5.7 ms, of
  ``a != 0.0`` 1.9 ms;
- a float32 by float64 row scaling took 5.4 ms, a float64 copy scaled in
  place 3.9 ms;
- on perfbench's ``pool_1e6`` graph (seed 1, best of 15 or 21 calls on a
  2-vCPU VM): round 1's winner test took 3.4-3.8 ms on the 36k edges that
  have the best score at both endpoints, against 7.9-11.0 ms on all 1e6;
  round 1's two best-score masks and those 36k candidates, 12.7-12.8 ms
  taking them from the destination side's positions against 12.9-13.1
  ms by ``&`` and a second ``np.flatnonzero``; the selection order of
  the 74k taken edges (3,892 of them in tied runs), 2.1 ms by
  :func:`_score_order`, which re-sorts only the tied runs, against
  3.2 ms keying every entry and 8.1 ms by a stable argsort (of which the
  default argsort is about 1.7 ms); ``contract``'s matched edge index
  4.6-6.5 ms from the first-member mask, against 6.1-7.5 ms by a 2-D
  gather from the matching; and the key's decode by one division
  3.0-3.2 ms, against 4.1-4.9 ms by ``//`` and ``%``. Building the key in
  place took as long as from the kept entries, but cut ``contract``'s
  peak from 5.14 to 3.53 m*8 bytes, and the forward's from 6.40 to 4.80
  (5.64 with dropout) on the edge-heavy graph of the tests;
- on the seed-11 ``pool_1e6`` graph (medians of 21 calls, alternating
  with the code before), rounds that read positions, with no
  ``np.arange(m)`` and no ``e[at]`` or ``e[cand]`` gather, together with
  the tie-only order, took a whole ``select_contractions`` from 57-59 to
  52-54 ms.

The sweep orders every edge it is handed once, by :func:`_score_order`,
and walks that order in fixed slices of ``_SWEEP_BLOCK``; the taken edges'
positions go into a plain Python list. It replaced a block sweep that
found and sorted each block of the order just before visiting it, with
the same matching bit for bit. The one order keeps the visiting order in
one home and needs no key lookup after the loop, and the training
workloads, whose rounds leave the sweep at most about 25k edges, did not
get slower. On the 100k-node monotone path of the tests, which the sweep
visits almost whole, fixed slices took 0.046 s against 0.054 s for slices
growing 4-fold from 512 (numpy 2.4.6, 2-vCPU VM). Its cost is the edges
it orders that are matched away before their turn, which is most of them
on a dense 1e6-edge set over 10,000 nodes; no benchmark workload hands the
sweep such a set (``pool_1e6`` and ``graph_train`` never reach it). On
such a random set (best and median of 3 direct calls), the sweep took
86-94 ms with distinct scores, against 109-121 ms keying every entry; with
3-decimal scores, where nearly every score sits in a tied run, it took
111-128 ms, against 96-102 ms, since re-sorting only the tied runs then
adds its bookkeeping to a key over almost every entry (about 8 ms of
:func:`_score_order`'s 80 ms at 1e6 entries).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass
from typing import Sequence

import numpy as np

from .graph import (Graph, _codes, _count, _edge_key, _key_edges, _mask, _real, _real_number,
                    _require_finite, _sorted_unique)
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
]


@dataclass(frozen=True)
class PoolParams:
    """Linear edge scorer: weight has length 2f, for node features of width f."""

    weight: np.ndarray
    bias: float


@dataclass(frozen=True)
class EdgeScores:
    """Per-directed-edge scores for one pooling level.

    ``normalized`` is the shifted softmax value in (0.5, 1.5) for kept
    edges and exactly 0.0 for dropped ones. ``dropped`` marks edges removed
    by score dropout; they take part in neither normalization nor
    selection. Each stage that reads the scores checks both fields against
    its graph (:func:`_check_scores`). The scorer output itself is not
    kept, since neither selection nor the backward reads it;
    :func:`raw_scores` recomputes it.
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

    ``matching`` lists the contracted directed edges in selection order.
    The level's row order: pooled node c < k = len(matching) is the merge of
    matching[c], and the unmatched nodes follow in ascending order; each
    pooled node's first member is :attr:`first_member`. ``cluster_of``
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
        return self.matching.shape[0]

    @property
    def pooled_num_nodes(self) -> int:
        return len(self.cluster_of) - self.num_matched

    @property
    def first_member(self) -> np.ndarray:
        """Each pooled node's first member (a pair's second is ``matching[:, 1]``).

        Derived on each access, not stored: a stored copy raised the peak
        memory of a 1e6-edge level.
        """
        return np.concatenate([self.matching[:, 0],
                               np.flatnonzero(self.cluster_of >= self.num_matched)])


def _check_widths(graph: Graph, params: PoolParams) -> tuple[int, np.ndarray]:
    """The scorer-weight rule: a 1-D weight of length 2f (the CLI tests read
    this wording), which then passes the rule of real arrays
    (:func:`~edgepool.graph._real`). Returns f and the weight in float64."""
    f = graph.feature_width
    expected = 2 * f
    shape = np.shape(params.weight)
    if shape != (expected,):
        got = f"length {shape[0]}" if len(shape) == 1 else f"shape {shape}"
        raise ValueError(
            f"scorer weight must be 1-D of length 2*{f}={expected} for this graph, got {got}"
        )
    return f, _real("scorer weight", params.weight, (expected,)).astype(np.float64, copy=False)


def _check_scores(graph: Graph, scores: EdgeScores) -> tuple[np.ndarray, np.ndarray]:
    """The rule of a level's scores: ``normalized`` a real array (:func:`_real`)
    and ``dropped`` a mask (:func:`_mask`), each with one entry per edge of
    ``graph``. Returns both; O(1)."""
    return (_real("scores.normalized", scores.normalized, (graph.num_edges,)),
            _mask("scores.dropped", scores.dropped, graph.num_edges, "edge"))


def _check_nodes(graph: Graph, info: PoolInfo) -> None:
    """The O(1) half of :func:`_check_info`: one ``info.cluster_of`` entry per node."""
    if len(info.cluster_of) != graph.num_nodes:
        raise ValueError(f"info.cluster_of must have one entry per node ({graph.num_nodes}), "
                         f"got {len(info.cluster_of)}: info is another graph's")


def _check_info(graph: Graph, info: PoolInfo) -> tuple[np.ndarray, np.ndarray]:
    """The rule of a level's info: it was made on ``graph``, so
    ``info.cluster_of`` has one entry per node and the edges at
    ``info.matched_edge_index`` are the pairs of ``info.matching``. Returns
    the matched edge indices and their destinations; O(k). Raises
    ValueError naming ``info``."""
    _check_nodes(graph, info)
    e = _codes("info.matched_edge_index", info.matched_edge_index, (info.num_matched,),
               graph.num_edges)
    dst = graph.edge_dst[e]
    if not (np.array_equal(dst, info.matching[:, 1])
            and np.array_equal(graph.edge_src[e], info.matching[:, 0])):
        raise ValueError("info is another graph's: the edges at info.matched_edge_index "
                         "are not the pairs of info.matching")
    return e, dst


@np.errstate(over="ignore")  # an overflow to inf is normalize_scores' to reject
def raw_scores(graph: Graph, params: PoolParams) -> np.ndarray:
    """Linear raw score per directed edge, in float64.

    For edge (i, j): weight . (features_i ++ features_j) plus bias. The
    node terms are projected once per node, then gathered. Each projection
    is a row dot (``np.einsum``), the same in a batch as alone; a BLAS
    matrix-vector product's row sums depend on the row count.
    """
    f, w = _check_widths(graph, params)
    x = graph.node_features.astype(np.float64, copy=False)
    r = np.einsum("ij,j->i", x, w[:f])[graph.edge_src]
    r += np.einsum("ij,j->i", x, w[f:])[graph.edge_dst]
    r += _real_number("scorer bias", params.bias)
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
    raw = _real("raw", raw, (m,))
    dropped = _mask("dropped", dropped, m, "edge")
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


def apply_score_dropout(num_edges: int, p: float, seed: int) -> np.ndarray:
    """Boolean mask dropping each of ``num_edges`` edges with probability ``p``.

    Training only; deterministic given the seed. Dropped edges take part in
    neither normalization nor selection.
    """
    p = _real_number("dropout probability", p, "in [0, 1)")
    rng = seeded_rng(seed, "edge-score-dropout")
    return rng.random(num_edges) < p


# A round that removes less than this share of the alive edges hands them to
# the sequential sweep; rounds on the bulk of a random graph remove about 2/3.
# At 0.25 neither graph_train nor pool_1e6 reaches the sweep. Shares from 0.25
# to 1.0 gave the same node_train selection time (4.3-4.5 ms per call), measured
# on the earlier block sweep and not again on the sliced walk of one order.
_SWEEP_SHARE = 0.25
# The sweep's slice of its visiting order.
_SWEEP_BLOCK = 512
# Up to this many scores, _score_order is a stable argsort, faster than the
# run key: on numpy 2.4.6 the two crossed at 1,300-1,500 (about 50 us), and
# at 1,000 took 21-26 against 34-41 us.
_STABLE_ORDER_MAX = 1400


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
    ``np.minimum.at`` on the position over the incidences at that best
    score), takes every edge that is first at both endpoints, and drops
    every edge that touches a newly matched node. The alive arrays are
    compacted in edge order, so a position ranks as its edge index does,
    and edge indices are read only for the taken edges. Only the edges
    with the best score at both endpoints are tested for being first,
    since an edge first at a node has that node's best score; they are
    the destination side's best-score positions that are also best at
    their source. A chain of monotone
    scores matches one edge per round, so once a round removes less than
    ``_SWEEP_SHARE`` of the alive edges, :func:`_greedy_sweep` finishes
    the remaining edges in order, which is exact for the same reason.
    Returns the matched directed edges in selection order (the greedy's
    visiting order) as a (k, 2) int64 array; only the k taken edges are put
    in that order, by :func:`_score_order`, which also orders the sweep.
    """
    v = graph.num_nodes
    normalized, dropped = _check_scores(graph, scores)
    if dropped.any():
        e = np.flatnonzero(~dropped)
        src, dst, s = graph.edge_src[e], graph.edge_dst[e], normalized[e]
    else:  # round 1 reads the graph's endpoint columns and the scores themselves
        e = None  # and its positions are the edge indices
        src, dst, s = graph.edge_src, graph.edge_dst, normalized
    taken = [np.zeros(0, dtype=np.int64)]
    while s.size:
        # Compaction keeps edge order, so a position ranks as its edge index.
        best = np.full(v, -np.inf)
        np.maximum.at(best, src, s)
        np.maximum.at(best, dst, s)
        first = np.full(v, s.size, dtype=np.int64)
        at_s = s == best[src]
        at = np.flatnonzero(at_s)
        np.minimum.at(first, src[at], at)
        at = np.flatnonzero(s == best[dst])
        np.minimum.at(first, dst[at], at)
        cand = at[at_s[at]]
        del at, at_s
        hit = first[src[cand]] == cand
        hit &= first[dst[cand]] == cand
        win = cand[np.flatnonzero(hit)]
        taken.append(win if e is None else e[win])
        matched = np.zeros(v, dtype=bool)
        matched[src[win]] = True
        matched[dst[win]] = True
        gone = matched[src]
        gone |= matched[dst]
        alive = np.flatnonzero(np.logical_not(gone, out=gone))
        del gone
        before = s.size
        # One array at a time, so each old one is freed before the next copy.
        e = alive if e is None else e[alive]
        src = src[alive]
        dst = dst[alive]
        s = s[alive]
        del alive
        if before - s.size < _SWEEP_SHARE * before:
            taken.append(_greedy_sweep(e, src, dst, s, v))
            break
    # Selection order: only the k taken edges are sorted.
    t = np.sort(np.concatenate(taken))
    t = t[_score_order(normalized[t])]
    return np.stack([graph.edge_src[t], graph.edge_dst[t]], axis=1)


def _score_order(s: np.ndarray) -> np.ndarray:
    """The greedy's visiting order of scores ``s``: ``np.argsort(-s,
    kind="stable")``, score descending, position ascending on ties.

    Up to ``_STABLE_ORDER_MAX`` entries it is that stable argsort. Above,
    it comes from the default (unstable) sort, which leaves each run of
    tied scores in some order; with no tie that order is the stable one.
    Otherwise only the entries in tied runs are put back in position
    order: a run's number (nondecreasing along the sorted scores) times k
    plus the position is an int64 key whose sort orders each run by
    position, and the key mod k fills the run's slots. Ties are common: a
    node with one kept incoming edge gives it a score of exactly 1.5.
    """
    k = s.size
    if k <= _STABLE_ORDER_MAX:
        return np.argsort(-s, kind="stable")
    order = np.argsort(-s)
    ranked = s[order]
    tie = ranked[1:] == ranked[:-1]
    if not tie.any():
        return order
    tied = np.zeros(k, dtype=bool)
    tied[1:] = tie
    tied[:-1] |= tie
    slots = np.flatnonzero(tied)
    ranked = ranked[slots]
    key = np.zeros(slots.size, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=key[1:])
    key *= k
    key += order[slots]
    key.sort()
    key %= k
    order[slots] = key
    return order


def _greedy_sweep(
    e: np.ndarray, src: np.ndarray, dst: np.ndarray, s: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Sequential greedy over edges ``e`` (ascending) with endpoints and scores.

    Visits by score descending, index ascending on ties; returns the taken
    edge indices, ascending. The edges must touch no node matched earlier,
    so every node starts unmatched.

    The visiting order is :func:`_score_order` of all the edges, walked in
    slices of ``_SWEEP_BLOCK``. Most edges touch a matched node by the time
    their turn comes, so each slice first drops, in one vectorized test,
    the edges matched away by the slices before it; the Python loop visits
    the rest and lists the position of each edge it takes.
    """
    order = _score_order(s)
    matched = bytearray(num_nodes)
    is_matched = np.frombuffer(matched, dtype=bool)
    taken = []
    for start in range(0, order.size, _SWEEP_BLOCK):
        block = order[start : start + _SWEEP_BLOCK]
        gone = is_matched[src[block]]
        gone |= is_matched[dst[block]]
        block = block[np.flatnonzero(~gone)]
        for p, i, j in zip(block.tolist(), src[block].tolist(), dst[block].tolist()):
            if not matched[i] and not matched[j]:
                matched[i] = 1
                matched[j] = 1
                taken.append(p)
    return e[np.sort(np.array(taken, dtype=np.int64))]


def _member_rows(info: PoolInfo, x: np.ndarray, score: np.ndarray | None = None) -> np.ndarray:
    """Float64 pooled rows of the per-node rows ``x``: each pooled node's
    first member's row, plus the second member's for a pair. With ``score``,
    each member's row is divided by its node's score before the sum (folding
    1/score into a sum's weights rounds differently)."""
    # Gather the rows before widening them: no (v, f) float64 copy.
    first, second = info.first_member, info.matching[:, 1]
    out = np.take(x, first, axis=0).astype(np.float64, copy=False)
    rest = np.take(x, second, axis=0)
    if score is not None:
        out /= score[first, None]
        rest = rest / score[second, None]
    out[: info.num_matched] += rest
    return out


def _matched_edge_index(
    graph: Graph, matching: np.ndarray, src_c: np.ndarray, dst_c: np.ndarray
) -> np.ndarray:
    """Canonical edge index per matched pair, from each edge's endpoint clusters.

    Raises ``ValueError`` naming the first pair that is not an edge.
    """
    is_first = np.zeros(graph.num_nodes, dtype=bool)
    is_first[matching[:, 0]] = True
    inner = is_first[graph.edge_src]
    inner &= src_c == dst_c
    hit = np.flatnonzero(inner)
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

    ``matching`` is a (k, 2) array of node pairs that passes the rule of
    integer codes (:func:`~edgepool.graph._codes`), entries in
    ``[0, num_nodes)``: a float, boolean or flat matching raises ValueError
    naming it, never cast or reshaped, and ``[]`` is the empty matching.
    Pooled nodes come in the level's row order (:class:`PoolInfo`). Pooled
    edges are the image of the original edges under the cluster map, with
    self-loops removed and parallel edges deduplicated.
    The matched edges are read off the cluster map: the only edges it
    sends into one cluster run between the two members of a pair, and a
    pair's matched edge is the one that starts at its first member (a
    boolean mask over the nodes marks the first members).
    Deduplication sorts the edge key of the cluster pairs
    (:func:`~edgepool.graph._edge_key` with ``n = pooled_n``), built in
    place in the source cluster column and then gathered at the edges that
    are not self-loops, and keeps each value that differs from its
    predecessor; the sorted unique keys decode
    (:func:`~edgepool.graph._key_edges`) to canonical edges, so the pooled
    graph is built directly, without :func:`build_graph`'s sort and checks.
    The features computed here are checked to be finite, since a gated
    float32 sum can overflow (with no warning).
    """
    v = graph.num_nodes
    matching = _codes("matching", matching, (None, 2), v)
    k = matching.shape[0]

    if np.any(np.bincount(matching.ravel(), minlength=v) > 1):
        raise ValueError("invalid matching: a node appears in two matched edges")

    cluster_of = np.full(v, -1, dtype=np.int64)
    cluster_of[matching] = np.arange(k)[:, None]
    unmatched = np.flatnonzero(cluster_of < 0)
    cluster_of[unmatched] = k + np.arange(len(unmatched))

    src_c = cluster_of[graph.edge_src]
    dst_c = cluster_of[graph.edge_dst]
    edge_idx = _matched_edge_index(graph, matching, src_c, dst_c)
    s = _check_scores(graph, scores)[0][edge_idx]
    if np.any(s <= 0.0):
        raise ValueError("cannot contract a dropped (zero-score) edge")

    node_score = np.concatenate([s, np.ones(len(unmatched))])[cluster_of]
    info = PoolInfo(matching=matching, cluster_of=cluster_of, node_score=node_score,
                    matched_edge_index=edge_idx)

    pooled_n = v - k
    feats = _member_rows(info, graph.node_features)
    feats[:k] *= s[:, None]
    feats = feats.astype(graph.node_features.dtype, copy=False)
    _require_finite(feats, "node features")

    keep = np.flatnonzero(src_c != dst_c)
    key = _edge_key(src_c, dst_c, pooled_n, out=src_c)  # no new m-length array
    del src_c, dst_c
    key = key[keep]
    del keep
    key = _sorted_unique(key)  # rebound, so the keys with duplicates go before the decode
    return Graph(feats, *_key_edges(key, pooled_n)), info


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
    ``training`` is true, but the rate must be in [0, 1) either way.
    """
    dropout_p = _real_number("dropout probability", dropout_p, "in [0, 1)")
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
    non-dropped edges sharing a destination with a matched edge. It composes
    the vjps of ``layers.edge_pool``'s two ops: the merge adjoint
    (:func:`_gate_gradient`, :func:`_add_gated_rows`) and the gate's,
    :func:`score_path_backward`. ``info`` must be the level's on ``graph``
    (:func:`_check_info`), else ValueError.
    """
    # Its pairs are checked in score_path_backward, before a result returns;
    # with one entry per node, no read of info before that can fail.
    _check_nodes(graph, info)
    upstream = _real("upstream_grad", upstream_grad, (info.pooled_num_nodes, graph.feature_width))
    g_s = _gate_gradient(graph, info, upstream)
    # The score term holds no -0.0, so adding the row terms to it in place
    # rounds exactly as adding it to them.
    grad_x, grad_w, grad_b = score_path_backward(graph, params, info, scores, g_s)
    _add_gated_rows(info, upstream, grad_x)
    return grad_x.astype(graph.node_features.dtype), grad_w, grad_b


def _gate_gradient(graph: Graph, info: PoolInfo, upstream: np.ndarray) -> np.ndarray:
    """Float64 gradient w.r.t. each pair's gate: its pooled row's upstream
    gradient dotted with the pair's pre-gating features."""
    k = info.num_matched
    return np.einsum("kf,kf->k", upstream[:k].astype(np.float64),
                     _member_rows(info, graph.node_features)[:k])


def _add_gated_rows(info: PoolInfo, upstream: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` plus every node's cluster row times its gate, added in place
    in float64 row blocks; the gate is exactly 1.0 for an unmatched node (a
    pass-through) and the pair's score for both members."""
    for rows in _row_blocks(*out.shape):
        term = np.take(upstream, info.cluster_of[rows], axis=0).astype(np.float64, copy=False)
        term *= info.node_score[rows, None]
        out[rows] += term
    return out


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
    node features, scorer weight, and scorer bias. It is the vjp of
    ``layers.edge_pool``'s gate, which the tape runs once per backward,
    with the gradients of all the gate's consumers summed. ``info`` must
    be the level's on ``graph`` (:func:`_check_info`), else ValueError.
    """
    v = graph.num_nodes
    f, w = _check_widths(graph, params)
    normalized, dropped = _check_scores(graph, scores)
    e_idx, e_dst = _check_info(graph, info)
    g_s = _real("g_s", g_s, (info.num_matched,))

    # Softmax coupling: within the destination group of matched edge e,
    # d s_e / d r_k = p_e (delta_ek - p_k) with p = normalized - 0.5.
    # Matched destinations are distinct, so one coefficient per group.
    p = normalized - 0.5
    p[dropped] = 0.0
    gp = g_s * p[e_idx]
    group_coeff = np.zeros(v, dtype=np.float64)  # g_s * p_e per destination
    group_coeff[e_dst] = gp
    grad_r = group_coeff[graph.edge_dst]
    np.negative(grad_r, out=grad_r)
    grad_r *= p
    grad_r[e_idx] += gp
    del p, gp

    # Linear scorer backward, restricted to edges with nonzero grad_r and
    # summed per endpoint node before touching the (v, f) features.
    live = np.flatnonzero(grad_r != 0.0)
    gr = grad_r[live]
    del grad_r
    g_src = np.bincount(graph.edge_src[live], gr, minlength=v)
    g_dst = np.bincount(graph.edge_dst[live], gr, minlength=v)
    grad_b = float(gr.sum())
    del live, gr
    x = graph.node_features.astype(np.float64, copy=False)
    grad_w = np.concatenate([g_src @ x, g_dst @ x])
    del x
    # Added one term at a time into the zeros, so the sum holds no -0.0,
    # which edgepool_backward relies on.
    grad_x = np.zeros((v, f), dtype=np.float64)
    for rows in _row_blocks(v, f):
        grad_x[rows] += g_src[rows, None] * w[:f]
        grad_x[rows] += g_dst[rows, None] * w[f:]
    return grad_x, grad_w, grad_b


def random_pool_params(feature_width: int, *, seed: int = 0) -> PoolParams:
    """Gaussian scorer parameters, for visualization and property checks.

    The width is a count (``graph._count``) of at least 0: a graph may have
    zero-width features. ``seed`` is keyword-only, so a call that passes a
    second width fails instead of reading it as the seed.
    """
    f = _count("feature_width", feature_width)
    rng = seeded_rng(seed, "pool-params")
    return PoolParams(weight=rng.normal(size=2 * f), bias=0.0)

