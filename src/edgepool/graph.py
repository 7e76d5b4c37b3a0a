"""Sparse directed-graph containers, batching, and structural queries.

Graphs store edges as two int64 columns of endpoints, src and dst, in a
canonical order (sorted by src, then dst). The canonical order is what
makes every downstream tie-break deterministic, so it is established at
construction and never changes. Input from outside the library is
validated and canonicalized once, by :func:`build_graph` (or, for a whole
benchmark dataset, by :func:`~edgepool.data.load_tu`); graphs derived from
canonical ones (:func:`symmetrize`, :func:`batch`, pooling) are assembled
directly from parts that are canonical by construction, and the
:class:`Graph` type makes the arrays of every graph read-only. Node
features are dense row-major matrices; structure is sparse, and row
reductions over it are products with unit-weight CSR operators whose rows
keep their entries in canonical order.
"""

from __future__ import annotations

import itertools
import json
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

__all__ = [
    "Graph",
    "BatchedGraph",
    "build_graph",
    "symmetrize",
    "batch",
    "to_dot",
    "graph_to_json",
    "graph_from_json",
    "load_graph_file",
]


def _unit_csr(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> sparse.csr_array:
    """CSR operator with a 1.0 at each of the distinct (rows[k], cols[k]) pairs.

    A product sums each row's terms in ascending column order; where the
    columns of each row ascend in k, that is the order of a scatter-add in k.
    """
    return sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=shape)


def _segment_sum(index: np.ndarray, values: np.ndarray, num_segments: int) -> np.ndarray:
    """Row k of the result sums ``values[i]`` over ``index[i] == k``, in order of i.

    Bit-identical to an in-order scatter-add into zeros; empty segments are 0.
    """
    m = len(index)
    return _unit_csr(index, np.arange(m), (num_segments, m)) @ values


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")


def _feature_matrix(values, kind: str, rows: int) -> np.ndarray:
    """``values`` as a 2-D numeric matrix of ``rows`` finite rows, integers as float64.

    ``kind`` is ``"node"`` or ``"edge"``: the rows are one per node or per edge.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "fiu":
        raise ValueError(f"{kind} features must be numeric")
    if a.dtype.kind in "iu":
        a = a.astype(np.float64)
    if a.ndim != 2:
        raise ValueError(f"{kind} features must be 2-D, got {a.ndim}-D")
    if a.shape[0] != rows:
        raise ValueError(f"{kind} feature rows ({a.shape[0]}) != num_{kind}s ({rows})")
    _require_finite(a, f"{kind} features")
    return a


def _sorted_unique(key: np.ndarray) -> np.ndarray:
    """``np.unique(key)`` of a 1-D array, by a sort and a step mask.

    Sorts ``key`` in place, so a caller that reads it again passes a copy.
    On numpy 2.4 bare ``np.unique`` of 1e6 random int64 keys took about
    450 ms, against about 10 ms for this.
    """
    key.sort()
    step = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=step[1:])
    # Unlike a random mask, a nearly all-true one selects quickly.
    return key[step]


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph with per-node (and optional per-edge) features.

    Edge ``e`` runs from ``edge_src[e]`` to ``edge_dst[e]``: two 1-D int64
    columns in canonical order, which every pooling stage reads as they
    are. Use :func:`build_graph` instead of constructing directly; it
    validates and canonicalizes.

    Six internal paths construct a ``Graph`` directly, because their parts
    are canonical and valid by construction and a second validation would
    only repeat work: :meth:`with_node_features` (same structure; it checks
    the new features as :func:`build_graph` does), :func:`symmetrize`
    (sorted unique keys of a canonical graph's edges and their reversals),
    :func:`batch` (canonical graphs offset by the preceding node totals),
    :func:`~edgepool.pool.contract` (sorted unique keys of the pooled
    edges; it checks the features it computes for overflow),
    :func:`~edgepool.data.load_tu` (sorted unique keys of all its edges and
    their reversals, split per graph) and the models' ``forward`` (the same
    graph without its edge features). Whichever path builds it, the type
    makes every array read-only (as :class:`BatchedGraph` does its
    ``graph_id``).
    """

    num_nodes: int
    node_features: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_features: np.ndarray | None = None

    def __post_init__(self) -> None:
        for a in (self.node_features, self.edge_src, self.edge_dst, self.edge_features):
            if a is not None:
                a.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.shape[0])

    @property
    def feature_width(self) -> int:
        return int(self.node_features.shape[1])

    @property
    def edge_feature_width(self) -> int:
        return 0 if self.edge_features is None else int(self.edge_features.shape[1])

    @property
    def edges(self) -> np.ndarray:
        """The ``(num_edges, 2)`` (src, dst) pairs, stacked on each access, read-only."""
        pairs = np.stack([self.edge_src, self.edge_dst], axis=1)
        pairs.flags.writeable = False
        return pairs

    @cached_property
    def in_adjacency(self) -> sparse.csr_array:
        """Unit-weight ``(num_nodes, num_nodes)`` CSR operator, rows dst, columns src.

        Row j lists the in-neighbors of node j in ascending (canonical) order,
        so ``in_adjacency @ x`` sums them as a scatter-add in edge order does,
        and ``in_adjacency.T @ y`` (a CSC view, no copy) sums into each source
        in ascending dst order. Built on first access and kept.
        """
        return _unit_csr(self.edge_dst, self.edge_src, (self.num_nodes, self.num_nodes))

    def with_node_features(self, features: np.ndarray) -> "Graph":
        """Same structure, different node features (layer activations etc.),
        checked and copied as :func:`build_graph` checks and copies them."""
        x = _feature_matrix(features, "node", self.num_nodes).copy()
        return Graph(self.num_nodes, x, self.edge_src, self.edge_dst, self.edge_features)


@dataclass(frozen=True)
class BatchedGraph:
    """Disjoint union of graphs; graph k's nodes (at least one) have ``graph_id`` k."""

    graph: Graph
    graph_id: np.ndarray

    def __post_init__(self) -> None:
        self.graph_id.flags.writeable = False


def build_graph(
    num_nodes: int,
    edge_list: Sequence | np.ndarray,
    node_features: Sequence | np.ndarray,
    edge_features: Sequence | np.ndarray | None = None,
) -> Graph:
    """Validate inputs and return a Graph with edges in canonical order.

    Edges are ordered by the int64 key ``src * num_nodes + dst``, which
    needs ``num_nodes**2 < 2**63``. Input whose keys already increase
    strictly is canonical and duplicate-free, so it is not sorted again.

    Raises ValueError on out-of-range indices, duplicate directed edges,
    self-loops, dimension mismatches, non-numeric or non-finite features,
    or a node count too large for the key.
    """
    num_nodes = int(num_nodes)
    if num_nodes < 0:
        raise ValueError("num_nodes must be non-negative")
    if num_nodes * num_nodes >= 2**63:
        raise ValueError(
            f"num_nodes ({num_nodes}) is too large: num_nodes**2 must be < 2**63"
        )

    features = _feature_matrix(node_features, "node", num_nodes)

    edges = np.asarray(edge_list, dtype=np.int64)
    if edges.size == 0:
        edges = np.zeros((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edge list must be a sequence of (src, dst) pairs")

    ef = None if edge_features is None else _feature_matrix(edge_features, "edge", len(edges))

    src, dst = edges[:, 0].copy(), edges[:, 1].copy()
    if src.size:
        if edges.min() < 0 or edges.max() >= num_nodes:
            raise ValueError("edge endpoint index out of range")
        if np.any(src == dst):
            raise ValueError("self-loops are not allowed")
        key = src * np.int64(num_nodes) + dst
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            src, dst = src[order], dst[order]
            if ef is not None:
                ef = ef[order]
            dup = np.flatnonzero(np.diff(key[order]) == 0)
            if dup.size:
                i = dup[0] + 1
                raise ValueError(f"duplicate directed edge ({src[i]}, {dst[i]})")

    return Graph(num_nodes, features.copy(), src, dst, None if ef is None else ef.copy())


def symmetrize(graph: Graph) -> Graph:
    """Ensure every edge has its reverse.

    Returns ``graph`` itself when every edge already has its reverse.
    Otherwise every edge keeps its features, and each added reversal
    copies the features of the edge it reverses; the operation is
    idempotent.
    """
    n = np.int64(graph.num_nodes)
    fkey = graph.edge_src * n + graph.edge_dst  # ascending: canonical order
    rkey = graph.edge_dst * n + graph.edge_src
    key = _sorted_unique(np.concatenate([fkey, rkey]))
    if key.size == graph.num_edges:
        return graph
    ef = graph.edge_features
    if ef is not None:
        # Both searches take ascending needles, so each starts where the last
        # one ended: at 1e6 edges, 5e5 unsorted needles took 7-8x as long.
        row = np.searchsorted(fkey, key)
        added = np.flatnonzero(np.take(fkey, row, mode="clip") != key)
        order = np.argsort(rkey)  # the reverse keys are distinct
        row[added] = order[np.searchsorted(np.take(rkey, order), key[added])]
        ef = np.take(ef, row, axis=0)
    return Graph(graph.num_nodes, graph.node_features, key // n, key % n, ef)


def batch(graphs: Sequence[Graph]) -> BatchedGraph:
    """Disjoint union: node indices of graph k are offset by preceding totals."""
    if len(graphs) == 0:
        raise ValueError("cannot batch an empty list of graphs")
    width = graphs[0].feature_width
    has_ef = graphs[0].edge_features is not None
    ef_width = graphs[0].edge_feature_width
    for g in graphs:
        if g.num_nodes == 0:
            raise ValueError("cannot batch a graph with zero nodes")
        if g.feature_width != width:
            raise ValueError(
                f"feature width mismatch: {g.feature_width} != {width}"
            )
        if (g.edge_features is not None) != has_ef or g.edge_feature_width != ef_width:
            raise ValueError("edge feature presence/width mismatch across graphs")

    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    shift = np.repeat(offsets, [g.num_edges for g in graphs])
    src = np.concatenate([g.edge_src for g in graphs])
    src += shift
    dst = np.concatenate([g.edge_dst for g in graphs])
    dst += shift
    features = np.concatenate([g.node_features for g in graphs], axis=0)
    ef = (
        np.concatenate([g.edge_features for g in graphs], axis=0) if has_ef else None
    )
    graph_id = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    # Offsetting canonical graphs by the preceding node totals keeps their
    # concatenation canonical, and every part was validated when it was built.
    return BatchedGraph(Graph(int(sizes.sum()), features, src, dst, ef), graph_id)


# Fill palette for cluster-coloured DOT output (colour-blind friendly hexes).
_DOT_PALETTE = (
    "#a6cee3", "#fdbf6f", "#b2df8a", "#fb9a99", "#cab2d6", "#ffff99",
    "#1f78b4", "#ff7f00", "#33a02c", "#e31a1c", "#6a3d9a", "#b15928",
)


def to_dot(graph: Graph, cluster_colors: Sequence[int] | None = None, name: str = "g") -> str:
    """Render as DOT text. Reverse edge pairs are drawn once (undirected).

    ``cluster_colors`` assigns a cluster ordinal per node; nodes sharing an
    ordinal are filled with the same palette colour.
    """
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in range(graph.num_nodes):
        attrs = ""
        if cluster_colors is not None:
            color = _DOT_PALETTE[int(cluster_colors[v]) % len(_DOT_PALETTE)]
            attrs = f' [style=filled, fillcolor="{color}"]'
        lines.append(f"  {v}{attrs};")
    n = np.int64(graph.num_nodes)
    src, dst = graph.edge_src, graph.edge_dst
    key = _sorted_unique(np.minimum(src, dst) * n + np.maximum(src, dst))
    for u, v in zip(key // n, key % n):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: Graph) -> dict:
    """JSON-ready dict in the interchange graph format, without labels."""
    obj: dict = {
        "num_nodes": graph.num_nodes,
        "edges": graph.edges.tolist(),
        "node_features": graph.node_features.tolist(),
    }
    if graph.edge_features is not None:
        obj["edge_features"] = graph.edge_features.tolist()
    return obj


def _json_array(
    value, key: str, ndim: int, integer: bool = False, noun: str | None = None
) -> np.ndarray:
    """A JSON number (``ndim`` 0) or ``ndim``-level nested list of numbers as a
    float64 array, int64 if ``integer``, by the one rule for numbers read from JSON:
    no booleans, strings, nulls, objects or ragged rows; integer fields take integers
    or integral floats within int64, read exactly; NaN and infinities are left to the
    consumer. ``[]`` has length 0 in every one of its ``ndim`` >= 1 dimensions, so an
    empty matrix reads as width 0: JSON keeps no width for it. Errors name ``key`` and
    ``noun``."""
    noun = noun or ("an integer" if integer else "a number")
    what = noun if ndim == 0 else (
        "a list of " + "lists of " * (ndim - 1) + ("integers" if integer else "numbers"))
    shape, leaves = [], [value]
    while len(shape) < ndim and leaves:  # level by level, lists of one length; [] ends it
        if not {*map(type, leaves)} <= {list} or len({*map(len, leaves)}) > 1:
            raise ValueError(f"{key} must be {what}")
        shape.append(len(leaves[0]))
        leaves = list(itertools.chain.from_iterable(leaves))
    kinds = set(map(type, leaves))  # numpy alone reads [0, true] as int64
    if not kinds <= {int, float} or (integer and float in kinds):
        for x in leaves:
            if type(x) is not int and (type(x) is not float or (integer and not x.is_integer())):
                raise ValueError(f"{key} must be {what}: {reprlib.repr(x)} is not {noun}")
        leaves = [int(x) for x in leaves]  # exact past 2**53, unlike float64
    shape += [0] * (ndim - len(shape))  # [] ended the descent early
    try:
        return np.asarray(leaves, dtype=np.int64 if integer else np.float64).reshape(shape)
    except OverflowError:  # an integer beyond int64, or beyond float64
        raise ValueError(f"{key} must be {what} within int64" if integer
                         else f"{key} must be finite") from None


def graph_from_json(obj: dict) -> Graph:
    """Build a validated Graph from an interchange-format dict (see README "Graph JSON")."""
    if not isinstance(obj, dict) or not {"num_nodes", "edges", "node_features"} <= obj.keys():
        raise ValueError("graph JSON needs an object with num_nodes, edges and node_features")
    ef = obj.get("edge_features")
    return build_graph(
        int(_json_array(obj["num_nodes"], "num_nodes", 0, integer=True)),
        _json_array(obj["edges"], "edges", 2, integer=True),
        _json_array(obj["node_features"], "node_features", 2),
        None if ef is None else _json_array(ef, "edge_features", 2),
    )


def _graph_and_labels(obj: dict) -> tuple[Graph, int | None, np.ndarray | None]:
    """(graph, label, node_labels) of an interchange-format dict; null labels mean none."""
    graph = graph_from_json(obj)
    label, labels = obj.get("label"), obj.get("node_labels")
    if label is not None:
        label = int(_json_array(label, "label", 0, integer=True, noun="an integer class label"))
    if labels is not None:
        labels = _json_array(labels, "node_labels", 1, integer=True, noun="an integer class label")
        if labels.shape != (graph.num_nodes,):
            raise ValueError(f"node_labels must hold one label per node ({graph.num_nodes})")
    return graph, label, labels


def load_graph_file(path) -> tuple[Graph, int | None, np.ndarray | None]:
    """Load a single-graph JSON file; returns (graph, label, node_labels)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _graph_and_labels(json.load(fh))
