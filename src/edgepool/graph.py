"""Sparse directed-graph containers, batching, and structural queries.

Graphs store edges as explicit directed (src, dst) pairs in a canonical
order (sorted by src, then dst). The canonical order is what makes every
downstream tie-break deterministic, so it is established at construction
and never changes. Input from outside the library is validated and
canonicalized once, by :func:`build_graph`; graphs derived from canonical
ones (:func:`symmetrize`, :func:`batch`, pooling) are assembled directly
from parts that are canonical by construction. Node features are dense
row-major matrices; structure is sparse, and row reductions over it are
products with unit-weight CSR operators whose rows keep their entries in
canonical order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

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
    "save_graph_file",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


def _sorted_unique(key: np.ndarray) -> np.ndarray:
    """``np.unique(key)`` of a 1-D array, by a sort and a step mask.

    On numpy 2.4 bare ``np.unique`` of 1e6 random int64 keys took about
    450 ms, against about 10 ms for this.
    """
    out = np.sort(key)
    step = np.ones(out.size, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=step[1:])
    # Unlike a random mask, a nearly all-true one selects quickly.
    return out[step]


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph with per-node (and optional per-edge) features.

    ``edges`` is an ``(num_edges, 2)`` int64 array in canonical order. Use
    :func:`build_graph` instead of constructing directly; it validates and
    canonicalizes.

    Four internal paths construct a ``Graph`` directly, because their parts
    are canonical and valid by construction and a second validation would
    only repeat work: :meth:`with_node_features` (same structure),
    :func:`symmetrize` (sorted unique keys of a canonical graph's edges and
    their reversals), :func:`batch` (canonical graphs offset by the
    preceding node totals) and :func:`~edgepool.pool.contract` (sorted
    unique keys of the pooled edges; it checks the features it computes
    for overflow). Each leaves every array read-only, as ``build_graph``
    does.
    """

    num_nodes: int
    node_features: np.ndarray
    edges: np.ndarray
    edge_features: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_width(self) -> int:
        return int(self.node_features.shape[1])

    @property
    def edge_feature_width(self) -> int:
        return 0 if self.edge_features is None else int(self.edge_features.shape[1])

    @property
    def edge_src(self) -> np.ndarray:
        return self.edges[:, 0]

    @property
    def edge_dst(self) -> np.ndarray:
        return self.edges[:, 1]

    @cached_property
    def in_adjacency(self) -> sparse.csr_array:
        """Unit-weight ``(num_nodes, num_nodes)`` CSR operator, rows dst, columns src.

        Row j lists the in-neighbors of node j in ascending (canonical) order,
        so ``in_adjacency @ x`` sums them as a scatter-add in edge order does,
        and ``in_adjacency.T @ y`` (a CSC view, no copy) sums into each source
        in ascending dst order. Built on first access and kept.
        """
        return _unit_csr(self.edge_dst, self.edge_src, (self.num_nodes, self.num_nodes))

    def in_degrees(self) -> np.ndarray:
        """Number of incoming edges per node."""
        return np.bincount(self.edge_dst, minlength=self.num_nodes)

    def with_node_features(self, features: np.ndarray) -> "Graph":
        """Same structure, different node features (layer activations etc.)."""
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[0] != self.num_nodes:
            raise ValueError(
                f"feature matrix must have {self.num_nodes} rows, got shape {features.shape}"
            )
        return Graph(self.num_nodes, _freeze(features.copy()), self.edges, self.edge_features)


@dataclass(frozen=True)
class BatchedGraph:
    """Disjoint union of graphs with a node-to-graph assignment vector."""

    graph: Graph
    graph_id: np.ndarray
    num_graphs: int


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

    features = np.asarray(node_features)
    if features.dtype.kind not in "fiu":
        raise ValueError("node features must be numeric")
    if features.dtype.kind in "iu":
        features = features.astype(np.float64)
    if features.ndim != 2:
        raise ValueError(f"node features must be 2-D, got {features.ndim}-D")
    if features.shape[0] != num_nodes:
        raise ValueError(
            f"node feature rows ({features.shape[0]}) != num_nodes ({num_nodes})"
        )
    _require_finite(features, "node features")

    edges = np.asarray(edge_list, dtype=np.int64)
    if edges.size == 0:
        edges = np.zeros((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edge list must be a sequence of (src, dst) pairs")

    ef = None
    if edge_features is not None:
        ef = np.asarray(edge_features)
        if ef.dtype.kind not in "fiu":
            raise ValueError("edge features must be numeric")
        if ef.dtype.kind in "iu":
            ef = ef.astype(np.float64)
        if ef.ndim != 2:
            raise ValueError("edge features must be 2-D")
        if ef.shape[0] != edges.shape[0]:
            raise ValueError(
                f"edge feature rows ({ef.shape[0]}) != num_edges ({edges.shape[0]})"
            )
        _require_finite(ef, "edge features")

    if edges.shape[0]:
        if edges.min() < 0 or edges.max() >= num_nodes:
            raise ValueError("edge endpoint index out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed")
        key = edges[:, 0] * np.int64(num_nodes) + edges[:, 1]
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            edges = edges[order]
            if ef is not None:
                ef = ef[order]
            dup = np.flatnonzero(np.diff(key[order]) == 0)
            if dup.size:
                i, j = edges[dup[0] + 1]
                raise ValueError(f"duplicate directed edge ({i}, {j})")

    return Graph(
        num_nodes,
        _freeze(features.copy()),
        _freeze(edges.copy()),
        None if ef is None else _freeze(ef.copy()),
    )


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
    edges = np.stack([key // n, key % n], axis=1)
    ef = graph.edge_features
    if ef is not None:
        # Both searches take ascending needles, so each starts where the last
        # one ended: at 1e6 edges, 5e5 unsorted needles took 7-8x as long.
        row = np.searchsorted(fkey, key)
        added = np.flatnonzero(np.take(fkey, row, mode="clip") != key)
        order = np.argsort(rkey)  # the reverse keys are distinct
        row[added] = order[np.searchsorted(np.take(rkey, order), key[added])]
        ef = _freeze(np.take(ef, row, axis=0))
    return Graph(graph.num_nodes, graph.node_features, _freeze(edges), ef)


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
    edges = np.concatenate(
        [g.edges + off for g, off in zip(graphs, offsets)], axis=0
    ) if any(g.num_edges for g in graphs) else np.zeros((0, 2), dtype=np.int64)
    features = np.concatenate([g.node_features for g in graphs], axis=0)
    ef = (
        np.concatenate([g.edge_features for g in graphs], axis=0) if has_ef else None
    )
    graph_id = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    # Offsetting canonical graphs by the preceding node totals keeps their
    # concatenation canonical, and every part was validated when it was built.
    merged = Graph(
        int(sizes.sum()), _freeze(features), _freeze(edges), None if ef is None else _freeze(ef)
    )
    return BatchedGraph(merged, _freeze(graph_id), len(graphs))


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
    if graph.num_edges:
        pairs = np.sort(graph.edges, axis=1)
        pairs = np.unique(pairs, axis=0)
        for u, v in pairs:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(
    graph: Graph,
    label: int | None = None,
    node_labels: Sequence[int] | None = None,
) -> dict:
    """JSON-ready dict in the interchange graph format."""
    obj: dict = {
        "num_nodes": graph.num_nodes,
        "edges": graph.edges.tolist(),
        "node_features": graph.node_features.tolist(),
    }
    if graph.edge_features is not None:
        obj["edge_features"] = graph.edge_features.tolist()
    if label is not None:
        obj["label"] = int(label)
    if node_labels is not None:
        obj["node_labels"] = [int(x) for x in node_labels]
    return obj


def graph_from_json(obj: dict) -> Graph:
    """Build a validated Graph from an interchange-format dict."""
    if "num_nodes" not in obj or "edges" not in obj or "node_features" not in obj:
        raise ValueError("graph JSON requires num_nodes, edges, node_features")
    return build_graph(
        obj["num_nodes"],
        obj["edges"],
        np.asarray(obj["node_features"], dtype=np.float64),
        None
        if obj.get("edge_features") is None
        else np.asarray(obj["edge_features"], dtype=np.float64),
    )


def load_graph_file(path) -> tuple[Graph, int | None, np.ndarray | None]:
    """Load a single-graph JSON file; returns (graph, label, node_labels)."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    graph = graph_from_json(obj)
    label = obj.get("label")
    node_labels = obj.get("node_labels")
    if node_labels is not None:
        node_labels = np.asarray(node_labels, dtype=np.int64)
        if node_labels.shape != (graph.num_nodes,):
            raise ValueError("node_labels length must equal num_nodes")
    return graph, (None if label is None else int(label)), node_labels


def save_graph_file(path, graph: Graph, label=None, node_labels=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(graph, label, node_labels), fh)
