"""Sparse directed-graph containers, batching, and structural queries.

Graphs store edges as two int64 columns of endpoints, src and dst, in a
canonical order (sorted by src, then dst). The canonical order is what
makes every downstream tie-break deterministic, so it is established at
construction and never changes. Input from outside the library is
validated and canonicalized once, by :func:`build_graph` (or, for a whole
benchmark dataset, by :func:`~edgepool.data.load_tu`); graphs derived from
canonical ones (:func:`symmetrize`, :func:`batch`, pooling) are assembled
directly from parts that are canonical by construction, and the
:class:`Graph` type makes the arrays of every graph read-only. The order
is that of the int64 edge key ``src * n + dst``, and the key has one home
here: :func:`_edge_key` encodes pairs, :func:`_key_edges` decodes keys and
:func:`_unique_edges` deduplicates pairs, for every module that orders,
deduplicates or decodes an edge set. The rules of arguments have one home
here too (:func:`_real`, :func:`_real_number`, :func:`_mask`,
:func:`_codes`, :func:`_count`). Node
features are dense row-major matrices; structure is sparse, and row
reductions over it are products with unit-weight CSR operators whose rows
keep their entries in canonical order.
"""

from __future__ import annotations

import itertools
import json
import operator
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
    The 1.0s are float32, the one home of the sum precision: they widen
    exactly, so a product sums in its operand's dtype (float32 or float64).
    """
    return sparse.csr_array((np.ones(len(rows), dtype=np.float32), (rows, cols)), shape=shape)


def _segment_sum(index: np.ndarray, values: np.ndarray, num_segments: int) -> np.ndarray:
    """Row k of the result sums ``values[i]`` over ``index[i] == k``, in order of i.

    Bit-identical to an in-order scatter-add in the values' dtype; empty segments are 0.
    """
    m = len(index)
    return _unit_csr(index, np.arange(m), (num_segments, m)) @ values


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")


def _real(name: str, values, shape: tuple, finite: bool = False) -> np.ndarray:
    """``values`` as a real array of ``shape`` (``None`` for a dimension of any
    length): a float array unchanged, an integer array widened to float64.

    The one rule of real arrays (features, activations, gradients, gates and
    scores): boolean, complex, string and object arrays are refused, never
    cast, and nothing is reshaped or broadcast, so integer input is widened,
    never truncated. It reads the dtype and the shape alone, so a float array
    costs O(1) and is not copied; only ``finite`` reads every entry, where
    NaN and infinities must not enter. Raises ValueError whose message starts
    with ``name`` otherwise.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "fiu":
        raise ValueError(f"{name} must be numeric and real, got dtype {a.dtype}")
    if a.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, a.shape)):
        of = f" of shape {str(shape).replace('None', 'k')}" if set(shape) - {None} else ""
        raise ValueError(f"{name} must be {len(shape)}-D{of}, got shape {a.shape}")
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    if finite:
        _require_finite(a, name)
    return a


# The ranges that a real number can be held to, by the words that name them.
_RANGES = {"in [0, 1)": lambda v: 0.0 <= v < 1.0,
           "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
           "positive and finite": lambda v: 0.0 < v < np.inf,
           "non-negative and finite": lambda v: 0.0 <= v < np.inf,
           "finite": lambda v: -np.inf < v < np.inf}


def _real_number(name: str, value, within: str | None = None) -> float:
    """``value`` as a float: a Python or numpy real number, or a 0-D real
    array (:func:`_real`), so a bool or a string is refused; with ``within``,
    a key of ``_RANGES``, it must lie in that range (a dropout rate in
    ``[0, 1)``, a probability in ``[0, 1]``, a learning rate positive and
    finite, a noise scale non-negative and finite). Raises ValueError whose
    message starts with ``name`` otherwise.
    """
    number = float(_real(name, value, ()))
    if within is not None and not _RANGES[within](number):
        raise ValueError(f"{name} must be {within}, got {value}")
    return number


def _mask(name: str, values, size: int, item: str) -> np.ndarray:
    """``values`` as a boolean mask of ``size`` entries, one per ``item``.

    The one rule of masks: an integer or float array is refused, never cast,
    so ``[0, 2]`` is no mask. Raises ValueError whose message starts with
    ``name`` otherwise.
    """
    a = np.asarray(values)
    if a.dtype != bool or a.shape != (size,):
        raise ValueError(f"{name} must be a boolean mask of shape ({size},), one entry per "
                         f"{item}, got shape {a.shape} and dtype {a.dtype}")
    return a


def _codes(name: str, values, shape: tuple, bound: int | None = None,
           item: str | None = None, signed: bool = False) -> np.ndarray:
    """``values`` as int64 integer codes: an integer array of ``shape``
    (``None`` for a dimension of any length), each entry in ``[0, bound)``;
    without a ``bound`` each entry is ``>= 0``, or of any sign when ``signed``
    (raw labels). ``item`` names what each entry of a fixed-length array
    stands for.

    The one rule of integer codes: nothing is cast, wrapped, reshaped or
    clipped. Float and boolean arrays are refused, and so is an entry that
    int64 cannot hold. Any empty array, ``[]`` too, is the empty array of a
    shape whose first dimension is ``None`` or 0. A Python list that mixes
    booleans and integers reads as an int64 array before this rule sees it,
    so its booleans pass as 0 and 1: lists are not scanned entry by entry. A
    valid array costs a min and a max and makes no temporary; the first
    offender is looked up only on failure. Raises ValueError whose message
    starts with ``name`` otherwise.
    """
    a = np.asarray(values)
    if a.size == 0 and not shape[0]:  # [] reads as float64 of shape (0,)
        a = np.zeros((0, *shape[1:]), dtype=np.int64)
    if (a.dtype.kind not in "iu" or a.ndim != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, a.shape))):
        per = f", one entry per {item}" if item else ""
        raise ValueError(f"{name} must be an integer array of shape "
                         f"{str(shape).replace('None', 'k')}{per}, "
                         f"got shape {a.shape} and dtype {a.dtype}")
    low, high = -(2**63) if signed else 0, 2**63 if bound is None else bound
    if a.size and (a.min() < low or a.max() >= high):
        v = a[(a < low) | (a >= high)][0]
        why = ("is negative" if v < 0 else "does not fit int64") if bound is None else (
            f"is not an index: it lies outside [0, {bound})")
        raise ValueError(f"{name} entry {v} {why}")
    return a.astype(np.int64, copy=False)


def _count(name: str, value, minimum: int | None = 0) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, of at least
    ``minimum`` (of any sign when ``minimum`` is None, as a seed is).

    The one rule of counts and seeds: nothing is cast or truncated, so 2.5 and
    True are refused. Raises ValueError whose message starts with ``name``
    otherwise.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return operator.index(value)


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


def _edge_key(src: np.ndarray, dst: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The int64 key ``src * n + dst`` of each (src, dst) pair of nodes in ``[0, n)``.

    The one home of the edge key, with :func:`_key_edges` and
    :func:`_unique_edges`: ascending keys are pairs in canonical order (by
    src, then dst), and equal keys are equal pairs. It is exact while
    ``n**2 < 2**63``, the bound that :func:`build_graph` checks. With ``out``
    (``src`` itself, or an int64 array of its shape), the key is built in
    that buffer and no array is made.
    """
    key = np.multiply(src, np.int64(n), out=out)
    return np.add(key, dst, out=key)


def _key_edges(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (src, dst) columns of the keys :func:`_edge_key` built, by one division.

    ``dst`` is built in ``key``'s buffer, so a caller that reads ``key`` again
    passes a copy. One division is faster than ``//`` and ``%`` (measured in
    :mod:`edgepool.pool`).
    """
    src = key // n
    key -= src * n
    return src, key


def _unique_edges(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (src, dst) pairs of nodes in ``[0, n)``, in canonical order."""
    return _key_edges(_sorted_unique(_edge_key(src, dst, n)), n)


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph with per-node features.

    Edge ``e`` runs from ``edge_src[e]`` to ``edge_dst[e]``: two 1-D int64
    columns in canonical order, which every pooling stage reads as they
    are. ``num_nodes`` is derived: it is the row count of
    ``node_features``, so no count can disagree with the features. Use
    :func:`build_graph` instead of constructing directly; it validates and
    canonicalizes.

    Six internal paths construct a ``Graph`` directly, because their parts
    are canonical and valid by construction and a second validation would
    only repeat work: :meth:`with_node_features` (same structure; it checks
    the new features as :func:`build_graph` does), :func:`symmetrize`
    (sorted unique keys of a canonical graph's edges and their reversals),
    :func:`batch` (canonical graphs offset by the preceding node totals),
    :func:`~edgepool.pool.contract` (sorted unique keys of the pooled
    edges; it checks the features it computes for overflow),
    :func:`~edgepool.data.load_tu` (sorted unique keys of all its edges and
    their reversals, split per graph) and :func:`~edgepool.layers.edge_pool`
    (the same graph on a view of its activations, which it checks as
    :meth:`with_node_features` does). Whichever path builds it, the type
    makes every array read-only (as :class:`BatchedGraph` does its
    ``graph_id``).
    """

    node_features: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.node_features, self.edge_src, self.edge_dst):
            a.flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_src.shape[0]

    @property
    def feature_width(self) -> int:
        return self.node_features.shape[1]

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
        """Same structure, different node features, checked and copied as
        :func:`build_graph` checks and copies them.

        The gradient check's random graphs take their features here. A tape
        op does not: :func:`~edgepool.layers.edge_pool` scores a read-only
        view of its activations, so a training step copies none of them.
        """
        x = _real("node features", features, (self.num_nodes, None), finite=True).copy()
        return Graph(x, self.edge_src, self.edge_dst)


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
) -> Graph:
    """Validate inputs and return a Graph with edges in canonical order.

    Edges are ordered by the int64 key ``src * num_nodes + dst``, which
    needs ``num_nodes**2 < 2**63``. Input whose keys already increase
    strictly is canonical and duplicate-free, so it is not sorted again.

    ``num_nodes`` follows the count rule (:func:`_count`) and ``edge_list``,
    a (k, 2) array of (src, dst) pairs, the code rule (:func:`_codes`), so no
    count or endpoint is cast. Raises ValueError on a count or endpoint that
    breaks its rule, duplicate directed edges, self-loops, dimension
    mismatches, non-numeric or non-finite features, or a node count too large
    for the key.
    """
    num_nodes = _count("num_nodes", num_nodes)
    if num_nodes * num_nodes >= 2**63:
        raise ValueError(
            f"num_nodes ({num_nodes}) is too large: num_nodes**2 must be < 2**63"
        )

    features = _real("node features", node_features, (num_nodes, None), finite=True)
    edges = _codes("edge_list", edge_list, (None, 2), num_nodes)

    src, dst = edges[:, 0].copy(), edges[:, 1].copy()
    if src.size:
        if np.any(src == dst):
            raise ValueError("self-loops are not allowed")
        key = _edge_key(src, dst, num_nodes)
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            src, dst = src[order], dst[order]
            dup = np.flatnonzero(np.diff(key[order]) == 0)
            if dup.size:
                i = dup[0] + 1
                raise ValueError(f"duplicate directed edge ({src[i]}, {dst[i]})")

    return Graph(features.copy(), src, dst)


def symmetrize(graph: Graph) -> Graph:
    """Ensure every edge has its reverse.

    Returns ``graph`` itself when every edge already has its reverse;
    otherwise a graph with the same node features and the union of the
    edges and their reversals. The operation is idempotent.
    """
    fkey = _edge_key(graph.edge_src, graph.edge_dst, graph.num_nodes)
    rkey = _edge_key(graph.edge_dst, graph.edge_src, graph.num_nodes)
    key = _sorted_unique(np.concatenate([fkey, rkey]))
    if key.size == graph.num_edges:
        return graph
    return Graph(graph.node_features, *_key_edges(key, graph.num_nodes))


def batch(graphs: Sequence[Graph]) -> BatchedGraph:
    """Disjoint union: node indices of graph k are offset by preceding totals."""
    if len(graphs) == 0:
        raise ValueError("cannot batch an empty list of graphs")
    width = graphs[0].feature_width
    for g in graphs:
        if g.num_nodes == 0:
            raise ValueError("cannot batch a graph with zero nodes")
        if g.feature_width != width:
            raise ValueError(
                f"feature width mismatch: {g.feature_width} != {width}"
            )

    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    shift = np.repeat(offsets, [g.num_edges for g in graphs])
    src = np.concatenate([g.edge_src for g in graphs])
    src += shift
    dst = np.concatenate([g.edge_dst for g in graphs])
    dst += shift
    features = np.concatenate([g.node_features for g in graphs], axis=0)
    graph_id = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    # Offsetting canonical graphs by the preceding node totals keeps their
    # concatenation canonical, and every part was validated when it was built.
    return BatchedGraph(Graph(features, src, dst), graph_id)


# Fill palette for cluster-coloured DOT output (colour-blind friendly hexes).
_DOT_PALETTE = (
    "#a6cee3", "#fdbf6f", "#b2df8a", "#fb9a99", "#cab2d6", "#ffff99",
    "#1f78b4", "#ff7f00", "#33a02c", "#e31a1c", "#6a3d9a", "#b15928",
)


def to_dot(graph: Graph, cluster_colors: Sequence[int] | None = None, name: str = "g") -> str:
    """Render as DOT text. Reverse edge pairs are drawn once (undirected).

    ``cluster_colors`` assigns a cluster ordinal per node, a non-negative
    integer code (:func:`_codes`, else ValueError); nodes sharing an ordinal
    are filled with the same palette colour.
    """
    if cluster_colors is not None:
        cluster_colors = _codes("cluster_colors", cluster_colors, (graph.num_nodes,), item="node")
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in range(graph.num_nodes):
        attrs = ""
        if cluster_colors is not None:
            color = _DOT_PALETTE[cluster_colors[v] % len(_DOT_PALETTE)]
            attrs = f' [style=filled, fillcolor="{color}"]'
        lines.append(f"  {v}{attrs};")
    src, dst = graph.edge_src, graph.edge_dst
    for u, v in zip(*_unique_edges(np.minimum(src, dst), np.maximum(src, dst), graph.num_nodes)):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: Graph) -> dict:
    """JSON-ready dict in the interchange graph format, without labels."""
    return {
        "num_nodes": graph.num_nodes,
        "edges": [[u, v] for u, v in zip(graph.edge_src.tolist(), graph.edge_dst.tolist())],
        "node_features": graph.node_features.tolist(),
    }


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
    """Build a validated Graph from an interchange-format dict (see README "Graph JSON").

    A graph has no edge features: a non-null ``edge_features`` is refused,
    never dropped, and a null one means none.
    """
    if not isinstance(obj, dict) or not {"num_nodes", "edges", "node_features"} <= obj.keys():
        raise ValueError("graph JSON needs an object with num_nodes, edges and node_features")
    if obj.get("edge_features") is not None:
        raise ValueError("edge_features are not supported: the scorer reads node features only")
    return build_graph(
        int(_json_array(obj["num_nodes"], "num_nodes", 0, integer=True)),
        _json_array(obj["edges"], "edges", 2, integer=True),
        _json_array(obj["node_features"], "node_features", 2),
    )


def _graph_and_labels(obj: dict) -> tuple[Graph, int | None, np.ndarray | None]:
    """(graph, label, node_labels) of an interchange-format dict; null labels mean none."""
    graph = graph_from_json(obj)
    label, labels = obj.get("label"), obj.get("node_labels")
    if label is not None:
        label = int(_json_array(label, "label", 0, integer=True, noun="an integer class label"))
    if labels is not None:
        labels = _json_array(labels, "node_labels", 1, integer=True, noun="an integer class label")
        labels = _codes("node_labels", labels, (graph.num_nodes,), item="node", signed=True)
    return graph, label, labels


def load_graph_file(path) -> tuple[Graph, int | None, np.ndarray | None]:
    """Load a single-graph JSON file; returns (graph, label, node_labels)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _graph_and_labels(json.load(fh))
