"""Dataset ingestion, cross-validation splits, and synthetic generators.

The multi-file plain-text benchmark format is parsed into validated
graphs: comma-separated 1-indexed edge lines, a graph indicator per node
line, one label per graph line, and optional node labels / attributes.
Numbers are ASCII: an integer file entry is ``[+-]?[0-9]+`` and an
attribute a decimal number within float32 range, each after stripping
whitespace; anything else raises ``ValueError`` naming ``path:line``,
as does an attribute line whose entry count differs from the first
line's. An integer line is read for its first entries (two for an edge,
one otherwise) and may have more. A graph with no nodes raises
``ValueError`` naming the indicator file. The CLI's number flags follow the
number rule (:func:`integer`, :func:`decimal`). Synthetic generators
provide deterministic desk-scale graphs for the gradient check and the
training experiments.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .graph import (Graph, _codes, _count, _real_number, _sorted_unique, _unique_edges,
                    build_graph, symmetrize)
from .rng import seeded_rng

__all__ = [
    "GraphDataset",
    "NodeTask",
    "load_tu",
    "save_tu",
    "kfold_splits",
    "node_split",
    "gen_synthetic",
    "make_erdos_renyi",
    "make_connected_erdos_renyi",
    "make_sbm",
]


@dataclass(frozen=True)
class GraphDataset:
    graphs: list[Graph]
    labels: np.ndarray
    num_classes: int
    name: str

    def __len__(self) -> int:
        return len(self.graphs)


@dataclass(frozen=True)
class NodeTask:
    """Semi-supervised node classification on a single graph."""

    graph: Graph
    node_labels: np.ndarray
    train_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int
    name: str = "node-task"


_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _ascii(tok: str, pattern: re.Pattern, noun: str) -> str:
    tok = tok.strip()
    if not pattern.fullmatch(tok):
        raise ValueError(f"{tok!r} is not {noun}")
    return tok


def integer(tok: str) -> int:
    """An ASCII integer token within int64; ``2.5``, ``1_0`` and ``١`` are refused."""
    value = int(_ascii(tok, _INTEGER, "an integer"))
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is outside the int64 range")
    return value


def decimal(tok: str) -> float:
    """An ASCII decimal token; ``nan``, ``inf``, ``1_0`` and ``١`` are refused."""
    return float(_ascii(tok, _DECIMAL, "a decimal number"))


def _float32(tok: str) -> float:
    """A :func:`decimal` token within float32 range."""
    value = decimal(tok)
    if not abs(value) <= _FLOAT32_MAX:
        raise ValueError(f"{tok.strip()} is outside the float32 range")
    return value


def _read_table(path, what: str, dtype, columns: int | None = None) -> np.ndarray:
    """Every non-blank line of ``path``, stripped and split at commas, each
    entry read by ``dtype``'s rule (:func:`integer` or :func:`_float32`): a
    (lines, width) array of ``dtype``.

    With ``columns``, each line keeps its first ``columns`` entries; without,
    every line must have as many entries as the first. Lines are read one by
    one, and the first that has an entry the rule rejects, or breaks the
    width rule, raises ``ValueError`` naming ``path:line``.
    """
    parse = _float32 if dtype is np.float32 else integer
    rows, width = [], columns
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [parse(tok) for tok in line.split(",")]
                width = width or len(row)
                if len(row) < width:
                    raise ValueError(f"needs {width} entries")
                if len(row) > width and columns is None:
                    raise ValueError(f"has {len(row)} entries, not the first line's {width}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {what} line {line!r}: {exc}") from None
            rows.append(row[:width])
    return np.array(rows, dtype=dtype).reshape(len(rows), width or 0)


def _label_codes(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Each label's rank among the distinct labels (int64 codes 0..C-1 in
    sorted order of the values), and C."""
    values = _sorted_unique(labels.copy())
    return np.searchsorted(values, labels).astype(np.int64), len(values)


def _tu_path(directory, name: str, suffix: str) -> str:
    flat = os.path.join(directory, f"{name}_{suffix}.txt")
    nested = os.path.join(directory, name, f"{name}_{suffix}.txt")
    return flat if os.path.exists(flat) else nested


def load_tu(directory, name: str) -> GraphDataset:
    """Load one benchmark dataset from its plain-text files.

    Node features are the attributes concatenated with a one-hot encoding
    of the node labels; datasets with neither get a constant 1.0 feature.
    Graph labels are remapped to 0..C-1 preserving sorted original order.
    Edges are symmetrized and deduplicated. A graph label with no node in
    the indicator file is a graph with no nodes, and raises ``ValueError``.
    """
    a_path = _tu_path(directory, name, "A")
    ind_path = _tu_path(directory, name, "graph_indicator")
    lab_path = _tu_path(directory, name, "graph_labels")
    for path, what in ((a_path, "adjacency"), (ind_path, "graph indicator"), (lab_path, "graph labels")):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing mandatory {what} file: {path}")

    indicator = _read_table(ind_path, "graph indicator", np.int64, 1)[:, 0]
    raw_labels = _read_table(lab_path, "graph label", np.int64, 1)[:, 0]
    edges_global = _read_table(a_path, "edge", np.int64, 2)

    total_nodes = len(indicator)
    num_graphs = len(raw_labels)
    if indicator.min(initial=1) < 1 or indicator.max(initial=1) > num_graphs:
        raise ValueError("graph indicator value out of range")

    node_labels = None
    nl_path = _tu_path(directory, name, "node_labels")
    if os.path.exists(nl_path):
        node_labels = _read_table(nl_path, "node label", np.int64, 1)[:, 0]
        if len(node_labels) != total_nodes:
            raise ValueError("node label count != node count")

    attributes = None
    attr_path = _tu_path(directory, name, "node_attributes")
    if os.path.exists(attr_path):
        attributes = _read_table(attr_path, "node attribute", np.float32)
        if attributes.shape[0] != total_nodes:
            raise ValueError("node attribute count != node count")

    feature_parts = []
    if attributes is not None:
        feature_parts.append(attributes)
    if node_labels is not None:
        codes, num_values = _label_codes(node_labels)
        onehot = np.zeros((total_nodes, num_values), dtype=np.float32)
        onehot[np.arange(total_nodes), codes] = 1.0
        feature_parts.append(onehot)
    if feature_parts:
        features = np.concatenate(feature_parts, axis=1)
    else:
        features = np.ones((total_nodes, 1), dtype=np.float32)

    # Group nodes per graph; the format lists nodes in graph order.
    node_graph = indicator - 1
    counts = np.bincount(node_graph, minlength=num_graphs)
    if np.any(np.diff(node_graph) < 0):
        raise ValueError("graph indicator must be non-decreasing")
    if not counts.all():
        raise ValueError(f"{ind_path}: graph {np.argmin(counts) + 1} has no nodes")
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])

    u, v = edges_global[:, 0], edges_global[:, 1]
    in_range = (u >= 1) & (u <= total_nodes) & (v >= 1) & (v <= total_nodes)
    bad = ~in_range
    bad[in_range] = node_graph[u[in_range] - 1] != node_graph[v[in_range] - 1]
    if bad.any():  # report the first bad line in file order
        e = int(np.argmax(bad))
        u, v = int(u[e]), int(v[e])
        if not in_range[e]:
            raise ValueError(f"edge endpoint {u if u < 1 or u > total_nodes else v} out of range")
        raise ValueError(f"edge ({u}, {v}) references a node outside its graph")
    if np.any(u == v):
        raise ValueError("self-loops are not allowed")
    # Nodes are numbered in graph order, so the sorted unique keys of every
    # edge and its reversal come out grouped per graph, each group symmetric
    # and in canonical (src, dst) order.
    u, v = u - 1, v - 1
    src, dst = _unique_edges(np.concatenate([u, v]), np.concatenate([v, u]), total_nodes)
    bounds = np.searchsorted(src, np.append(offsets, total_nodes))

    labels, num_classes = _label_codes(raw_labels)

    graphs = []
    for g in range(num_graphs):
        lo, hi, off = bounds[g], bounds[g + 1], offsets[g]
        graphs.append(Graph(features[off : off + counts[g]].copy(),
                            src[lo:hi] - off, dst[lo:hi] - off))

    return GraphDataset(graphs=graphs, labels=labels, num_classes=num_classes, name=name)


def save_tu(dataset: GraphDataset, directory, name: str | None = None) -> None:
    """Write a dataset back out in the plain-text benchmark format.

    Features go to the attributes file, so a reload reproduces the dataset
    exactly (modulo the label remap, which is idempotent). The format has no
    edge attributes, and :func:`load_tu` reads attributes as float32, so a
    graph with edge features, or with a node feature that float32 does not
    hold exactly, raises ``ValueError`` before anything is written.
    """
    for k, g in enumerate(dataset.graphs):
        if g.edge_features is not None:
            raise ValueError(f"graph {k} has edge features, which the text format cannot hold")
        with np.errstate(over="ignore"):  # a feature beyond float32 casts to inf
            exact = np.array_equal(g.node_features, g.node_features.astype(np.float32))
        if not exact:
            raise ValueError(f"graph {k} has node features that float32 does not hold "
                             "exactly, and the text format is read as float32")
    name = name or dataset.name
    os.makedirs(directory, exist_ok=True)
    a_lines, ind_lines, attr_lines = [], [], []
    offset = 0
    for k, g in enumerate(dataset.graphs):
        for u, v in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
            a_lines.append(f"{u + 1 + offset}, {v + 1 + offset}")
        ind_lines.extend([str(k + 1)] * g.num_nodes)
        for row in g.node_features:
            attr_lines.append(", ".join(repr(float(x)) for x in row))
        offset += g.num_nodes
    for suffix, lines in (
        ("A", a_lines),
        ("graph_indicator", ind_lines),
        ("node_attributes", attr_lines),
        ("graph_labels", [str(int(l)) for l in dataset.labels]),
    ):
        with open(os.path.join(directory, f"{name}_{suffix}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def kfold_splits(n: int, k: int = 10, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random k-fold partition of ``range(n)``; fold sizes differ by at most one.

    ``n`` and ``k`` are integers (``graph._count``), ``2 <= k <= n``.
    """
    n, k = _count("n", n), _count("k", k)
    if not 2 <= k <= n:
        raise ValueError(f"k ({k}) cannot split {n} items: need 2 <= folds <= {n}")
    perm = seeded_rng(seed, "kfold").permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i, test in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        out.append((np.sort(train), np.sort(test)))
    return out


# The standard node split: labeled nodes per class for training, for testing.
_PER_CLASS_TRAIN, _PER_CLASS_TEST = 20, 30


def node_split(
    graph: Graph,
    node_labels: np.ndarray,
    per_class_train: int = _PER_CLASS_TRAIN,
    per_class_test: int = _PER_CLASS_TEST,
    seed: int = 0,
) -> NodeTask:
    """Per-class sampling without replacement into train/test masks.

    ``node_labels`` are one integer per node (``graph._codes`` with no
    range: the task remaps them to 0..C-1). Remaining nodes stay unlabeled.
    Every class needs at least per_class_train + per_class_test members. The
    two counts follow the count rule (``graph._count``): a float, a boolean
    or a negative count raises ``ValueError`` naming it, and a zero count is
    left to the trainers' empty-split check. The defaults are the
    standard split, which the ``sbm_node_task`` synthetic and ``train-node``
    on a task without given splits use.
    """
    node_labels = _codes("node_labels", node_labels, (graph.num_nodes,), item="node", signed=True)
    need = _count("per_class_train", per_class_train) + _count("per_class_test", per_class_test)
    classes = _sorted_unique(node_labels.copy())
    rng = seeded_rng(seed, "node-split")
    train_mask = np.zeros(graph.num_nodes, dtype=bool)
    test_mask = np.zeros(graph.num_nodes, dtype=bool)
    for c in classes:
        members = np.flatnonzero(node_labels == c)
        if len(members) < need:
            raise ValueError(
                f"class {c} has {len(members)} nodes, needs at least {need}"
            )
        picked = rng.permutation(members)
        train_mask[picked[:per_class_train]] = True
        test_mask[picked[per_class_train:need]] = True
    return _node_task(graph, node_labels, train_mask, test_mask)


def _node_task(graph: Graph, node_labels: np.ndarray, train_mask: np.ndarray,
               test_mask: np.ndarray) -> NodeTask:
    """The task with its labels remapped to 0..C-1 in sorted order."""
    codes, num_classes = _label_codes(node_labels)
    return NodeTask(graph=graph, node_labels=codes, train_mask=train_mask,
                    test_mask=test_mask, num_classes=num_classes)


def _upper_edges(n: int, p, rng: np.random.Generator) -> np.ndarray:
    """Pairs i < j, each kept with probability ``p`` (a scalar or an (n, n)
    array) by one (n, n) uniform draw, as a (m, 2) array in row order."""
    iu = np.triu_indices(n, k=1)
    take = (rng.random((n, n)) < p)[iu]
    return np.stack([iu[0][take], iu[1][take]], axis=1)


def make_erdos_renyi(n: int, p: float, rng: np.random.Generator, feature_width: int = 1) -> Graph:
    """Undirected G(n, p), stored with both edge directions."""
    edges = _upper_edges(n, p, rng)
    return symmetrize(build_graph(n, edges, rng.normal(0.0, 1.0, size=(n, feature_width))))


def _is_connected(graph: Graph) -> bool:
    """Whether a symmetric graph is connected."""
    return connected_components(graph.in_adjacency, directed=False)[0] <= 1


_CONNECTED_TRIES = 200


def make_connected_erdos_renyi(
    n: int, p: float, rng: np.random.Generator, feature_width: int = 1
) -> Graph:
    """Resample G(n, p) until connected, at most ``_CONNECTED_TRIES`` times."""
    for _ in range(_CONNECTED_TRIES):
        g = make_erdos_renyi(n, p, rng, feature_width)
        if _is_connected(g):
            return g
    raise ValueError(f"no connected sample in {_CONNECTED_TRIES} tries (n={n}, p={p})")


def make_sbm(
    num_blocks: int,
    nodes_per_block: int,
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
    feature_width: int = 4,
    feature_noise: float = 1.0,
    signal: float = 1.0,
) -> tuple[Graph, np.ndarray]:
    """Stochastic block model with block-signature node features.

    Each node's feature is ``signal`` times its block's one-hot signature
    (in the first num_blocks feature columns) plus Gaussian noise. Returns
    (graph, block labels).
    """
    if feature_width < num_blocks:
        raise ValueError("feature_width must be at least num_blocks")
    n = num_blocks * nodes_per_block
    blocks = np.repeat(np.arange(num_blocks), nodes_per_block)
    edges = _upper_edges(n, np.where(blocks[:, None] == blocks[None, :], p_in, p_out), rng)
    features = rng.normal(0.0, feature_noise, size=(n, feature_width))
    features[np.arange(n), blocks] += signal
    graph = symmetrize(build_graph(n, edges, features.astype(np.float32)))
    return graph, blocks.astype(np.int64)


def _make_proteinlike(
    num_graphs: int, rng: np.random.Generator, min_nodes: int, max_nodes: int
) -> GraphDataset:
    """Binary-labeled mostly-linear graphs: class 1 paths carry extra chords.

    Features are [1, scaled degree, noise], so degree statistics separate
    the classes while staying non-trivial.
    """
    graphs, labels = [], []
    for _ in range(num_graphs):
        n = int(rng.integers(min_nodes, max_nodes + 1))
        label = int(rng.integers(0, 2))
        edges = {(i, i + 1) for i in range(n - 1)}
        if label == 1:
            for _ in range(max(1, n // 4)):
                u, v = rng.integers(0, n, size=2)
                u, v = int(min(u, v)), int(max(u, v))
                if v - u >= 2:
                    edges.add((u, v))
        edge_arr = np.asarray(sorted(edges), dtype=np.int64)
        deg = np.bincount(edge_arr.ravel(), minlength=n).astype(np.float32)
        features = np.stack(
            [
                np.ones(n, dtype=np.float32),
                0.25 * deg,
                rng.normal(0.0, 0.3, size=n).astype(np.float32),
            ],
            axis=1,
        )
        graphs.append(symmetrize(build_graph(n, edge_arr, features)))
        labels.append(label)
    return GraphDataset(
        graphs=graphs,
        labels=np.asarray(labels, dtype=np.int64),
        num_classes=2,
        name="path-proteinlike",
    )


# Each synthetic kind's parameters, as (default, rule): an int rule is a
# count's minimum (``graph._count``), a string a real number's range
# (``graph._real_number``).
_SYNTHETIC_PARAMS = {
    "path_proteinlike": {"num_graphs": (100, 1), "min_nodes": (10, 1), "max_nodes": (30, 1)},
    "sbm_node_task": {"blocks": (2, 1), "nodes_per_block": (100, 1),
                      "p_in": (0.12, "in [0, 1]"), "p_out": (0.01, "in [0, 1]"),
                      "feature_width": (4, 1), "feature_noise": (1.8, "non-negative and finite"),
                      "signal": (1.0, "finite"), "per_class_train": (_PER_CLASS_TRAIN, 0),
                      "per_class_test": (_PER_CLASS_TEST, 0)},
}


def gen_synthetic(kind: str, params: dict, seed: int = 0) -> GraphDataset | NodeTask:
    """Deterministic synthetic data keyed by kind.

    Kinds:

    * ``path_proteinlike``: ``num_graphs`` paths of ``min_nodes`` to
      ``max_nodes`` nodes, class 1 with extra chords (a graph dataset);
    * ``sbm_node_task``: a stochastic block model node task with the blocks
      as labels and the standard per-class train/test split.

    ``params`` overrides the defaults of the kind's ``_SYNTHETIC_PARAMS``;
    an unknown kind or key raises ``ValueError`` naming it. Each key passes
    its declared rule, else ``ValueError`` naming the key: a count
    (``graph._count``) is at least its minimum, 1 for every size, 0 for
    the split counts (``node_split``), and ``max_nodes`` at least
    ``min_nodes``; a real number (``graph._real_number``) lies in its range,
    so a probability is in [0, 1] and the noise scale non-negative.
    """
    if kind not in _SYNTHETIC_PARAMS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    declared = _SYNTHETIC_PARAMS[kind]
    unknown = sorted(set(params) - set(declared))
    if unknown:
        raise ValueError(f"unknown {kind} parameters {unknown}; known: {sorted(declared)}")
    p = {key: _count(key, params.get(key, default), rule) if type(rule) is int
         else _real_number(key, params.get(key, default), rule)
         for key, (default, rule) in declared.items()}
    rng = seeded_rng(seed, "synthetic", kind)
    if kind == "path_proteinlike":
        _count("max_nodes", p["max_nodes"], p["min_nodes"])
        return _make_proteinlike(p["num_graphs"], rng, p["min_nodes"], p["max_nodes"])
    graph, blocks = make_sbm(p["blocks"], p["nodes_per_block"], p["p_in"], p["p_out"], rng,
                             p["feature_width"], p["feature_noise"], p["signal"])
    return node_split(graph, blocks, p["per_class_train"], p["per_class_test"], seed=seed)
