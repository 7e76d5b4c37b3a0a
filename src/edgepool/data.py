"""Dataset ingestion, cross-validation splits, and synthetic generators.

The multi-file plain-text benchmark format is parsed into validated
graphs: comma-separated 1-indexed edge lines, a graph indicator per node
line, one label per graph line, and optional node labels / attributes.
Synthetic generators provide deterministic desk-scale graphs for property
tests and node-classification experiments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graph import Graph, build_graph, symmetrize
from .rng import seeded_rng

__all__ = [
    "GraphDataset",
    "NodeTask",
    "load_tu",
    "save_tu",
    "kfold_splits",
    "node_split",
    "gen_synthetic",
    "make_cycle",
    "make_star",
    "make_path",
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


def _read_lines(path, what: str, parse_row) -> list[list]:
    """Parse every non-blank line of ``path``, split at commas, with ``parse_row``.

    Raises ``ValueError`` naming ``path:line`` for a line ``parse_row`` rejects.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(parse_row(line.split(",")))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {what} line {line!r}: {exc}") from None
    return rows


def _int64(tok: str) -> int:
    """An integer token within int64; ``2.5``, ``nan`` and ``inf`` are refused."""
    try:
        value = int(tok)
    except ValueError:
        raise ValueError(f"{tok.strip()!r} is not an integer") from None
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is outside the int64 range")
    return value


def _read_ints(path, what: str, columns: int = 1) -> np.ndarray:
    """The first ``columns`` entries of each line of an integer file, (rows, columns) int64.

    Every entry of every line must be an integer.
    """

    def parse_row(tokens):
        row = [_int64(tok) for tok in tokens]
        if len(row) < columns:
            raise ValueError(f"needs {columns} entries")
        return row[:columns]

    return np.asarray(_read_lines(path, what, parse_row), dtype=np.int64).reshape(-1, columns)


def _tu_path(directory, name: str, suffix: str) -> str:
    flat = os.path.join(directory, f"{name}_{suffix}.txt")
    nested = os.path.join(directory, name, f"{name}_{suffix}.txt")
    return flat if os.path.exists(flat) else nested


def load_tu(directory, name: str) -> GraphDataset:
    """Load one benchmark dataset from its plain-text files.

    Node features are the attributes concatenated with a one-hot encoding
    of the node labels; datasets with neither get a constant 1.0 feature.
    Graph labels are remapped to 0..C-1 preserving sorted original order.
    Edges are symmetrized and deduplicated.
    """
    a_path = _tu_path(directory, name, "A")
    ind_path = _tu_path(directory, name, "graph_indicator")
    lab_path = _tu_path(directory, name, "graph_labels")
    for path, what in ((a_path, "adjacency"), (ind_path, "graph indicator"), (lab_path, "graph labels")):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing mandatory {what} file: {path}")

    indicator = _read_ints(ind_path, "graph indicator")[:, 0]
    raw_labels = _read_ints(lab_path, "graph label")[:, 0]
    edges_global = _read_ints(a_path, "edge", columns=2)

    total_nodes = len(indicator)
    num_graphs = len(raw_labels)
    if indicator.min(initial=1) < 1 or indicator.max(initial=1) > num_graphs:
        raise ValueError("graph indicator value out of range")

    node_labels = None
    nl_path = _tu_path(directory, name, "node_labels")
    if os.path.exists(nl_path):
        node_labels = _read_ints(nl_path, "node label")[:, 0]
        if len(node_labels) != total_nodes:
            raise ValueError("node label count != node count")

    attributes = None
    attr_path = _tu_path(directory, name, "node_attributes")
    if os.path.exists(attr_path):
        rows = _read_lines(attr_path, "node attribute", lambda tokens: [float(t) for t in tokens])
        attributes = np.asarray(rows, dtype=np.float32)
        if attributes.shape[0] != total_nodes:
            raise ValueError("node attribute count != node count")

    feature_parts = []
    if attributes is not None:
        feature_parts.append(attributes)
    if node_labels is not None:
        values = np.unique(node_labels)
        onehot = np.zeros((total_nodes, len(values)), dtype=np.float32)
        onehot[np.arange(total_nodes), np.searchsorted(values, node_labels)] = 1.0
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
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])

    per_graph_edges: list[list[tuple[int, int]]] = [[] for _ in range(num_graphs)]
    for u, v in edges_global:
        if not (1 <= u <= total_nodes and 1 <= v <= total_nodes):
            raise ValueError(f"edge endpoint {u if u < 1 or u > total_nodes else v} out of range")
        gu, gv = node_graph[u - 1], node_graph[v - 1]
        if gu != gv:
            raise ValueError(f"edge ({u}, {v}) references a node outside its graph")
        off = offsets[gu]
        per_graph_edges[gu].append((u - 1 - off, v - 1 - off))

    label_values = np.unique(raw_labels)
    labels = np.searchsorted(label_values, raw_labels).astype(np.int64)

    graphs = []
    for g in range(num_graphs):
        n = int(counts[g])
        off = int(offsets[g])
        raw = np.asarray(per_graph_edges[g], dtype=np.int64).reshape(-1, 2)
        uniq = np.unique(raw, axis=0) if raw.size else raw
        graph = build_graph(n, uniq, features[off : off + n])
        graphs.append(symmetrize(graph))

    return GraphDataset(graphs=graphs, labels=labels, num_classes=len(label_values), name=name)


def save_tu(dataset: GraphDataset, directory, name: str | None = None) -> None:
    """Write a dataset back out in the plain-text benchmark format.

    Features go to the attributes file, so a reload reproduces the dataset
    exactly (modulo the label remap, which is idempotent).
    """
    name = name or dataset.name
    os.makedirs(directory, exist_ok=True)
    a_lines, ind_lines, attr_lines = [], [], []
    offset = 0
    for k, g in enumerate(dataset.graphs):
        for u, v in g.edges:
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
    """Random k-fold partition of ``range(n)``; fold sizes differ by at most one."""
    if k > n:
        raise ValueError(f"cannot make {k} folds from {n} items")
    perm = seeded_rng(seed, "kfold").permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i, test in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        out.append((np.sort(train), np.sort(test)))
    return out


def node_split(
    graph: Graph,
    node_labels: np.ndarray,
    per_class_train: int = 20,
    per_class_test: int = 30,
    seed: int = 0,
    name: str = "node-task",
) -> NodeTask:
    """Per-class sampling without replacement into train/test masks.

    Remaining nodes stay unlabeled. Every class needs at least
    per_class_train + per_class_test members.
    """
    node_labels = np.asarray(node_labels, dtype=np.int64)
    if node_labels.shape != (graph.num_nodes,):
        raise ValueError("one label per node required")
    classes = np.unique(node_labels)
    rng = seeded_rng(seed, "node-split")
    train_mask = np.zeros(graph.num_nodes, dtype=bool)
    test_mask = np.zeros(graph.num_nodes, dtype=bool)
    need = per_class_train + per_class_test
    for c in classes:
        members = np.flatnonzero(node_labels == c)
        if len(members) < need:
            raise ValueError(
                f"class {c} has {len(members)} nodes, needs at least {need}"
            )
        picked = rng.permutation(members)
        train_mask[picked[:per_class_train]] = True
        test_mask[picked[per_class_train:need]] = True
    remapped = np.searchsorted(classes, node_labels)
    return NodeTask(
        graph=graph,
        node_labels=remapped.astype(np.int64),
        train_mask=train_mask,
        test_mask=test_mask,
        num_classes=len(classes),
        name=name,
    )


def _with_features(n: int, rng: np.random.Generator | None, feature_width: int) -> np.ndarray:
    if rng is None:
        return np.ones((n, feature_width), dtype=np.float64)
    return rng.normal(0.0, 1.0, size=(n, feature_width))


def make_path(n: int, rng=None, feature_width: int = 1) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    return symmetrize(build_graph(n, edges, _with_features(n, rng, feature_width)))


def make_cycle(n: int, rng=None, feature_width: int = 1) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return symmetrize(build_graph(n, edges, _with_features(n, rng, feature_width)))


def make_star(n: int, rng=None, feature_width: int = 1) -> Graph:
    """Center node 0 plus n-1 leaves."""
    edges = [(0, i) for i in range(1, n)]
    return symmetrize(build_graph(n, edges, _with_features(n, rng, feature_width)))


def make_erdos_renyi(n: int, p: float, rng: np.random.Generator, feature_width: int = 1) -> Graph:
    """Undirected G(n, p), stored with both edge directions."""
    mask = rng.random((n, n)) < p
    iu = np.triu_indices(n, k=1)
    take = mask[iu]
    edges = np.stack([iu[0][take], iu[1][take]], axis=1)
    return symmetrize(build_graph(n, edges, _with_features(n, rng, feature_width)))


def _is_connected(graph: Graph) -> bool:
    if graph.num_nodes <= 1:
        return True
    seen = np.zeros(graph.num_nodes, dtype=bool)
    stack = [0]
    seen[0] = True
    dst, src = graph.edge_dst, graph.edge_src
    while stack:
        u = stack.pop()
        for w in dst[src == u]:
            if not seen[w]:
                seen[w] = True
                stack.append(int(w))
    return bool(seen.all())


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
    prob = np.where(blocks[:, None] == blocks[None, :], p_in, p_out)
    mask = rng.random((n, n)) < prob
    iu = np.triu_indices(n, k=1)
    take = mask[iu]
    edges = np.stack([iu[0][take], iu[1][take]], axis=1)
    features = rng.normal(0.0, feature_noise, size=(n, feature_width))
    features[np.arange(n), blocks] += signal
    graph = symmetrize(build_graph(n, edges, features.astype(np.float32)))
    return graph, blocks.astype(np.int64)


def _make_proteinlike(
    num_graphs: int, rng: np.random.Generator, min_nodes: int = 10, max_nodes: int = 30
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


def gen_synthetic(kind: str, params: dict, seed: int = 0) -> GraphDataset | NodeTask:
    """Deterministic synthetic data keyed by kind.

    Kinds:

    * ``cycle``: one ``n``-node cycle (default 100) with constant features,
      a one-graph dataset;
    * ``path_proteinlike``: ``num_graphs`` paths of ``min_nodes`` to
      ``max_nodes`` nodes, class 1 with extra chords (a graph dataset);
    * ``sbm_node_task``: a stochastic block model node task with the blocks
      as labels and the standard per-class train/test split.
    """
    rng = seeded_rng(seed, "synthetic", kind)
    params = dict(params)
    if kind == "cycle":
        g = make_cycle(int(params.get("n", 100)))
        return GraphDataset([g], np.zeros(1, dtype=np.int64), 1, "cycle")
    if kind == "path_proteinlike":
        return _make_proteinlike(
            int(params.get("num_graphs", 100)),
            rng,
            int(params.get("min_nodes", 10)),
            int(params.get("max_nodes", 30)),
        )
    if kind == "sbm_node_task":
        graph, blocks = make_sbm(
            int(params.get("blocks", 2)),
            int(params.get("nodes_per_block", 100)),
            float(params.get("p_in", 0.12)),
            float(params.get("p_out", 0.01)),
            rng,
            int(params.get("feature_width", 4)),
            float(params.get("feature_noise", 1.8)),
            float(params.get("signal", 1.0)),
        )
        return node_split(
            graph,
            blocks,
            int(params.get("per_class_train", 20)),
            int(params.get("per_class_test", 30)),
            seed=seed,
            name="sbm",
        )
    raise ValueError(f"unknown synthetic kind {kind!r}")
