"""Seeded input generators for the benchmark workloads.

The generators live here, not in ``edgepool.data``, so that a change to the
package's own synthetic data cannot change what a workload measures. They
use only the package's constructors (``build_graph``, ``symmetrize``,
``GraphDataset``, ``NodeTask``); the same seed always gives the same inputs.
"""

from __future__ import annotations

import zlib

import numpy as np

from edgepool import GraphDataset, NodeTask, build_graph, symmetrize


def workload_rng(seed: int, label: str) -> np.random.Generator:
    """Independent stream per (seed, label); any Python int is a valid seed."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode("utf-8"))]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def proteinlike_dataset(
    rng: np.random.Generator, num_graphs: int = 1000, min_nodes: int = 10, max_nodes: int = 30
) -> GraphDataset:
    """Binary-labelled path graphs; class-1 paths carry extra chords.

    Node features are [1, degree / 4, Gaussian noise], as in the package's
    ``path_proteinlike`` synthetic set.
    """
    graphs, labels = [], []
    for _ in range(num_graphs):
        n = int(rng.integers(min_nodes, max_nodes + 1))
        label = int(rng.integers(0, 2))
        edges = {(i, i + 1) for i in range(n - 1)}
        if label == 1:
            for _ in range(max(1, n // 4)):
                u, v = sorted(int(a) for a in rng.integers(0, n, size=2))
                if v - u >= 2:
                    edges.add((u, v))
        edge_arr = np.asarray(sorted(edges), dtype=np.int64)
        deg = np.bincount(edge_arr.ravel(), minlength=n).astype(np.float32)
        noise = rng.normal(0.0, 0.3, size=n).astype(np.float32)
        features = np.stack([np.ones(n, dtype=np.float32), 0.25 * deg, noise], axis=1)
        graphs.append(symmetrize(build_graph(n, edge_arr, features)))
        labels.append(label)
    return GraphDataset(graphs, np.asarray(labels, dtype=np.int64), 2, "bench-proteinlike")


def sbm_task(
    rng: np.random.Generator,
    blocks: int = 4,
    nodes_per_block: int = 500,
    p_in: float = 0.03,
    p_out: float = 0.001,
    feature_width: int = 4,
    noise: float = 1.8,
    per_class_train: int = 20,
    per_class_test: int = 30,
) -> NodeTask:
    """Stochastic block model; labels are blocks, features a noisy block one-hot."""
    n = blocks * nodes_per_block
    block = np.repeat(np.arange(blocks), nodes_per_block)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(block[iu] == block[ju], p_in, p_out)
    take = rng.random(iu.shape[0]) < prob
    edges = np.stack([iu[take], ju[take]], axis=1)
    features = rng.normal(0.0, noise, size=(n, feature_width))
    features[np.arange(n), block] += 1.0
    graph = symmetrize(build_graph(n, edges, features.astype(np.float32)))

    train_mask = np.zeros(n, dtype=bool)
    test_mask = np.zeros(n, dtype=bool)
    need = per_class_train + per_class_test
    for c in range(blocks):
        picked = rng.permutation(np.flatnonzero(block == c))
        train_mask[picked[:per_class_train]] = True
        test_mask[picked[per_class_train:need]] = True
    return NodeTask(graph, block.astype(np.int64), train_mask, test_mask, blocks, "bench-sbm")


def random_symmetric_graph(
    rng: np.random.Generator, num_directed_edges: int, feature_width: int = 8
):
    """Uniform random simple graph with about the requested directed edge count.

    Node count is a sixth of the edge count (mean degree 6), as in the
    package's ``bench`` command.
    """
    undirected = max(2, num_directed_edges // 2)
    n = max(4, undirected // 3)
    draws = int(undirected * 1.15)
    u = rng.integers(0, n, size=draws)
    v = rng.integers(0, n, size=draws)
    keep = u != v
    lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    key = np.unique(lo * np.int64(n) + hi)[:undirected]
    pairs = np.stack([key // n, key % n], axis=1)
    features = rng.normal(0.0, 1.0, size=(n, feature_width)).astype(np.float32)
    return symmetrize(build_graph(n, pairs, features))
