"""Hypothesis strategies and small fixed graphs shared by the tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from edgepool import PoolParams, build_graph, edgepool_forward, symmetrize
from edgepool.graph import Graph
from edgepool.rng import seeded_rng


@st.composite
def simple_digraphs(draw, max_nodes: int = 12, min_edges: int = 0, max_edges: int = 40):
    """(num_nodes, edge list): distinct directed edges without self-loops.

    The list comes in drawn order, so it is usually not canonical.
    """
    n = draw(st.integers(2, max_nodes))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    pairs = draw(st.lists(pair, min_size=min_edges, max_size=max_edges, unique=True))
    return n, pairs


@st.composite
def featured_digraphs(draw, dtype=None):
    """A built graph whose edges are drawn mixed, in one direction per
    node pair, or symmetric, with ``signed_rows`` features.

    Node features are float32 or float64 (``dtype`` fixes which). The edge
    set may be empty and nodes may be isolated.
    """
    n, pairs = draw(simple_digraphs())
    kind = draw(st.sampled_from(["mixed", "one-direction", "symmetric"]))
    if kind == "one-direction":
        pairs = [(i, j) for i, j in pairs if i < j or (j, i) not in pairs]
    elif kind == "symmetric":
        pairs = sorted(set(pairs) | {(j, i) for i, j in pairs})
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)), "featured-digraph")
    x = signed_rows(rng, (n, 2), dtype or draw(st.sampled_from([np.float32, np.float64])))
    return build_graph(n, pairs, x)


def signed_rows(rng: np.random.Generator, shape: tuple, dtype) -> np.ndarray:
    """Values over 16 decades, so that summation order shows, with -0.0
    in whole rows and in single entries, so that signed zeros show."""
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    out[rng.random(shape[0]) < 0.3] = -0.0
    out[rng.random(shape) < 0.1] = -0.0
    return out.astype(dtype)


@st.composite
def pool_levels(draw):
    """(graph, params, pooled, info, scores, rng) for one pooling level.

    The graph is a random digraph, disjoint symmetric pairs (a perfect
    matching, every node merged) or edgeless (no merge); its features are
    float32 or float64, and pooling runs
    with or without score dropout. ``rng`` is seeded for further draws.
    """
    kind = draw(st.sampled_from(["random", "perfect", "edgeless"]))
    if kind == "random":
        n, pairs = draw(simple_digraphs())
    else:
        n = 2 * draw(st.integers(1, 6))
        pairs = [] if kind == "edgeless" else [(i, i ^ 1) for i in range(n)]
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)), "pool-level")
    f = 3
    x = rng.normal(size=(n, f)).astype(dtype)
    graph = build_graph(n, pairs, x)
    params = PoolParams(weight=rng.normal(size=2 * f), bias=float(rng.normal()))
    drop = draw(st.sampled_from([0.0, 0.0, 0.4]))
    pooled, info, scores = edgepool_forward(graph, params, training=drop > 0.0,
                                            dropout_p=drop, seed=int(rng.integers(2**31)))
    if kind == "perfect" and drop == 0.0:
        assert 2 * info.num_matched == n
    return graph, params, pooled, info, scores, rng


def _symmetric(n: int, edges: list, rng, feature_width: int) -> Graph:
    """Both directions of ``edges``; features are ones, or normal draws from ``rng``."""
    x = (np.ones((n, feature_width)) if rng is None
         else rng.normal(0.0, 1.0, size=(n, feature_width)))
    return symmetrize(build_graph(n, edges, x))


def make_path(n: int, rng=None, feature_width: int = 1) -> Graph:
    return _symmetric(n, [(i, i + 1) for i in range(n - 1)], rng, feature_width)


def make_cycle(n: int, rng=None, feature_width: int = 1) -> Graph:
    return _symmetric(n, [(i, (i + 1) % n) for i in range(n)], rng, feature_width)


def make_star(n: int, rng=None, feature_width: int = 1) -> Graph:
    """Center node 0 plus n-1 leaves."""
    return _symmetric(n, [(0, i) for i in range(1, n)], rng, feature_width)
