"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from edgepool import PoolParams, build_graph, edgepool_forward
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
def featured_digraphs(draw, edge_width=None, dtype=None):
    """A built graph whose edges are drawn mixed, in one direction per
    node pair, or symmetric, with ``signed_rows`` features.

    Node and edge features are float32 or float64 (``dtype`` fixes both),
    with 0-2 edge-feature columns unless ``edge_width`` fixes the count.
    The edge set may be empty and nodes may be isolated.
    """
    n, pairs = draw(simple_digraphs())
    kind = draw(st.sampled_from(["mixed", "one-direction", "symmetric"]))
    if kind == "one-direction":
        pairs = [(i, j) for i, j in pairs if i < j or (j, i) not in pairs]
    elif kind == "symmetric":
        pairs = sorted(set(pairs) | {(j, i) for i, j in pairs})
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)), "featured-digraph")
    pick = st.sampled_from([np.float32, np.float64])
    x = signed_rows(rng, (n, 2), dtype or draw(pick))
    g = draw(st.integers(0, 2)) if edge_width is None else edge_width
    ef = signed_rows(rng, (len(pairs), g), dtype or draw(pick)) if g else None
    return build_graph(n, pairs, x, ef)


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
    float32 or float64, with or without edge features, and pooling runs
    with or without score dropout. ``rng`` is seeded for further draws.
    """
    kind = draw(st.sampled_from(["random", "perfect", "edgeless"]))
    if kind == "random":
        n, pairs = draw(simple_digraphs())
    else:
        n = 2 * draw(st.integers(1, 6))
        pairs = [] if kind == "edgeless" else [(i, i ^ 1) for i in range(n)]
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    g = draw(st.integers(0, 2)) if pairs else 0
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)), "pool-level")
    f = 3
    x = rng.normal(size=(n, f)).astype(dtype)
    ef = rng.normal(size=(len(pairs), g)).astype(dtype) if g else None
    graph = build_graph(n, pairs, x, ef)
    params = PoolParams(weight=rng.normal(size=2 * f + g), bias=float(rng.normal()))
    drop = draw(st.sampled_from([0.0, 0.0, 0.4]))
    pooled, info, scores = edgepool_forward(graph, params, training=drop > 0.0,
                                            dropout_p=drop, seed=int(rng.integers(2**31)))
    if kind == "perfect" and drop == 0.0:
        assert 2 * info.num_matched == n
    return graph, params, pooled, info, scores, rng
