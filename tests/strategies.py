"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st


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
