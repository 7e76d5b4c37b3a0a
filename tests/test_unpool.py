"""Unpooling: per-level expansion, level chaining, and the exact adjoint."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgepool import (
    PoolParams,
    UnpoolPlan,
    build_graph,
    edgepool_forward,
    unpool_backward,
    unpool_chain,
    unpool_once,
)
from edgepool.data import make_connected_erdos_renyi, make_path
from edgepool.pool import PoolInfo
from edgepool.rng import seeded_rng

from strategies import simple_digraphs


def pooled_instance(rng, n=10, f=3):
    g = make_connected_erdos_renyi(n, 0.4, rng, feature_width=f)
    g = g.with_node_features(rng.normal(size=(n, f)))
    params = PoolParams(weight=rng.normal(size=2 * f), bias=float(rng.normal()))
    pooled, info, scores = edgepool_forward(g, params)
    return g, pooled, info


def zero_score_info():
    """A hand-built level whose merged pair has gate score 0."""
    return PoolInfo(
        matching=np.asarray([[0, 1]]),
        cluster_of=np.asarray([0, 0, 1]),
        node_score=np.asarray([0.0, 0.0, 1.0]),
        pooled_num_nodes=2,
        matched_edge_index=np.asarray([0]),
    )


class TestUnpoolOnce:
    def test_roundtrip_pair_sum(self):
        rng = seeded_rng(0, "roundtrip")
        for _ in range(25):
            g, pooled, info = pooled_instance(rng)
            back = unpool_once(pooled.node_features, info)
            for i, j in info.matching.tolist():
                target = g.node_features[i] + g.node_features[j]
                assert np.allclose(back[i], target, atol=1e-6)
                assert np.allclose(back[j], target, atol=1e-6)
            unmatched = np.setdiff1d(np.arange(g.num_nodes), info.matching.ravel())
            assert np.allclose(back[unmatched], g.node_features[unmatched], atol=1e-6)

    def test_linearity(self):
        rng = seeded_rng(1, "linear")
        g, pooled, info = pooled_instance(rng)
        x = rng.normal(size=pooled.node_features.shape)
        y = rng.normal(size=pooled.node_features.shape)
        combo = unpool_once(2.0 * x - 3.0 * y, info)
        parts = 2.0 * unpool_once(x, info) - 3.0 * unpool_once(y, info)
        assert np.allclose(combo, parts, atol=1e-12)

    def test_row_count_validated(self):
        rng = seeded_rng(2, "dim")
        _, pooled, info = pooled_instance(rng)
        with pytest.raises(ValueError):
            unpool_once(np.zeros((pooled.num_nodes + 1, 3)), info)
        with pytest.raises(ValueError):
            unpool_once(np.zeros(pooled.num_nodes), info)

    def test_zero_gate_score_rejected(self):
        with pytest.raises(ValueError, match="gate scores must be positive"):
            unpool_once(np.ones((2, 3)), zero_score_info())

    def test_zero_gate_score_rejected_by_backward(self):
        with pytest.raises(ValueError, match="gate scores must be positive"):
            unpool_backward(np.ones((3, 3)), zero_score_info())

    def test_feature_width_free(self):
        # The expansion is per-row: any column count works.
        rng = seeded_rng(3, "width")
        _, pooled, info = pooled_instance(rng)
        out = unpool_once(rng.normal(size=(pooled.num_nodes, 7)), info)
        assert out.shape == (len(info.cluster_of), 7)


class TestUnpoolChain:
    def test_two_level_path(self):
        rng = seeded_rng(4, "chain")
        g = make_path(8, feature_width=2)
        g = g.with_node_features(rng.normal(size=(8, 2)))
        params = PoolParams(weight=rng.normal(size=4), bias=0.0)
        p1, info1, _ = edgepool_forward(g, params)
        p2, info2, _ = edgepool_forward(p1, params)
        plan = UnpoolPlan(levels=(info1, info2))
        out = unpool_chain(p2.node_features, plan)
        assert out.shape == g.node_features.shape
        step = unpool_once(unpool_once(p2.node_features, info2), info1)
        assert np.allclose(out, step, atol=1e-12)

    def test_single_level_equals_once(self):
        rng = seeded_rng(5, "chain1")
        _, pooled, info = pooled_instance(rng)
        x = rng.normal(size=pooled.node_features.shape)
        assert np.allclose(
            unpool_chain(x, UnpoolPlan(levels=(info,))), unpool_once(x, info)
        )

    def test_broken_chain_rejected(self):
        rng = seeded_rng(6, "chainbad")
        g, pooled, info1 = pooled_instance(rng)
        if pooled.num_nodes == g.num_nodes:  # paranoid: needs a real contraction
            pytest.skip("no contraction drawn")
        with pytest.raises(ValueError):
            UnpoolPlan(levels=(info1, info1))


class TestAdjoint:
    def test_inner_product_identity(self):
        # <X, unpool^T(Y)> == <unpool(X), Y> holds to near machine precision.
        rng = seeded_rng(7, "adjoint")
        for _ in range(25):
            _, pooled, info = pooled_instance(rng, n=int(rng.integers(2, 14)))
            x = rng.normal(size=(pooled.num_nodes, 3))
            y = rng.normal(size=(len(info.cluster_of), 3))
            lhs = float((unpool_once(x, info) * y).sum())
            rhs = float((x * unpool_backward(y, info)).sum())
            assert abs(lhs - rhs) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(case=simple_digraphs(), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_scatter_reference(self, case, seed):
        n, pairs = case
        rng = seeded_rng(seed, "adjoint-scatter")
        g = build_graph(n, pairs, rng.normal(size=(n, 3)))
        params = PoolParams(weight=rng.normal(size=6), bias=float(rng.normal()))
        _, info, _ = edgepool_forward(g, params)
        # Spread over 16 decades, so that summation order shows.
        upstream = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-8, 9, size=(n, 4))

        expected = np.zeros((info.pooled_num_nodes, 4))
        np.add.at(expected, info.cluster_of, upstream / info.node_score[:, None])
        assert np.array_equal(unpool_backward(upstream, info), expected)

    def test_gradient_rows_validated(self):
        rng = seeded_rng(8, "adjdim")
        _, _, info = pooled_instance(rng)
        with pytest.raises(ValueError):
            unpool_backward(np.zeros((len(info.cluster_of) + 2, 3)), info)

    def test_matches_finite_differences(self):
        rng = seeded_rng(9, "fd")
        h = 1e-6
        for _ in range(10):
            _, pooled, info = pooled_instance(rng)
            x = rng.normal(size=(pooled.num_nodes, 3))
            projection = rng.normal(size=(len(info.cluster_of), 3))
            grad = unpool_backward(projection, info)
            for idx in range(x.size):
                plus = x.copy(); plus.flat[idx] += h
                minus = x.copy(); minus.flat[idx] -= h
                fd = float((projection * (unpool_once(plus, info)
                                          - unpool_once(minus, info))).sum()) / (2 * h)
                assert abs(fd - grad.flat[idx]) <= 1e-7 + 1e-4 * abs(fd)
