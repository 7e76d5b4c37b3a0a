"""Tape ops, parameter store, optimizer, schedule, and checkpoints."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgepool import (
    PoolParams,
    TrainConfig,
    Var,
    backward,
    batch_norm,
    build_graph,
    cross_entropy,
    dense,
    edge_pool,
    edgepool_backward,
    edgepool_forward,
    mean_conv,
    relu,
    symmetrize,
    unpool,
    unpool_backward,
)
from edgepool.data import make_connected_erdos_renyi
from edgepool.layers import (
    concat_cols,
    feature_dropout,
    gather_rows,
    global_mean_pool,
    softmax_cross_entropy,
)
from edgepool.params import ParamStore, adam_step, glorot_uniform, lr_at_epoch, save_checkpoint
from edgepool.rng import seeded_rng

from strategies import simple_digraphs


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert c.epochs == 200
        assert c.batch_size == 128
        assert c.learning_rate == 1e-3
        assert c.lr_halving_period == 50
        assert c.channels == 64
        assert c.dropout_p == 0.5
        assert c.edge_score_dropout_p == 0.2
        assert c.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"batch_size": -1},
        {"channels": 0},
        {"learning_rate": 0.0},
        {"lr_halving_period": 0},
        {"dropout_p": 1.0},
        {"edge_score_dropout_p": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_to_dict_roundtrips(self):
        c = TrainConfig(epochs=5, seed=7)
        assert TrainConfig(**c.to_dict()) == c


class TestLrSchedule:
    @pytest.mark.parametrize("epoch,expected", [
        (0, 1e-3), (49, 1e-3), (50, 5e-4), (99, 5e-4),
        (100, 2.5e-4), (125, 2.5e-4), (150, 1.25e-4),
    ])
    def test_halving_steps(self, epoch, expected):
        assert lr_at_epoch(TrainConfig(), epoch) == pytest.approx(expected, rel=1e-12)


class TestAdam:
    def store_with(self, grad):
        store = ParamStore()
        p = store.add("w", np.zeros(3))
        leaves = store.as_vars()
        leaves["w"].grad = np.asarray(grad, dtype=np.float64)
        return store, leaves, p

    def test_first_step_is_signed_lr(self):
        store, leaves, p = self.store_with([2.0, -2.0, 0.0])
        adam_step(store, leaves, lr=0.1, t=1)
        # Bias correction makes the first step lr * g / (|g| + eps).
        assert np.allclose(p.data, [-0.1, 0.1, 0.0], atol=1e-6)

    def test_zero_grad_keeps_data(self):
        store, leaves, p = self.store_with([0.0, 0.0, 0.0])
        adam_step(store, leaves, lr=0.1, t=1)
        assert np.array_equal(p.data, np.zeros(3))

    def test_unreached_leaf_counts_as_zero_gradient(self):
        # The tape leaves grad None on a leaf that the loss never reached.
        runs = []
        for second in (None, np.zeros(3)):
            store, leaves, p = self.store_with([1.0, -1.0, 0.5])
            adam_step(store, leaves, lr=0.1, t=1)
            leaves["w"].grad = second
            adam_step(store, leaves, lr=0.1, t=2)
            runs.append((p.data.tobytes(), p.m.tobytes(), p.v.tobytes()))
        assert runs[0] == runs[1]

    def test_step_count_validated(self):
        store, leaves, _ = self.store_with([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            adam_step(store, leaves, lr=0.1, t=0)

    def test_state_persists_across_steps(self):
        store, leaves, p = self.store_with([1.0, 1.0, 1.0])
        adam_step(store, leaves, lr=0.1, t=1)
        first = p.data.copy()
        adam_step(store, leaves, lr=0.1, t=2)
        assert np.all(p.data < first)


class TestGlorot:
    def test_bounds_and_dtype(self):
        rng = seeded_rng(0, "glorot")
        w = glorot_uniform((20, 30), rng)
        limit = np.sqrt(6.0 / 50.0)
        assert w.dtype == np.float32
        assert np.all(np.abs(w) <= limit)

    def test_vector_fan(self):
        rng = seeded_rng(1, "glorot")
        b = glorot_uniform((10,), rng)
        assert np.all(np.abs(b) <= np.sqrt(6.0 / 11.0))

    def test_deterministic(self):
        a = glorot_uniform((4, 4), seeded_rng(2, "glorot"))
        b = glorot_uniform((4, 4), seeded_rng(2, "glorot"))
        assert np.array_equal(a, b)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("w", np.zeros(2))

    def test_num_parameters(self):
        store = ParamStore()
        store.add("a", np.zeros((2, 3)))
        store.add("b", np.zeros(4))
        assert store.num_parameters() == 10


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        # The file is plain JSON; a float32 parameter reads back exactly.
        store = ParamStore()
        rng = seeded_rng(3, "ckpt")
        store.add("layer.weight", rng.normal(size=(3, 2)).astype(np.float32))
        store.add("layer.bias", rng.normal(size=2))
        cfg = TrainConfig(epochs=3, seed=11)
        path = tmp_path / "model.json"
        save_checkpoint(path, cfg.to_dict(), store)
        obj = json.loads(path.read_text())
        assert obj["format_version"] == 1
        assert obj["config"] == cfg.to_dict()
        assert set(obj["params"]) == {"layer.weight", "layer.bias"}
        for name, entry in obj["params"].items():
            data = store[name].data
            loaded = np.asarray(entry["data"], dtype=data.dtype).reshape(entry["shape"])
            assert loaded.tobytes() == data.tobytes()


def leaf(rng, *shape):
    return Var(rng.normal(size=shape))


def spread_values(rng, shape, dtype):
    """Normals scaled by 1e-8 .. 1e8, so that float64 sums round."""
    return (rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)).astype(dtype)


class TestDense:
    def test_forward_and_grads(self):
        rng = seeded_rng(4, "dense")
        x, w, b = leaf(rng, 5, 3), leaf(rng, 3, 2), leaf(rng, 2)
        y = dense(x, w, b)
        assert np.allclose(y.data, x.data @ w.data + b.data)
        upstream = rng.normal(size=(5, 2))
        backward(y, upstream)
        assert np.allclose(x.grad, upstream @ w.data.T)
        assert np.allclose(w.grad, x.data.T @ upstream)
        assert np.allclose(b.grad, upstream.sum(axis=0))

    def test_shape_mismatch(self):
        rng = seeded_rng(5, "dense")
        with pytest.raises(ValueError):
            dense(leaf(rng, 4, 3), leaf(rng, 2, 2), leaf(rng, 2))


class TestRelu:
    def test_forward_and_mask(self):
        x = Var(np.asarray([[-1.0, 0.0, 2.0]]))
        y = relu(x)
        assert y.data.tolist() == [[0.0, 0.0, 2.0]]
        backward(y, np.asarray([[5.0, 5.0, 5.0]]))
        assert x.grad.tolist() == [[0.0, 0.0, 5.0]]


class TestBatchNorm:
    def unit_affine(self, cols):
        return Var(np.ones(cols)), Var(np.zeros(cols))

    def test_constant_column_maps_to_beta(self):
        x = Var(np.full((6, 2), 3.0))
        gamma, beta = Var(np.asarray([2.0, 2.0])), Var(np.asarray([0.5, -0.5]))
        y = batch_norm(x, gamma, beta)
        assert np.allclose(y.data, [0.5, -0.5], atol=1e-12)

    def test_two_rows_standardize(self):
        x = Var(np.asarray([[0.0], [2.0]]))
        y = batch_norm(x, *self.unit_affine(1))
        assert np.allclose(y.data.ravel(), [-1.0, 1.0], atol=1e-4)

    def test_needs_one_row(self):
        with pytest.raises(ValueError, match="at least 1 row"):
            batch_norm(Var(np.ones((0, 2))), *self.unit_affine(2))

    def test_one_row_gives_beta_and_zero_gradients(self):
        x = Var(np.asarray([[3.0, -7.5]]))
        gamma, beta = Var(np.asarray([2.0, 0.5])), Var(np.asarray([0.25, -1.0]))
        y = batch_norm(x, gamma, beta)
        assert y.data.tolist() == [[0.25, -1.0]]
        backward(y, np.asarray([[4.0, -3.0]]))
        assert x.grad.tolist() == [[0.0, 0.0]]
        assert gamma.grad.tolist() == [0.0, 0.0]
        assert beta.grad.tolist() == [4.0, -3.0]

    def test_matches_finite_differences(self):
        rng = seeded_rng(6, "bn-fd")
        data = rng.normal(size=(5, 3))
        gamma = rng.normal(size=3)
        beta = rng.normal(size=3)
        projection = rng.normal(size=(5, 3))
        x, g, b = Var(data), Var(gamma), Var(beta)
        y = batch_norm(x, g, b)
        backward(y, projection)
        h = 1e-6

        def value(d):
            out = batch_norm(Var(d), Var(gamma), Var(beta))
            return float((projection * out.data).sum())

        for idx in range(data.size):
            plus = data.copy(); plus.flat[idx] += h
            minus = data.copy(); minus.flat[idx] -= h
            fd = (value(plus) - value(minus)) / (2 * h)
            assert abs(fd - x.grad.flat[idx]) <= 1e-7 + 1e-4 * abs(fd)


class TestMeanConv:
    def test_no_edges_reduces_to_self_term(self):
        rng = seeded_rng(7, "conv")
        g = build_graph(4, [], rng.normal(size=(4, 3)))
        x, ws, wn, b = leaf(rng, 4, 3), leaf(rng, 3, 2), leaf(rng, 3, 2), leaf(rng, 2)
        y = mean_conv(g, x, ws, wn, b)
        assert np.allclose(y.data, x.data @ ws.data + b.data)

    def test_two_node_swap(self):
        g = symmetrize(build_graph(2, [(0, 1)], np.zeros((2, 2))))
        x = Var(np.asarray([[1.0, 0.0], [0.0, 1.0]]))
        ws = Var(np.zeros((2, 2)))
        wn = Var(np.eye(2))
        b = Var(np.zeros(2))
        y = mean_conv(g, x, ws, wn, b)
        assert np.allclose(y.data, [[0.0, 1.0], [1.0, 0.0]])

    def test_mean_not_sum(self):
        # A node with two identical in-neighbors sees their value, not twice it.
        g = build_graph(3, [(0, 2), (1, 2)], np.zeros((3, 1)))
        x = Var(np.asarray([[4.0], [4.0], [0.0]]))
        y = mean_conv(g, x, Var(np.zeros((1, 1))), Var(np.ones((1, 1))), Var(np.zeros(1)))
        assert y.data[2, 0] == 4.0

    def test_matches_finite_differences(self):
        rng = seeded_rng(8, "conv-fd")
        g = make_connected_erdos_renyi(6, 0.4, rng, feature_width=3)
        data = rng.normal(size=(6, 3))
        ws, wn, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=2)
        projection = rng.normal(size=(6, 2))
        x = Var(data)
        vs, vn, vb = Var(ws), Var(wn), Var(b)
        backward(mean_conv(g, x, vs, vn, vb), projection)
        h = 1e-6

        def value(d, a, c, e):
            out = mean_conv(g, Var(d), Var(a), Var(c), Var(e))
            return float((projection * out.data).sum())

        for slot, (arr, var) in enumerate(((data, x), (ws, vs), (wn, vn), (b, vb))):
            for idx in range(arr.size):
                plus = arr.copy(); plus.flat[idx] += h
                minus = arr.copy(); minus.flat[idx] -= h
                args_p = [data, ws, wn, b]
                args_m = [data, ws, wn, b]
                args_p[slot], args_m[slot] = plus, minus
                fd = (value(*args_p) - value(*args_m)) / (2 * h)
                assert abs(fd - var.grad.flat[idx]) <= 1e-7 + 1e-4 * abs(fd)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=60, deadline=None)
    @given(case=simple_digraphs(), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_scatter_reference(self, dtype, case, seed):
        # Edgeless graphs and isolated nodes are drawn too. In float64 the
        # spread of the values lets a change of summation order show.
        n, pairs = case
        rng = seeded_rng(seed, "conv-scatter")
        g = build_graph(n, pairs, np.zeros((n, 1)))
        x, dy = (spread_values(rng, shape, dtype) for shape in [(n, 5), (n, 4)])
        ws, wn, b = (
            rng.normal(size=shape).astype(dtype) for shape in [(5, 4), (5, 4), (4,)]
        )
        y = mean_conv(g, Var(x), Var(ws), Var(wn), Var(b))
        grads = y.vjp(dy)

        src, dst = g.edge_src, g.edge_dst
        acc = np.zeros((n, 5))
        np.add.at(acc, dst, x[src].astype(np.float64))
        deg = g.in_degrees().astype(np.float64)
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        nm = (acc * inv[:, None]).astype(dtype)
        d_nm = dy @ wn.T
        scatter = np.zeros((n, 5))
        np.add.at(scatter, src, d_nm[dst] * inv[dst][:, None])
        expected = (
            dy @ ws.T + scatter.astype(dtype), x.T @ dy, nm.T @ dy, dy.sum(axis=0)
        )
        assert y.data.dtype == dtype
        assert np.array_equal(y.data, x @ ws + nm @ wn + b)
        for got, want in zip(grads, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_row_count_validated(self):
        rng = seeded_rng(9, "conv")
        g = build_graph(3, [], np.zeros((3, 2)))
        with pytest.raises(ValueError):
            mean_conv(g, leaf(rng, 4, 2), leaf(rng, 2, 2), leaf(rng, 2, 2), leaf(rng, 2))


class TestFeatureDropout:
    def test_identity_outside_training(self):
        rng = seeded_rng(10, "drop")
        x = Var(np.ones((4, 4)))
        assert feature_dropout(x, 0.5, rng, training=False) is x
        assert feature_dropout(x, 0.0, rng, training=True) is x

    def test_inverted_scaling(self):
        rng = seeded_rng(11, "drop")
        x = Var(np.ones((100, 100)))
        y = feature_dropout(x, 0.25, rng, training=True)
        kept = y.data[y.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert 0.70 <= (y.data != 0).mean() <= 0.80

    def test_backward_uses_same_mask(self):
        rng = seeded_rng(12, "drop")
        x = Var(np.ones((10, 10)))
        y = feature_dropout(x, 0.5, rng, training=True)
        backward(y, np.ones((10, 10)))
        assert np.array_equal(x.grad != 0, y.data != 0)

    def test_probability_validated(self):
        rng = seeded_rng(13, "drop")
        with pytest.raises(ValueError):
            feature_dropout(Var(np.ones((2, 2))), 1.0, rng, training=True)


class TestGlobalMeanPool:
    def test_hand_means(self):
        x = Var(np.asarray([[2.0], [4.0], [9.0]]))
        y = global_mean_pool(x, np.asarray([0, 0, 1]), 2)
        assert np.allclose(y.data, [[3.0], [9.0]])

    def test_backward_splits_evenly(self):
        x = Var(np.asarray([[2.0], [4.0], [9.0]]))
        y = global_mean_pool(x, np.asarray([0, 0, 1]), 2)
        backward(y, np.asarray([[6.0], [5.0]]))
        assert np.allclose(x.grad, [[3.0], [3.0], [5.0]])

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_scatter_reference_unsorted_ids(self, sizes, seed):
        # Pooled batches list clusters before unmatched nodes, so graph ids
        # come out of order.
        rng = seeded_rng(seed, "readout-scatter")
        graph_id = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        x = spread_values(rng, (len(graph_id), 3), np.float64)
        y = global_mean_pool(Var(x), graph_id, len(sizes))

        acc = np.zeros((len(sizes), 3))
        np.add.at(acc, graph_id, x)
        counts = np.bincount(graph_id).astype(np.float64)
        assert np.array_equal(y.data, acc / counts[:, None])

    def test_empty_graph_rejected(self):
        x = Var(np.ones((2, 1)))
        with pytest.raises(ValueError):
            global_mean_pool(x, np.asarray([0, 0]), 2)


class TestConcatGather:
    def test_concat_cols(self):
        rng = seeded_rng(14, "cat")
        a, b = leaf(rng, 3, 2), leaf(rng, 3, 4)
        y = concat_cols(a, b)
        assert y.data.shape == (3, 6)
        upstream = rng.normal(size=(3, 6))
        backward(y, upstream)
        assert np.allclose(a.grad, upstream[:, :2])
        assert np.allclose(b.grad, upstream[:, 2:])

    def test_gather_rows_accumulates(self):
        x = Var(np.asarray([[1.0], [2.0]]))
        y = gather_rows(x, np.asarray([0, 0, 1]))
        assert y.data.ravel().tolist() == [1.0, 1.0, 2.0]
        backward(y, np.asarray([[1.0], [10.0], [100.0]]))
        assert x.grad.ravel().tolist() == [11.0, 100.0]


class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 3)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(3.0), rel=1e-12)

    def test_confident_correct_reference_value(self):
        loss, _ = softmax_cross_entropy(np.asarray([[10.0, -10.0]]), np.asarray([0]))
        assert loss == pytest.approx(2.0611536181902037e-09, rel=1e-9)

    def test_gradient_rows_sum_to_zero(self):
        rng = seeded_rng(15, "ce")
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = softmax_cross_entropy(logits, labels)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_is_mean_softmax_minus_onehot(self):
        logits = np.asarray([[0.0, 0.0]])
        _, grad = softmax_cross_entropy(logits, np.asarray([1]))
        assert np.allclose(grad, [[0.5, -0.5]])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.asarray([0, 3]))

    def test_var_wrapper_matches(self):
        rng = seeded_rng(16, "ce-var")
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        ref_loss, ref_grad = softmax_cross_entropy(logits, labels)
        v = Var(logits)
        loss = cross_entropy(v, labels)
        assert float(loss.data) == pytest.approx(ref_loss, rel=1e-12)
        backward(loss)
        assert np.allclose(v.grad, ref_grad)

    def test_stability_with_large_logits(self):
        loss, grad = softmax_cross_entropy(
            np.asarray([[1e4, 0.0], [0.0, 1e4]]), np.asarray([0, 1])
        )
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestEdgePoolLayer:
    """One pooling implementation: the tape op reproduces the functional
    operator bit for bit, in both dtypes, with and without score dropout."""

    CASES = [
        (dtype, mode)
        for dtype in (np.float32, np.float64)
        for mode in ({}, {"training": True, "dropout_p": 0.3, "seed": 5})
    ]

    def instance(self, seed, dtype):
        rng = seeded_rng(seed, "pool-layer")
        g = make_connected_erdos_renyi(8, 0.4, rng, feature_width=3)
        x = Var(rng.normal(size=(8, 3)).astype(dtype))
        w = Var(rng.normal(size=6))
        b = Var(np.asarray(0.1))
        return rng, g, x, w, b

    def test_forward_matches_functional(self):
        for dtype, mode in self.CASES:
            case = f"{dtype.__name__} {mode}"
            rng, g, x, w, b = self.instance(0, dtype)
            out, score_var, pooled, info, scores = edge_pool(x, w, b, g, **mode)
            ref, ref_info, ref_scores = edgepool_forward(
                g.with_node_features(x.data),
                PoolParams(weight=w.data, bias=float(b.data)), **mode,
            )
            assert ref_scores.dropped.any() == bool(mode), case
            assert out.data.dtype == ref.node_features.dtype == dtype, case
            assert np.array_equal(out.data, ref.node_features), case
            assert np.array_equal(pooled.edges, ref.edges), case
            assert np.array_equal(info.matching, ref_info.matching), case
            assert np.array_equal(score_var.data, ref_info.node_score), case
            assert np.array_equal(scores.normalized, ref_scores.normalized), case
            assert np.array_equal(scores.dropped, ref_scores.dropped), case

    def test_backward_matches_functional(self):
        for dtype, mode in self.CASES:
            case = f"{dtype.__name__} {mode}"
            rng, g, x, w, b = self.instance(1, dtype)
            out, _, pooled, info, scores = edge_pool(x, w, b, g, **mode)
            assert scores.dropped.any() == bool(mode), case
            upstream = rng.normal(size=out.data.shape).astype(dtype)
            backward(out, upstream)
            gx, gw, gb = edgepool_backward(
                g.with_node_features(x.data),
                PoolParams(weight=w.data, bias=float(b.data)),
                info, scores, upstream,
            )
            assert x.grad.dtype == gx.dtype == dtype, case
            assert np.array_equal(x.grad, gx), case
            assert np.array_equal(w.grad, gw), case
            assert float(b.grad) == gb, case


class TestUnpoolLayer:
    def test_forward_and_feature_adjoint(self):
        rng = seeded_rng(17, "unpool-layer")
        g = make_connected_erdos_renyi(8, 0.4, rng, feature_width=3)
        x = Var(rng.normal(size=(8, 3)))
        w = Var(rng.normal(size=6))
        b = Var(np.asarray(0.0))
        out, score_var, pooled, info, _ = edge_pool(x, w, b, g)
        h = Var(rng.normal(size=out.data.shape))
        frozen_score = Var(info.node_score)  # leaf: isolates the feature path
        y = unpool(h, frozen_score, info)
        assert y.data.shape == (g.num_nodes, 3)
        assert np.allclose(y.data, h.data[info.cluster_of] / info.node_score[:, None])
        upstream = rng.normal(size=y.data.shape)
        backward(y, upstream)
        assert np.allclose(h.grad, unpool_backward(upstream, info))
        # The score leaf received the division's gradient.
        expected = -np.einsum("nf,nf->n", upstream, y.data) / info.node_score
        assert np.allclose(frozen_score.grad, expected)
