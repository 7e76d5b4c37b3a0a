"""Tape ops, parameter store, optimizer, schedule, and checkpoints."""

import json
import weakref

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
    edgepool_forward,
    mean_conv,
    relu,
    symmetrize,
    unpool,
    unpool_backward,
)
from edgepool import layers, models
from edgepool.data import make_connected_erdos_renyi
from edgepool.layers import (
    BATCH_NORM_EPS,
    concat_cols,
    feature_dropout,
    gather_rows,
    global_mean_pool,
)
from edgepool.params import (
    LR_HALVING_PERIOD, ParamStore, adam_step, glorot_uniform, lr_at_epoch, save_checkpoint,
)
from edgepool.pool import (EdgeScores, apply_score_dropout, contract, edgepool_backward,
                           score_path_backward)
from edgepool.rng import seeded_rng

from oracles import formula_batch_norm, linked_relu, var_batch_norm
from peaks import traced_peak
from strategies import pool_levels, signed_rows, simple_digraphs


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert c.epochs == 200
        assert c.batch_size == 128
        assert c.learning_rate == 1e-3
        assert c.channels == 64
        assert c.seed == 0
        # The rest of the recipe is fixed.
        assert LR_HALVING_PERIOD == 50
        assert models.HEAD_DROPOUT_P == 0.5
        assert models.EDGE_SCORE_DROPOUT_P == 0.2

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"batch_size": -1},
        {"channels": 0},
        {"learning_rate": 0.0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"batch_size": 0},
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
        params = dict(store.items())
        for name, entry in obj["params"].items():
            data = params[name].data
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

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 3)], ids=["1-D", "3-D"])
    def test_x_must_be_two_dimensional(self, shape):
        # A 1-D x used to raise IndexError reading its column count.
        with pytest.raises(ValueError, match="^x must be 2-D"):
            dense(Var(np.ones(shape)), Var(np.ones((3, 2))), Var(np.zeros(2)))


class TestRelu:
    def test_forward_and_mask(self):
        x = Var(np.asarray([[-1.0, 0.0, 2.0]]))
        y = relu(x)
        assert y.data.tolist() == [[0.0, 0.0, 2.0]]
        backward(y, np.asarray([[5.0, 5.0, 5.0]]))
        assert x.grad.tolist() == [[0.0, 0.0, 5.0]]


class TestReluLinksPastItsProducer:
    """relu's vjp reads its output's sign, so the tape keeps no pre-activation."""

    PRODUCERS = {
        "mean_conv": lambda g, x, rng: mean_conv(g, x, leaf(rng, 3, 2), leaf(rng, 3, 2),
                                                 leaf(rng, 2)),
        "batch_norm": lambda g, x, rng: batch_norm(x, leaf(rng, 3), leaf(rng, 3)),
        "dense": lambda g, x, rng: dense(x, leaf(rng, 3, 2), leaf(rng, 2)),
    }

    def case(self, op, relu_op):
        """``op``'s leaves, an upstream gradient, the relu of ``op``'s output
        and a weak reference to that output, which nothing else holds."""
        rng = seeded_rng(9, "relu-link", op)
        g = make_connected_erdos_renyi(6, 0.4, rng, feature_width=3)
        x = leaf(rng, 6, 3)
        h = self.PRODUCERS[op](g, x, rng)
        y = relu_op(h)
        upstream = rng.normal(size=y.data.shape)
        return h.parents, upstream, y, weakref.ref(h)

    @pytest.mark.parametrize("op", list(PRODUCERS))
    def test_the_pre_activation_dies_with_its_caller(self, op):
        leaves, upstream, y, ref = self.case(op, relu)
        assert ref() is None
        backward(y, upstream)
        # The gradients are bit for bit those of a relu that keeps the link.
        kept_leaves, _, kept_y, kept_ref = self.case(op, linked_relu)
        assert kept_ref() is not None
        backward(kept_y, upstream)
        for got, want in zip(leaves, kept_leaves):
            assert got.grad.tobytes() == want.grad.tobytes()

    def test_a_pre_activation_with_a_second_consumer_matches_finite_differences(self):
        # h's vjp runs once per consumer; a vjp is linear, so the sum is the gradient.
        rng = seeded_rng(10, "relu-fd")
        data, w1, b1 = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        w2, b2 = rng.normal(size=(4, 2)), rng.normal(size=2)
        projection = rng.normal(size=(5, 6))

        def forward(x, w):
            h = dense(x, w, Var(b1))
            return concat_cols(relu(h), dense(h, Var(w2), Var(b2)))

        x, w = Var(data), Var(w1)
        out = forward(x, w)
        assert out.parents[0].parents[:2] == (x, w)  # relu(h) links past h
        backward(out, projection)
        h = 1e-6
        for var, base, value in ((x, data, lambda d: forward(Var(d), Var(w1))),
                                 (w, w1, lambda d: forward(Var(data), Var(d)))):
            for idx in range(base.size):
                plus = base.copy(); plus.flat[idx] += h
                minus = base.copy(); minus.flat[idx] -= h
                fd = float((projection * (value(plus).data - value(minus).data)).sum()) / (2 * h)
                assert abs(fd - var.grad.flat[idx]) <= 1e-7 + 1e-4 * abs(fd)


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

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 3)], ids=["1-D", "3-D"])
    def test_x_must_be_two_dimensional(self, shape):
        # A 1-D x used to standardize as one feature column and return zeros.
        with pytest.raises(ValueError, match="^x must be 2-D"):
            batch_norm(Var(np.ones(shape)), *self.unit_affine(3))

    def test_one_row_gives_beta_and_zero_gradients(self):
        x = Var(np.asarray([[3.0, -7.5]]))
        gamma, beta = Var(np.asarray([2.0, 0.5])), Var(np.asarray([0.25, -1.0]))
        y = batch_norm(x, gamma, beta)
        assert y.data.tolist() == [[0.25, -1.0]]
        backward(y, np.asarray([[4.0, -3.0]]))
        assert x.grad.tolist() == [[0.0, 0.0]]
        assert gamma.grad.tolist() == [0.0, 0.0]
        assert beta.grad.tolist() == [4.0, -3.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_var_form(self, dtype):
        # One centering pass gives numpy's var bit for bit, at every row count.
        rng = seeded_rng(7, "bn-var")
        for rows in [*range(1, 40), 100, 999, 2900]:
            x = spread_values(rng, (rows, 64), dtype)
            gamma, beta = rng.normal(size=64).astype(dtype), rng.normal(size=64).astype(dtype)
            y = batch_norm(Var(x), Var(gamma), Var(beta))
            want = var_batch_norm(x, gamma, beta, BATCH_NORM_EPS)
            assert y.data.dtype == want.dtype and y.data.tobytes() == want.tobytes(), rows

    @staticmethod
    def vjp_case(op, rows, dtype, sliced):
        """``op``'s output over a spread (rows, 64) ``x``, and a ``dy`` that is
        either contiguous or every other column of a wider array."""
        rng = seeded_rng(12, "bn-vjp", rows)
        x = spread_values(rng, (rows, 64), dtype)
        gamma, beta = rng.normal(size=64).astype(dtype), rng.normal(size=64).astype(dtype)
        wide = spread_values(rng, (rows, 128), dtype)
        dy = wide[:, ::2] if sliced else np.ascontiguousarray(wide[:, :64])
        return op(Var(x), Var(gamma), Var(beta)), dy

    @pytest.mark.parametrize("sliced", [False, True], ids=["contiguous", "column-sliced"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 7, 2000])
    def test_vjp_has_the_bits_of_the_formula(self, rows, dtype, sliced):
        # The in-place vjp runs the formula's operations in the formula's order.
        y, dy = self.vjp_case(batch_norm, rows, dtype, sliced)
        want_y, _ = self.vjp_case(formula_batch_norm, rows, dtype, sliced)
        assert y.data.tobytes() == want_y.data.tobytes()
        got, want = y.vjp(dy), want_y.vjp(dy)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype and g.tobytes() == w.tobytes()
        if rows == 1:  # one row standardizes to 0: no gradient reaches x or gamma
            assert not got[0].any() and not got[1].any()

    def test_vjp_peaks_at_two_inputs_where_the_formula_took_four(self):
        rng = seeded_rng(13, "bn-peak")
        x, dy = (rng.normal(size=(2000, 64)).astype(np.float32) for _ in range(2))
        gamma, beta = Var(rng.normal(size=64).astype(np.float32)), Var(np.zeros(64, np.float32))
        peaks = [traced_peak(op(Var(x), gamma, beta).vjp, dy) / x.nbytes
                 for op in (batch_norm, formula_batch_norm)]
        assert peaks[0] <= 3 < peaks[1], peaks

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

        # Sums run in the activations' dtype; 1/deg is rounded from float64.
        src, dst = g.edge_src, g.edge_dst
        acc = np.zeros((n, 5), dtype)
        np.add.at(acc, dst, x[src])
        deg = np.bincount(dst, minlength=n).astype(np.float64)
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0).astype(dtype)
        nm = acc * inv[:, None]
        d_nm = dy @ wn.T
        scatter = np.zeros((n, 5), dtype)
        np.add.at(scatter, src, d_nm[dst] * inv[dst][:, None])
        expected = (dy @ ws.T + scatter, x.T @ dy, nm.T @ dy, dy.sum(axis=0))
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
        # Outside training the models pass rate 0: the input itself, no draw.
        rng = seeded_rng(10, "drop")
        state = rng.bit_generator.state
        x = Var(np.ones((4, 4)))
        assert feature_dropout(x, 0.0, rng) is x
        assert rng.bit_generator.state == state

    def test_inverted_scaling(self):
        rng = seeded_rng(11, "drop")
        x = Var(np.ones((100, 100)))
        y = feature_dropout(x, 0.25, rng)
        kept = y.data[y.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert 0.70 <= (y.data != 0).mean() <= 0.80

    def test_backward_uses_same_mask(self):
        rng = seeded_rng(12, "drop")
        x = Var(np.ones((10, 10)))
        y = feature_dropout(x, 0.5, rng)
        backward(y, np.ones((10, 10)))
        assert np.array_equal(x.grad != 0, y.data != 0)

    @pytest.mark.parametrize("p", [1.0, -0.1])
    @pytest.mark.parametrize("drop", [
        lambda p: feature_dropout(Var(np.ones((2, 2))), p, seeded_rng(13, "drop")),
        lambda p: apply_score_dropout(3, p, seed=0),
    ], ids=["feature", "edge-score"])
    def test_probability_validated(self, drop, p):
        # Feature and edge-score dropout share one rule for the rate.
        with pytest.raises(ValueError, match=rf"^dropout probability must be in \[0, 1\), got {p}$"):
            drop(p)


class TestGlobalMeanPool:
    def test_hand_means(self):
        x = Var(np.asarray([[2.0], [4.0], [9.0]]))
        y = global_mean_pool(x, np.asarray([0, 0, 1]))
        assert np.allclose(y.data, [[3.0], [9.0]])

    def test_backward_splits_evenly(self):
        x = Var(np.asarray([[2.0], [4.0], [9.0]]))
        y = global_mean_pool(x, np.asarray([0, 0, 1]))
        backward(y, np.asarray([[6.0], [5.0]]))
        assert np.allclose(x.grad, [[3.0], [3.0], [5.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_scatter_reference_unsorted_ids(self, dtype, sizes, seed):
        # Pooled batches list clusters before unmatched nodes, so graph ids
        # come out of order. Rows are summed in their dtype; the float64
        # division rounds to the bits of a division in that dtype.
        rng = seeded_rng(seed, "readout-scatter")
        graph_id = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        x = spread_values(rng, (len(graph_id), 3), dtype)
        y = global_mean_pool(Var(x), graph_id)

        acc = np.zeros((len(sizes), 3), dtype)
        np.add.at(acc, graph_id, x)
        counts = np.bincount(graph_id).astype(np.float64)
        want = (acc / counts[:, None]).astype(dtype)
        assert y.data.dtype == dtype and y.data.tobytes() == want.tobytes()

    def test_empty_graph_rejected(self):
        # Graph 1 lies below the largest id and has no node.
        x = Var(np.ones((2, 1)))
        with pytest.raises(ValueError, match="at least one node"):
            global_mean_pool(x, np.asarray([0, 2]))

    @pytest.mark.parametrize("graph_id", [[True, False], [0.0, 1.0], [[0, 1]], [0, 1, 1]])
    def test_graph_id_follows_the_integer_code_rule(self, graph_id):
        # Booleans are not read as graphs 1 and 0, nor floats cast; a shape
        # that is not one id per row names graph_id too.
        with pytest.raises(ValueError, match="^graph_id "):
            global_mean_pool(Var(np.ones((2, 1))), np.asarray(graph_id))

    def test_negative_graph_id_is_named(self):
        # np.bincount's own message names no argument.
        with pytest.raises(ValueError, match="^graph_id entry -1 is negative"):
            global_mean_pool(Var(np.ones((2, 1))), np.asarray([0, -1]))


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

    @pytest.mark.parametrize("index", [[True, False], [0.0], [-1], [2], [[0, 1]], 0])
    def test_gather_rows_index_follows_the_integer_code_rule(self, index):
        # Booleans are not read as rows 1 and 0, and -1 does not wrap to the
        # last row (whose scatter backward would then fail).
        with pytest.raises(ValueError, match="^index "):
            gather_rows(Var(np.ones((2, 1))), np.asarray(index))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_rows_vjp_bitwise_equal_to_scatter_reference(self, dtype):
        # Repeated reads sum in the gradient's dtype in read order; row 6 is
        # never read.
        rng = seeded_rng(15, "gather-scatter")
        index = rng.integers(0, 6, size=40)
        x = Var(np.zeros((7, 3), dtype))
        dy = spread_values(rng, (40, 3), dtype)
        backward(gather_rows(x, index), dy)
        acc = np.zeros((7, 3), dtype)
        np.add.at(acc, index, dy)
        assert x.grad.dtype == dtype and x.grad.tobytes() == acc.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", ["mean_conv", "global_mean_pool", "gather_rows", "contract"])
def test_unit_operator_sums_keep_the_operand_dtype(op, dtype):
    # Each op that sums through a unit operator returns its operand's dtype,
    # forward and vjp; contract sums each pair's node features.
    rng = seeded_rng(16, "sum-dtype")
    pairs = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3)]
    g = build_graph(4, pairs, np.ones((4, 1)))
    x = Var(rng.normal(size=(4, 3)).astype(dtype))
    if op == "mean_conv":
        w = [Var(rng.normal(size=shape).astype(dtype)) for shape in [(3, 2), (3, 2), (2,)]]
        y = mean_conv(g, x, *w)
        outs = [y.data, *y.vjp(np.ones_like(y.data))]
    elif op == "global_mean_pool":
        y = global_mean_pool(x, np.asarray([1, 0, 1, 1]))
        outs = [y.data, *y.vjp(np.ones_like(y.data))]
    elif op == "gather_rows":
        outs = list(gather_rows(x, np.asarray([0, 3, 0])).vjp(np.ones((3, 3), dtype)))
    else:
        scores = EdgeScores(normalized=np.full(6, 0.5), dropped=np.zeros(6, dtype=bool))
        g = build_graph(4, pairs, x.data)
        outs = [contract(g, np.asarray([[0, 1], [2, 3]]), scores)[0].node_features]
    assert [a.dtype for a in outs] == [np.dtype(dtype)] * len(outs)


def loss_and_grad(logits, labels):
    """The loss of the ``cross_entropy`` op and its ``backward`` gradient w.r.t. ``logits``."""
    v = Var(np.asarray(logits))
    loss = cross_entropy(v, labels)
    backward(loss)
    return float(loss.data), v.grad


class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        loss, _ = loss_and_grad(np.zeros((4, 3)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(3.0), rel=1e-12)

    def test_confident_correct_reference_value(self):
        loss, _ = loss_and_grad(np.asarray([[10.0, -10.0]]), np.asarray([0]))
        assert loss == pytest.approx(2.0611536181902037e-09, rel=1e-9)

    def test_gradient_rows_sum_to_zero(self):
        rng = seeded_rng(15, "ce")
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = loss_and_grad(logits, labels)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_is_mean_softmax_minus_onehot(self):
        logits = np.asarray([[0.0, 0.0]])
        _, grad = loss_and_grad(logits, np.asarray([1]))
        assert np.allclose(grad, [[0.5, -0.5]])

    # Labels are never cast: a cast would score [0.7, 2.9] as [0, 2] and
    # [True, False] as [1, 0].
    @pytest.mark.parametrize("labels", [
        np.asarray([0.7, 2.9]),
        np.asarray([True, False]),
        np.asarray([0, 3]),
        np.asarray([-1, 0]),
        np.asarray([0, 1, 2]),
    ], ids=["float", "bool", "past-classes", "negative", "wrong-length"])
    def test_labels_refused(self, labels):
        logits = Var(np.asarray([[0.0, 1.0, 2.0], [3.0, 1.0, 0.5]]))
        with pytest.raises(ValueError, match="labels"):
            cross_entropy(logits, labels)

    def test_needs_one_row(self):
        # The mean over no rows was a NaN loss, with a RuntimeWarning.
        with pytest.raises(ValueError, match="logits must have at least 1 row"):
            cross_entropy(Var(np.zeros((0, 3), np.float32)), np.zeros(0, np.int64))

    def test_stability_with_large_logits(self):
        loss, grad = loss_and_grad(np.asarray([[1e4, 0.0], [0.0, 1e4]]), np.asarray([0, 1]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestEdgePoolLayer:
    """One pooling implementation: the tape op reproduces the functional
    operator bit for bit, in both dtypes, with and without score dropout."""

    CASES = [
        (dtype, mode)
        for dtype in (np.float32, np.float64)
        for mode in ({}, {"dropout_p": 0.3, "seed": 5})
    ]

    def instance(self, seed, dtype):
        rng = seeded_rng(seed, "pool-layer")
        g = make_connected_erdos_renyi(8, 0.4, rng, feature_width=3)
        x = Var(rng.normal(size=(8, 3)).astype(dtype))
        w = Var(rng.normal(size=6))
        b = Var(np.asarray(0.1))
        return rng, g, x, w, b

    @pytest.mark.parametrize("p", [float("nan"), -0.5], ids=["nan", "negative"])
    def test_bad_dropout_rate_rejected(self, p):
        # Neither rate is > 0, so the op asks for no training-mode dropout;
        # the rate is refused all the same.
        rng, g, x, w, b = self.instance(0, np.float64)
        with pytest.raises(ValueError, match="dropout probability"):
            edge_pool(x, w, b, g, dropout_p=p, seed=0)

    def test_the_dropout_mask_depends_on_the_edges_rate_and_seed_alone(self):
        # So the gradient check fingerprints only the matching: no perturbation
        # of x, weight or bias changes which edges are dropped.
        rng, g, x, w, b = self.instance(3, np.float64)
        other = (Var(rng.normal(size=(8, 3))), Var(rng.normal(size=6)), Var(np.asarray(-0.7)))
        masks = [edge_pool(*inputs, g, dropout_p=0.3, seed=11)[4].dropped
                 for inputs in ((x, w, b), other)]
        assert masks[0].any()
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[0], apply_score_dropout(g.num_edges, 0.3, 11))

    @pytest.mark.parametrize("writeable", [True, False])
    def test_the_scored_graph_is_a_view_of_x(self, writeable, monkeypatch):
        scored = []

        def recorded(graph, *args, **kwargs):
            scored.append(graph)
            return edgepool_forward(graph, *args, **kwargs)

        monkeypatch.setattr(layers, "edgepool_forward", recorded)
        rng, g, x, w, b = self.instance(2, np.float32)
        x.data.flags.writeable = writeable
        edge_pool(x, w, b, g)
        features = scored[0].node_features
        assert np.shares_memory(features, x.data) and np.array_equal(features, x.data)
        assert not features.flags.writeable and x.data.flags.writeable == writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_x_rejected(self, bad):
        rng, g, x, w, b = self.instance(3, np.float64)
        x.data[4, 1] = bad
        with pytest.raises(ValueError, match="^x must be finite"):
            edge_pool(x, w, b, g)

    def test_forward_matches_functional(self):
        for dtype, mode in self.CASES:
            case = f"{dtype.__name__} {mode}"
            rng, g, x, w, b = self.instance(0, dtype)
            out, gate, pooled, info, scores = edge_pool(x, w, b, g, **mode)
            ref, ref_info, ref_scores = edgepool_forward(
                g.with_node_features(x.data),
                PoolParams(weight=w.data, bias=float(b.data)), training=bool(mode), **mode,
            )
            assert ref_scores.dropped.any() == bool(mode), case
            assert out.data.dtype == ref.node_features.dtype == dtype, case
            assert np.array_equal(out.data, ref.node_features), case
            assert np.array_equal(pooled.edges, ref.edges), case
            assert np.array_equal(info.matching, ref_info.matching), case
            # One gate per matched pair, in matching order.
            assert gate.data.shape == (info.num_matched,), case
            assert np.array_equal(
                gate.data, ref_scores.normalized[ref_info.matched_edge_index]
            ), case
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
            assert w.grad.tobytes() == gw.tobytes(), case
            assert float(b.grad) == gb, case
            if dtype == np.float64:
                assert x.grad.tobytes() == gx.tobytes(), case
                continue
            # In float32 the tape adds the two halves, the merge adjoint and
            # the score path, each cast to float32 on its own.
            merge = upstream[info.cluster_of].astype(np.float64) * info.node_score[:, None]
            mi, mj = info.matching[:, 0], info.matching[:, 1]
            g_s = np.einsum("kf,kf->k", upstream[: info.num_matched].astype(np.float64),
                            x.data[mi].astype(np.float64) + x.data[mj])
            path = score_path_backward(g.with_node_features(x.data),
                                       PoolParams(weight=w.data, bias=float(b.data)),
                                       info, scores, g_s)[0]
            assert x.grad.tobytes() == (merge.astype(dtype) + path.astype(dtype)).tobytes(), case


class TestUnpoolLayer:
    def test_forward_and_feature_adjoint(self):
        rng = seeded_rng(17, "unpool-layer")
        g = make_connected_erdos_renyi(8, 0.4, rng, feature_width=3)
        x = Var(rng.normal(size=(8, 3)))
        w = Var(rng.normal(size=6))
        b = Var(np.asarray(0.0))
        out, gate, pooled, info, _ = edge_pool(x, w, b, g)
        h = Var(rng.normal(size=out.data.shape))
        frozen_gate = Var(gate.data.copy())  # leaf: isolates the feature path
        y = unpool(h, frozen_gate, info)
        assert y.data.shape == (g.num_nodes, 3)
        assert np.allclose(y.data, h.data[info.cluster_of] / info.node_score[:, None])
        upstream = rng.normal(size=y.data.shape)
        backward(y, upstream)
        assert np.allclose(h.grad, unpool_backward(upstream, info))
        # The gate leaf received the division's gradient, both members per pair.
        d = -np.einsum("nf,nf->n", upstream, y.data) / info.node_score
        mi, mj = info.matching[:, 0], info.matching[:, 1]
        assert frozen_gate.grad.shape == (info.num_matched,)
        assert np.allclose(frozen_gate.grad, d[mi] + d[mj])

    @settings(max_examples=60, deadline=None)
    @given(level=pool_levels(), width=st.sampled_from([1, 2, 3, 5, 8, 17, 64, 300]))
    def test_gate_gradient_bitwise_equal_to_all_rows_formula(self, level, width):
        # The vjp dots the 2k matched rows alone; the formula dots every row.
        graph, _, pooled, info, _, rng = level
        dtype = graph.node_features.dtype
        h = Var(signed_rows(rng, (pooled.num_nodes, width), dtype))
        gate = Var(info.node_score[info.matching[:, 0]])
        y = unpool(h, gate, info)
        upstream = signed_rows(rng, y.data.shape, dtype)
        backward(y, upstream)
        d = -np.einsum("nf,nf->n", upstream.astype(np.float64), y.data.astype(np.float64))
        d /= info.node_score
        want = d[info.matching[:, 0]] + d[info.matching[:, 1]]
        assert gate.grad.dtype == np.float64
        assert gate.grad.tobytes() == want.tobytes()

    def test_gate_of_another_shape_is_refused(self):
        rng = seeded_rng(18, "unpool-gate")
        g = make_connected_erdos_renyi(8, 0.4, rng, feature_width=3)
        out, gate, _, info, _ = edge_pool(Var(g.node_features), Var(rng.normal(size=6)),
                                          Var(np.asarray(0.0)), g)
        assert info.num_matched > 0
        for bad in (info.node_score, gate.data[:-1], gate.data[:, None]):
            with pytest.raises(ValueError, match="^gate must be 1-D of shape"):
                unpool(out, Var(bad), info)

    def test_gate_of_another_level_is_refused(self):
        # The forward divides by info.node_score, so a gate with other
        # scores would be differentiated where it was never read.
        rng = seeded_rng(18, "unpool-gate")
        g = make_connected_erdos_renyi(8, 0.4, rng, feature_width=3)
        out, gate, _, info, _ = edge_pool(Var(g.node_features), Var(rng.normal(size=6)),
                                          Var(np.asarray(0.0)), g)
        assert info.num_matched > 0
        with pytest.raises(ValueError, match="gate must be this level's gate"):
            unpool(out, Var(gate.data * 3.0), info)
