"""Seeded streams, tape mechanics, and the finite-difference harness."""

import numpy as np
import pytest

from edgepool import GraphClassifier, NodeClassifier, Var, backward, batch, layers, run_gradcheck
from edgepool import fdcheck
from edgepool.autodiff import _consumed, _no_tape, _topo_order
from edgepool.fdcheck import CASE_GROUPS, CASE_NAMES
from edgepool.rng import draw_seed, seeded_rng

from oracles import keeping_backward
from test_models import graph_fixture, node_fixture


class TestSeededRng:
    def test_reproducible(self):
        a = seeded_rng(3, "x").normal(size=5)
        b = seeded_rng(3, "x").normal(size=5)
        assert np.array_equal(a, b)

    def test_labels_separate_streams(self):
        a = seeded_rng(3, "x").normal(size=5)
        b = seeded_rng(3, "y").normal(size=5)
        c = seeded_rng(4, "x").normal(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_integer_labels(self):
        a = seeded_rng(0, "epoch", 1).normal(size=3)
        b = seeded_rng(0, "epoch", 2).normal(size=3)
        assert not np.array_equal(a, b)

    def test_draw_seed_range(self):
        rng = seeded_rng(0, "draw")
        for _ in range(100):
            s = draw_seed(rng)
            assert 0 <= s < 2**63


class TestTape:
    def test_gradient_accumulates_on_shared_parent(self):
        x = Var(np.asarray([2.0]))
        double = Var(x.data * 2, (x,), lambda dy: (2.0 * dy,))
        triple = Var(x.data * 3, (x,), lambda dy: (3.0 * dy,))
        total = Var(double.data + triple.data, (double, triple),
                    lambda dy: (dy, dy))
        backward(total)
        assert x.grad.tolist() == [5.0]

    def test_diamond_topology_visits_once(self):
        calls = []
        x = Var(np.asarray([1.0]))

        def make(label, scale):
            def vjp(dy):
                calls.append(label)
                return (scale * dy,)
            return Var(scale * x.data, (x,), vjp)

        a, b = make("a", 2.0), make("b", 4.0)
        top = Var(a.data + b.data, (a, b), lambda dy: (dy, dy))
        backward(top)
        assert sorted(calls) == ["a", "b"]
        assert x.grad.tolist() == [6.0]

    def test_seed_shape_validated(self):
        x = Var(np.zeros((2, 2)))
        y = Var(x.data * 1.0, (x,), lambda dy: (dy,))
        with pytest.raises(ValueError):
            backward(y, np.zeros(3))

    def test_an_integer_leaf_gets_a_float64_gradient(self):
        # The ops widen integer activations to float64, so the gradient of an
        # integer leaf is float64 too, not truncated to int64 zeros.
        x = Var(np.ones((3, 2), dtype=np.int64))
        w = Var(np.full((2, 2), 0.3))
        backward(layers.dense(x, w, Var(np.zeros(2))))
        assert x.grad.dtype == np.float64
        np.testing.assert_allclose(x.grad, np.full((3, 2), 0.6))
        # Float parents keep their dtype.
        x32 = Var(np.ones((3, 2), dtype=np.float32))
        backward(layers.dense(x32, Var(np.full((2, 2), 0.3, dtype=np.float32)),
                              Var(np.zeros(2, dtype=np.float32))))
        assert x32.grad.dtype == np.float32

    def test_leaf_repr(self):
        assert "leaf=True" in repr(Var(np.zeros(2)))

    def test_a_consumed_tape_refuses_a_second_backward(self):
        # Two outputs share h: the first backward consumes h, so the second
        # raises before it adds any gradient, instead of skipping h and
        # leaving x without its share.
        x = Var(np.asarray([1.0]))
        h = Var(2.0 * x.data, (x,), lambda dy: (2.0 * dy,))
        a = Var(h.data, (h,), lambda dy: (dy,))
        b = Var(3.0 * h.data, (h,), lambda dy: (3.0 * dy,))
        backward(a)
        assert x.grad.tolist() == [2.0]
        for root in (a, b):
            with pytest.raises(ValueError, match="consumed by an earlier backward"):
                backward(root)
        assert b.grad is None and x.grad.tolist() == [2.0]

    def test_a_var_with_parents_but_no_vjp_is_a_constant(self):
        # backward neither walks through such a Var nor consumes it, so a
        # second backward over it runs, and it keeps the gradients it gets.
        x = Var(np.asarray([1.0]))
        c = Var(5.0 * x.data, (x,))
        backward(Var(c.data + x.data, (c, x), lambda dy: (dy, dy)))
        assert x.grad.tolist() == [1.0] and c.grad.tolist() == [1.0]
        backward(Var(2.0 * c.data, (c,), lambda dy: (2.0 * dy,)))
        assert x.grad.tolist() == [1.0] and c.grad.tolist() == [3.0]

    def test_a_no_tape_block_records_nothing_and_restores_the_tape(self):
        x = Var(np.asarray([1.0, -1.0]))
        with pytest.raises(RuntimeError):
            with _no_tape():
                with _no_tape():
                    inner = layers.relu(x)
                outer = layers.relu(x)
                raise RuntimeError
        assert inner.parents == outer.parents == () and inner.vjp is outer.vjp is None
        y = layers.relu(x)
        assert y.parents == (x,) and y.vjp is not None

    def test_relu_links_past_a_producer_with_a_live_vjp(self):
        x = Var(np.asarray([1.0, -2.0]))
        h = Var(2.0 * x.data, (x,), lambda dy: (2.0 * dy,))
        y = layers.relu(h)
        assert y.parents == (x,)
        backward(y, np.asarray([3.0, 3.0]))
        assert x.grad.tolist() == [6.0, 0.0] and h.grad is None

    def test_relu_over_a_leaf_or_a_constant_links_to_it(self):
        x = Var(np.asarray([1.0, -2.0]))
        constant = Var(5.0 * x.data, (x,))
        for v in (x, constant):
            assert layers.relu(v).parents == (v,)

    def test_relu_over_a_consumed_node_keeps_its_link_and_backward_refuses_it(self):
        # Linked past, the consumed vjp would raise only once backward had
        # begun adding gradients; linked to h, the walk refuses h first.
        x = Var(np.asarray([1.0, -2.0]))
        h = Var(2.0 * x.data, (x,), lambda dy: (2.0 * dy,))
        backward(h)
        y = layers.relu(h)
        assert y.parents == (h,)
        with pytest.raises(ValueError, match="consumed by an earlier backward"):
            backward(y)
        assert x.grad.tolist() == [2.0, 2.0]


def _model_loss(kind):
    """The leaves and a training-mode loss of a pooling model, both dropout stages on."""
    if kind == "graph":
        ds = graph_fixture(num_graphs=6)
        model = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes, channels=8)
        batched = batch(ds.graphs)
        leaves = model.params.as_vars()
        logits = model.forward(leaves, batched.graph, batched.graph_id, training=True, seed=5)
        return leaves, layers.cross_entropy(logits, ds.labels)
    task = node_fixture()
    model = NodeClassifier.create(task.graph.feature_width, task.num_classes, channels=8)
    leaves = model.params.as_vars()
    logits = model.forward(leaves, task.graph, training=True, seed=5)
    return leaves, layers.cross_entropy(logits, task.node_labels)


@pytest.mark.parametrize("kind", ["graph", "node"])
def test_backward_consumes_the_tape_and_keeps_the_leaf_gradients(kind):
    leaves, loss = _model_loss(kind)
    kept, kept_loss = _model_loss(kind)
    tape = _topo_order(loss)
    backward(loss)
    keeping_backward(kept_loss)
    inner = [node for node in tape if node.parents]
    # relu links past its producer, so the tapes hold 21 (graph) and 19 (node) inner nodes.
    assert len(inner) >= 19
    assert all(node.grad is None and node.vjp is _consumed for node in inner)
    # The leaves' gradients are bit for bit those of a backward that keeps its tape.
    for name, leaf in leaves.items():
        assert leaf.grad.dtype == kept[name].grad.dtype, name
        assert leaf.grad.tobytes() == kept[name].grad.tobytes(), name
    with pytest.raises(ValueError, match="consumed by an earlier backward"):
        backward(loss)
    assert all(leaf.grad.tobytes() == kept[name].grad.tobytes() for name, leaf in leaves.items())


class TestFdHarness:
    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            run_gradcheck(cases=["warp_drive"])

    def test_single_case_selection(self):
        results = run_gradcheck(cases=["dense"])
        assert [r.name for r in results] == ["dense"]
        assert results[0].passed
        assert results[0].num_entries > 0

    def test_corrupt_flag_fails_some_case(self):
        results = run_gradcheck(cases=["dense", "relu"], corrupt=True)
        assert any(not r.passed for r in results)

    # Negative controls: a gate that passes a NaN or crashes on a dropped
    # gradient proves nothing, so each broken vjp must give a FAIL result.
    @staticmethod
    def _with_vjp(op, edit):
        """``op`` whose output's vjp passes its parents' gradients through ``edit``."""
        def wrapped(*args):
            out = op(*args)
            vjp = out.vjp
            out.vjp = lambda dy: edit(vjp(dy))
            return out
        return wrapped

    @pytest.mark.parametrize("edit", [
        lambda g: (g[0], g[1] * np.nan, g[2]),
        lambda g: (g[0], None, g[2]),
    ], ids=["nan-weight-gradient", "dropped-weight-gradient"])
    def test_a_broken_dense_vjp_fails(self, monkeypatch, edit):
        broken = self._with_vjp(layers.dense, edit)
        monkeypatch.setitem(fdcheck._CASES, "dense", (
            "layers", fdcheck._tape(fdcheck._normal_case(broken, [(5, 3), (3, 4), (4,)]))))
        [result] = run_gradcheck(cases=["dense"])
        assert not result.passed
        assert result.num_entries == 31

    def test_a_nan_unpool_adjoint_fails(self, monkeypatch):
        monkeypatch.setattr(fdcheck, "unpool",
                            self._with_vjp(layers.unpool, lambda g: (g[0] * np.nan, g[1])))
        [result] = run_gradcheck(cases=["unpool_adjoint"])
        assert not result.passed
        assert np.isnan(result.max_abs_err)

    def test_case_names_complete(self):
        assert "edge_pool" in CASE_NAMES
        assert "graph_model" in CASE_NAMES
        assert "node_model" in CASE_NAMES
        assert "unpool_adjoint" in CASE_NAMES

    def test_every_tape_op_has_a_case(self):
        assert [op for op in layers.__all__ if op not in CASE_NAMES] == []

    def test_layers_group_is_the_layer_cases(self):
        # Every op but the pooling pair, and batch norm's one-row case.
        ops = set(layers.__all__) - {"edge_pool", "unpool"}
        assert set(CASE_GROUPS["layers"]) == ops | {"batch_norm_one_row"}
        assert CASE_GROUPS["all"] == list(CASE_NAMES)
