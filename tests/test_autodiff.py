"""Seeded streams, tape mechanics, and the finite-difference harness."""

import numpy as np
import pytest

from edgepool import Var, backward, layers, run_gradcheck
from edgepool.fdcheck import CASE_GROUPS, CASE_NAMES
from edgepool.rng import draw_seed, seeded_rng


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
