"""Reference architectures and their training loops."""

import numpy as np
import pytest

from edgepool import (
    GraphClassifier,
    GraphDataset,
    build_graph,
    NodeClassifier,
    TrainConfig,
    batch,
    gen_synthetic,
    symmetrize,
    train_graph_model,
    train_node_model,
)
from edgepool import models
from edgepool.models import evaluate_graph_model, evaluate_node_model
from edgepool.params import ParamStore
from edgepool.rng import seeded_rng


def tiny_config(**overrides):
    base = dict(epochs=2, batch_size=8, channels=8, dropout_p=0.0,
                edge_score_dropout_p=0.0, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def graph_fixture(num_graphs=12, seed=0):
    return gen_synthetic(
        "path_proteinlike",
        {"num_graphs": num_graphs, "min_nodes": 8, "max_nodes": 14},
        seed=seed,
    )


def node_fixture(seed=0):
    return gen_synthetic(
        "sbm_node_task",
        {"nodes_per_block": 30, "per_class_train": 8, "per_class_test": 10},
        seed=seed,
    )


class TestGraphClassifier:
    def test_parameter_names(self):
        m = GraphClassifier.create(5, 2, channels=8, pooling=True)
        names = set(m.params.names())
        assert "block1.conv.w_self" in names
        assert "block3.bn.gamma" in names
        assert "block1.pool.weight" in names
        assert "block2.pool.bias" in names
        assert "block3.pool.weight" in names  # pooling follows every block
        assert "head.fc1.weight" in names and "head.fc2.bias" in names

    def test_no_pooling_drops_pool_params(self):
        m = GraphClassifier.create(5, 2, channels=8, pooling=False)
        assert not any("pool" in n for n in m.params.names())

    def test_logit_shape(self):
        ds = graph_fixture(num_graphs=5)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes,
                                   channels=8)
        batched = batch(ds.graphs)
        logits = m.forward(m.params.as_vars(), batched.graph, batched.graph_id,
                           batched.num_graphs, tiny_config())
        assert logits.data.shape == (5, ds.num_classes)

    def test_train_eval_identity_without_stochastic_stages(self):
        # Normalization uses batch statistics in both modes, so with the
        # dropout stages off the two modes must agree exactly.
        ds = graph_fixture(num_graphs=6)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes,
                                   channels=8)
        batched = batch(ds.graphs)
        cfg = tiny_config()
        leaves = m.params.as_vars()
        args = (batched.graph, batched.graph_id, batched.num_graphs, cfg)
        train_logits = m.forward(leaves, *args, training=True, seed=3)
        eval_logits = m.forward(leaves, *args, training=False, seed=99)
        assert np.array_equal(train_logits.data, eval_logits.data)

    def test_trace_collects_pool_levels(self):
        ds = graph_fixture(num_graphs=3)
        batched = batch(ds.graphs)
        for pooling, expect in ((True, 3), (False, 0)):
            m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes,
                                       channels=8, pooling=pooling)
            trace = []
            m.forward(m.params.as_vars(), batched.graph, batched.graph_id,
                      batched.num_graphs, tiny_config(), trace=trace)
            assert len(trace) == expect

    def test_pooling_contracts_between_blocks(self):
        ds = graph_fixture(num_graphs=3)
        batched = batch(ds.graphs)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes,
                                   channels=8, pooling=True)
        trace = []
        m.forward(m.params.as_vars(), batched.graph, batched.graph_id,
                  batched.num_graphs, tiny_config(), trace=trace)
        assert trace[0].pooled_num_nodes < batched.graph.num_nodes
        assert len(trace[1].cluster_of) == trace[0].pooled_num_nodes
        assert len(trace[2].cluster_of) == trace[1].pooled_num_nodes


class TestGraphTraining:
    def test_history_shape_and_loss_drop(self):
        ds = graph_fixture(num_graphs=16)
        idx = np.arange(len(ds))
        cfg = tiny_config(epochs=6, learning_rate=3e-3)
        model, history = train_graph_model(ds, idx[:12], idx[12:], cfg)
        assert len(history) == 6
        assert list(history[0]) == ["epoch", "lr", "train_loss", "eval_acc"]
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        acc = evaluate_graph_model(model, ds, idx[12:], cfg)
        assert 0.0 <= acc <= 1.0
        assert acc == history[-1]["eval_acc"]

    def test_same_seed_same_curve(self):
        ds = graph_fixture(num_graphs=10)
        idx = np.arange(len(ds))
        cfg = TrainConfig(epochs=2, batch_size=4, channels=8, seed=5)
        _, h1 = train_graph_model(ds, idx[:8], idx[8:], cfg)
        _, h2 = train_graph_model(ds, idx[:8], idx[8:], cfg)
        assert h1 == h2

    def test_one_graph_batch_trains_and_evaluates(self):
        # Two pooling levels take each 4-node path to one node, and the
        # trailing eval batch holds one graph: batch norm sees one row.
        paths = [symmetrize(build_graph(4, [(0, 1), (1, 2), (2, 3)], np.full((4, 2), float(k))))
                 for k in range(6)]
        ds = GraphDataset(paths, np.asarray([0, 1, 0, 1, 0, 1]), 2, "paths")
        idx = np.arange(6)
        cfg = tiny_config(batch_size=5)
        model, history = train_graph_model(ds, idx[:5], idx, cfg)
        assert len(history) == 2
        assert all(np.isfinite(row["train_loss"]) for row in history)
        assert evaluate_graph_model(model, ds, idx, cfg) == history[-1]["eval_acc"]

    def test_pooling_flag_changes_model(self):
        ds = graph_fixture(num_graphs=8)
        idx = np.arange(len(ds))
        cfg = tiny_config(epochs=1)
        m_pool, _ = train_graph_model(ds, idx[:6], idx[6:], cfg, pooling=True)
        m_flat, _ = train_graph_model(ds, idx[:6], idx[6:], cfg, pooling=False)
        assert any("pool" in n for n in m_pool.params.names())
        assert not any("pool" in n for n in m_flat.params.names())


class TestNodeClassifier:
    def test_conv_kind_validated(self):
        with pytest.raises(ValueError):
            NodeClassifier.create(4, 2, conv_kind="attention")

    def test_mlp_variant_has_no_neighbor_weights(self):
        mlp = NodeClassifier.create(4, 2, channels=8, conv_kind="mlp")
        mean = NodeClassifier.create(4, 2, channels=8, conv_kind="mean")
        assert not any("w_neigh" in n for n in mlp.params.names())
        assert any("w_neigh" in n for n in mean.params.names())

    def test_logit_rows_match_input_nodes(self):
        task = node_fixture()
        for pooling in (True, False):
            m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                      channels=8, pooling=pooling)
            logits = m.forward(m.params.as_vars(), task.graph, tiny_config())
            assert logits.data.shape == (task.graph.num_nodes, task.num_classes)

    def test_trace_has_two_levels(self):
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                  channels=8, pooling=True)
        trace = []
        m.forward(m.params.as_vars(), task.graph, tiny_config(), trace=trace)
        assert len(trace) == 2
        assert len(trace[1].cluster_of) == trace[0].pooled_num_nodes

    def test_train_eval_identity_without_stochastic_stages(self):
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                  channels=8)
        cfg = tiny_config()
        leaves = m.params.as_vars()
        a = m.forward(leaves, task.graph, cfg, training=True, seed=1)
        b = m.forward(leaves, task.graph, cfg, training=False, seed=2)
        assert np.array_equal(a.data, b.data)

    def test_mlp_without_pooling_ignores_structure(self):
        # Structure only enters through aggregation or contraction; with
        # neither, rewiring the graph cannot change any logit.
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                  channels=8, conv_kind="mlp", pooling=False)
        leaves = m.params.as_vars()
        base = m.forward(leaves, task.graph, tiny_config())
        rng = seeded_rng(0, "rewire")
        n = task.graph.num_nodes
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(60, 2)) if a != b}
        rewired = build_graph(n, sorted(pairs), task.graph.node_features)
        other = m.forward(leaves, rewired, tiny_config())
        assert np.array_equal(base.data, other.data)

    def test_mlp_with_pooling_uses_structure(self):
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                  channels=8, conv_kind="mlp", pooling=True)
        leaves = m.params.as_vars()
        base = m.forward(leaves, task.graph, tiny_config())
        rng = seeded_rng(1, "rewire")
        n = task.graph.num_nodes
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(3 * n, 2)) if a != b}
        rewired = build_graph(n, sorted(pairs), task.graph.node_features)
        other = m.forward(leaves, rewired, tiny_config())
        assert not np.array_equal(base.data, other.data)


class TestNodeTraining:
    def test_history_and_loss_drop(self):
        task = node_fixture()
        cfg = tiny_config(epochs=8, learning_rate=5e-3)
        model, history = train_node_model(task, cfg)
        assert len(history) == 8
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        acc = evaluate_node_model(model, task, cfg)
        assert acc == history[-1]["eval_acc"]

    def test_same_seed_same_curve(self):
        task = node_fixture()
        cfg = TrainConfig(epochs=2, channels=8, seed=3)
        _, h1 = train_node_model(task, cfg, conv_kind="mlp")
        _, h2 = train_node_model(task, cfg, conv_kind="mlp")
        assert h1 == h2

    def test_progress_callback(self):
        task = node_fixture()
        rows = []
        train_node_model(task, tiny_config(epochs=2), progress=rows.append)
        assert [r["epoch"] for r in rows] == [0, 1]


def run_model(kind, pooling=False, **overrides):
    cfg = tiny_config(epochs=3, **overrides)
    if kind == "graph":
        ds = graph_fixture(num_graphs=16)
        idx = np.arange(len(ds))
        return train_graph_model(ds, idx[:12], idx[12:], cfg, pooling=pooling)
    return train_node_model(node_fixture(), cfg, pooling=pooling)


# The graph model's second step is epoch 0, batch 1 (12 graphs, batch size
# 8); the node model takes one full batch per epoch.
SECOND_STEP = {"graph": "epoch 0, batch 1", "node": "epoch 1, batch 0"}


class TestNonFiniteStep:
    @pytest.mark.parametrize("kind", ["graph", "node"])
    def test_non_finite_loss_names_epoch_and_batch(self, kind):
        # Without pooling, whose score check would fire first, a huge first
        # Adam step makes the next forward overflow into a non-finite loss.
        with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
            run_model(kind, learning_rate=1e30)
        assert str(err.value) == f"non-finite loss at {SECOND_STEP[kind]}"

    @pytest.mark.parametrize("kind", ["graph", "node"])
    def test_non_finite_gradient_names_epoch_batch_and_parameter(self, kind, monkeypatch):
        # Poison one parameter gradient of the second step after a finite loss.
        leaves, losses = [], []
        as_vars, backward = ParamStore.as_vars, models.backward

        def recording_as_vars(store):
            leaves.append(as_vars(store))
            return leaves[-1]

        def poisoned_backward(loss):
            backward(loss)
            losses.append(loss)
            if len(losses) == 2:
                bias = leaves[-1]["head.fc2.bias"]
                bias.grad = np.full_like(bias.grad, np.nan)

        monkeypatch.setattr(ParamStore, "as_vars", recording_as_vars)
        monkeypatch.setattr(models, "backward", poisoned_backward)
        with pytest.raises(ValueError) as err:
            run_model(kind, pooling=True)
        assert str(err.value) == f"non-finite gradient of head.fc2.bias at {SECOND_STEP[kind]}"
