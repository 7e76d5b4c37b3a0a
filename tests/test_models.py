"""Reference architectures and their training loops."""

import dataclasses
import weakref

import numpy as np
import pytest

from edgepool import (
    GraphClassifier,
    GraphDataset,
    build_graph,
    NodeClassifier,
    TrainConfig,
    backward,
    batch,
    cross_entropy,
    gen_synthetic,
    symmetrize,
    train_graph_model,
    train_node_model,
)
from edgepool import layers, models, pool
from edgepool.models import evaluate_graph_model, evaluate_node_model
from edgepool.params import ParamStore
from edgepool.rng import seeded_rng

from oracles import (
    linked_relu, listed_backward, two_loop_train_graph_model, two_loop_train_node_model,
)
from peaks import traced_peak


def tiny_config(**overrides):
    base = dict(epochs=2, batch_size=8, channels=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture
def no_dropout(monkeypatch):
    """Both dropout stages off, so training-mode forwards are deterministic."""
    monkeypatch.setattr(models, "HEAD_DROPOUT_P", 0.0)
    monkeypatch.setattr(models, "EDGE_SCORE_DROPOUT_P", 0.0)


def param_names(model):
    return [name for name, _ in model.params.items()]


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


@pytest.mark.usefixtures("no_dropout")
class TestGraphClassifier:
    def test_parameter_names(self):
        m = GraphClassifier.create(5, 2, channels=8, pooling=True)
        names = set(param_names(m))
        assert "block1.conv.w_self" in names
        assert "block3.bn.gamma" in names
        assert "block1.pool.weight" in names
        assert "block2.pool.bias" in names
        assert "block3.pool.weight" in names  # pooling follows every block
        assert "head.fc1.weight" in names and "head.fc2.bias" in names

    def test_scorers_are_two_channel_rows_wide(self):
        # A scorer reads the two endpoint rows of a conv output and nothing else.
        m = GraphClassifier.create(5, 2, channels=8, pooling=True)
        shapes = {n: p.data.shape for n, p in m.params.items() if n.endswith("pool.weight")}
        assert len(shapes) == 3 and set(shapes.values()) == {(16,)}

    def test_no_pooling_drops_pool_params(self):
        m = GraphClassifier.create(5, 2, channels=8, pooling=False)
        assert not any("pool" in n for n in param_names(m))

    def test_logit_shape(self):
        ds = graph_fixture(num_graphs=5)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes,
                                   channels=8)
        batched = batch(ds.graphs)
        logits = m.forward(m.params.as_vars(), batched.graph, batched.graph_id)
        assert logits.data.shape == (5, ds.num_classes)

    def test_train_eval_identity_without_stochastic_stages(self):
        # Normalization uses batch statistics in both modes, so with the
        # dropout stages off the two modes must agree exactly.
        ds = graph_fixture(num_graphs=6)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes,
                                   channels=8)
        batched = batch(ds.graphs)
        leaves = m.params.as_vars()
        args = (batched.graph, batched.graph_id)
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
            m.forward(m.params.as_vars(), batched.graph, batched.graph_id, trace=trace)
            assert len(trace) == expect

    def test_pooling_contracts_between_blocks(self):
        ds = graph_fixture(num_graphs=3)
        batched = batch(ds.graphs)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes,
                                   channels=8, pooling=True)
        trace = []
        m.forward(m.params.as_vars(), batched.graph, batched.graph_id, trace=trace)
        assert trace[0].pooled_num_nodes < batched.graph.num_nodes
        assert len(trace[1].cluster_of) == trace[0].pooled_num_nodes
        assert len(trace[2].cluster_of) == trace[1].pooled_num_nodes


class TestGraphTraining:
    @pytest.mark.usefixtures("no_dropout")
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

    @pytest.mark.usefixtures("no_dropout")
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

    @pytest.mark.usefixtures("no_dropout")
    def test_pooling_flag_changes_model(self):
        ds = graph_fixture(num_graphs=8)
        idx = np.arange(len(ds))
        cfg = tiny_config(epochs=1)
        m_pool, _ = train_graph_model(ds, idx[:6], idx[6:], cfg, pooling=True)
        m_flat, _ = train_graph_model(ds, idx[:6], idx[6:], cfg, pooling=False)
        assert any("pool" in n for n in param_names(m_pool))
        assert not any("pool" in n for n in param_names(m_flat))


@pytest.mark.usefixtures("no_dropout")
class TestNodeClassifier:
    def test_conv_kind_validated(self):
        with pytest.raises(ValueError):
            NodeClassifier.create(4, 2, conv_kind="attention")

    def test_scorers_are_two_channel_rows_wide(self):
        m = NodeClassifier.create(4, 2, channels=8)
        shapes = {n: p.data.shape for n, p in m.params.items() if n.endswith(".weight")
                  and n.startswith("pool")}
        assert shapes == {"pool1.weight": (16,), "pool2.weight": (16,)}

    def test_mlp_variant_has_no_neighbor_weights(self):
        mlp = NodeClassifier.create(4, 2, channels=8, conv_kind="mlp")
        mean = NodeClassifier.create(4, 2, channels=8, conv_kind="mean")
        assert not any("w_neigh" in n for n in param_names(mlp))
        assert any("w_neigh" in n for n in param_names(mean))

    def test_logit_rows_match_input_nodes(self):
        task = node_fixture()
        for pooling in (True, False):
            m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                      channels=8, pooling=pooling)
            logits = m.forward(m.params.as_vars(), task.graph)
            assert logits.data.shape == (task.graph.num_nodes, task.num_classes)

    def test_trace_has_two_levels(self):
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                  channels=8, pooling=True)
        trace = []
        m.forward(m.params.as_vars(), task.graph, trace=trace)
        assert len(trace) == 2
        assert len(trace[1].cluster_of) == trace[0].pooled_num_nodes

    def test_train_eval_identity_without_stochastic_stages(self):
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                  channels=8)
        leaves = m.params.as_vars()
        a = m.forward(leaves, task.graph, training=True, seed=1)
        b = m.forward(leaves, task.graph, training=False, seed=2)
        assert np.array_equal(a.data, b.data)

    def test_mlp_without_pooling_ignores_structure(self):
        # Structure only enters through aggregation or contraction; with
        # neither, rewiring the graph cannot change any logit.
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                  channels=8, conv_kind="mlp", pooling=False)
        leaves = m.params.as_vars()
        base = m.forward(leaves, task.graph)
        rng = seeded_rng(0, "rewire")
        n = task.graph.num_nodes
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(60, 2)) if a != b}
        rewired = build_graph(n, sorted(pairs), task.graph.node_features)
        other = m.forward(leaves, rewired)
        assert np.array_equal(base.data, other.data)

    def test_mlp_with_pooling_uses_structure(self):
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                  channels=8, conv_kind="mlp", pooling=True)
        leaves = m.params.as_vars()
        base = m.forward(leaves, task.graph)
        rng = seeded_rng(1, "rewire")
        n = task.graph.num_nodes
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(3 * n, 2)) if a != b}
        rewired = build_graph(n, sorted(pairs), task.graph.node_features)
        other = m.forward(leaves, rewired)
        assert not np.array_equal(base.data, other.data)


class TestNodeTraining:
    @pytest.mark.usefixtures("no_dropout")
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

    @pytest.mark.usefixtures("no_dropout")
    def test_progress_callback(self):
        task = node_fixture()
        rows = []
        train_node_model(task, tiny_config(epochs=2), progress=rows.append)
        assert [r["epoch"] for r in rows] == [0, 1]


@pytest.mark.parametrize("kind", ["graph", "node"])
def test_evaluation_runs_both_dropout_stages_at_rate_zero(kind):
    # The models alone tell training from evaluation. With both dropout
    # stages at their real rates, evaluation ignores the forward seed, and
    # training does not.
    if kind == "graph":
        ds = graph_fixture(num_graphs=6)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes, channels=8)
        batched = batch(ds.graphs)
        args = (batched.graph, batched.graph_id)
    else:
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes, channels=8)
        args = (task.graph,)
    leaves = m.params.as_vars()
    logits = {(training, seed): m.forward(leaves, *args, training=training, seed=seed).data
              for training in (False, True) for seed in (1, 2)}
    assert logits[False, 1].tobytes() == logits[False, 2].tobytes()
    assert logits[True, 1].tobytes() != logits[True, 2].tobytes()


@pytest.mark.parametrize("kind, levels", [("graph", 3), ("node", 2)])
def test_one_backward_runs_each_levels_score_path_once(kind, levels, monkeypatch):
    # The tape sums every consumer's gradient into a level's gate (the
    # merge's, and in the node model the unpooling's) before its one vjp.
    calls = []
    real = pool.score_path_backward

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    for module in (layers, pool):  # every binding, wherever it is called from
        monkeypatch.setattr(module, "score_path_backward", counted)
    if kind == "graph":
        ds = graph_fixture(num_graphs=6)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes, channels=8)
        batched = batch(ds.graphs)
        args, labels = (batched.graph, batched.graph_id), ds.labels
    else:
        task = node_fixture()
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes, channels=8)
        args, labels = (task.graph,), task.node_labels
    trace = []
    loss = cross_entropy(m.forward(m.params.as_vars(), *args, training=True, seed=1,
                                   trace=trace), labels)
    assert calls == []
    backward(loss)
    assert len(trace) == levels
    assert sorted(map(id, calls)) == sorted(map(id, trace))


class TestTapeLifetime:
    """No tape outlives its use: weak references to each step's loss and each
    forward's logits, taken by wrapping ``models.backward`` and the model's
    ``forward``, are dead by the time the next forward starts."""

    @staticmethod
    def _watch(monkeypatch, cls):
        losses, logits, seen = [], [], []
        forward, step_backward = cls.forward, models.backward

        def watched_forward(self, *args, **kwargs):
            # What is alive when this forward starts: the last loss, and
            # the logits of every forward before this one.
            seen.append((kwargs.get("training", False),
                         losses[-1]() is not None if losses else False,
                         [ref() is not None for ref in logits]))
            out = forward(self, *args, **kwargs)
            logits.append(weakref.ref(out))
            return out

        def watched_backward(loss):
            step_backward(loss)
            losses.append(weakref.ref(loss))

        monkeypatch.setattr(cls, "forward", watched_forward)
        monkeypatch.setattr(models, "backward", watched_backward)
        return seen

    @pytest.mark.parametrize("kind", ["graph", "node"])
    def test_no_step_tape_reaches_the_next_forward_or_the_evaluation(self, kind, monkeypatch):
        seen = self._watch(monkeypatch, GraphClassifier if kind == "graph" else NodeClassifier)
        run_model(kind, pooling=True)
        assert sum(not training for training, _, _ in seen) == 3  # one evaluation per epoch
        assert not any(alive or any(older) for _, alive, older in seen)

    def test_no_chunk_of_an_evaluation_outlives_its_chunk(self, monkeypatch):
        ds = graph_fixture(num_graphs=20)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes, channels=8)
        seen = self._watch(monkeypatch, GraphClassifier)
        evaluate_graph_model(m, ds, np.arange(20), tiny_config(batch_size=4))
        assert len(seen) == 5
        assert [older for _, _, older in seen] == [[False] * i for i in range(5)]


class TestEvaluationTape:
    """An evaluation runs its forward in ``autodiff._no_tape``: its Vars keep
    no parents and no vjp, so no closure keeps an activation alive."""

    @pytest.mark.parametrize("kind", ["graph", "node"])
    def test_evaluation_logits_hold_no_parents_and_no_vjp(self, kind, monkeypatch):
        cls = GraphClassifier if kind == "graph" else NodeClassifier
        outs, forward = [], cls.forward

        def kept_forward(self, *args, **kwargs):
            outs.append(forward(self, *args, **kwargs))
            return outs[-1]

        monkeypatch.setattr(cls, "forward", kept_forward)
        if kind == "graph":
            data = graph_fixture(num_graphs=10)
            m = GraphClassifier.create(data.graphs[0].feature_width, data.num_classes, channels=8)
            evaluate_graph_model(m, data, np.arange(10), tiny_config(batch_size=4))
            batched = batch(data.graphs[:4])
            args = (batched.graph, batched.graph_id)
        else:
            data = node_fixture()
            m = NodeClassifier.create(data.graph.feature_width, data.num_classes, channels=8)
            evaluate_node_model(m, data, tiny_config())
            args = (data.graph,)
        assert len(outs) == (3 if kind == "graph" else 1)
        assert all(out.parents == () and out.vjp is None for out in outs)
        # The tape records again once the evaluation is over.
        taped = m.forward(m.params.as_vars(), *args)
        assert taped.parents and taped.vjp is not None

    def test_node_evaluation_peaks_under_half_a_taped_forward(self):
        # An evaluation that records the tape peaks at the taped forward's peak.
        task = gen_synthetic("sbm_node_task", {"nodes_per_block": 60}, seed=0)
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes, channels=32)
        config = tiny_config(channels=32)
        evaluate_node_model(m, task, config)  # builds the graph's cached operator
        taped = traced_peak(lambda: m.forward(m.params.as_vars(), task.graph))
        assert traced_peak(evaluate_node_model, m, task, config) < 0.5 * taped


class TestTrainingPeak:
    def test_a_node_epoch_peaks_under_0_9_of_one_that_keeps_the_pre_activations(
            self, monkeypatch):
        # relu links past its producer, so no step's tape keeps the output of
        # a convolution or of the head's first dense layer.
        task = gen_synthetic("sbm_node_task", {"blocks": 4, "nodes_per_block": 100,
                                               "p_in": 0.03, "p_out": 0.001}, seed=0)
        config = tiny_config(epochs=1, channels=32)
        train_node_model(task, config)  # builds the graph's cached operator
        peak = traced_peak(train_node_model, task, config)
        monkeypatch.setattr(models, "relu", linked_relu)
        assert peak < 0.9 * traced_peak(train_node_model, task, config)

    def test_a_graph_epoch_peaks_under_0_9_of_one_whose_walk_keeps_the_tape(
            self, monkeypatch):
        # backward drops each walked node's parents and pops it off the order,
        # so an activation the walk has passed is freed while the walk goes on.
        ds = gen_synthetic("path_proteinlike", {"num_graphs": 40}, seed=0)
        idx = np.arange(len(ds))
        config = tiny_config(epochs=1, channels=32, batch_size=16)
        args = (ds, idx[:32], idx[32:], config)
        train_graph_model(*args)  # builds the graphs' cached operators
        peak = traced_peak(train_graph_model, *args)
        monkeypatch.setattr(models, "backward", listed_backward)
        assert peak < 0.9 * traced_peak(train_graph_model, *args)


def param_bytes(model):
    return [(name, p.data.dtype.str, p.data.tobytes()) for name, p in model.params.items()]


class TestOneLoop:
    # One Adam loop trains both models exactly as their two former loops did,
    # with both dropout stages on.
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("pooling", [True, False])
    def test_graph_loop_matches_two_loop_oracle(self, seed, pooling):
        ds = graph_fixture(num_graphs=14, seed=seed)
        idx = np.arange(len(ds))
        cfg = TrainConfig(epochs=3, batch_size=5, channels=8, seed=seed)
        model, history = train_graph_model(ds, idx[:11], idx[11:], cfg, pooling=pooling)
        ref_model, ref_history = two_loop_train_graph_model(ds, idx[:11], idx[11:], cfg,
                                                            pooling=pooling)
        assert repr(history) == repr(ref_history)
        assert param_bytes(model) == param_bytes(ref_model)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("pooling", [True, False])
    @pytest.mark.parametrize("conv_kind", ["mean", "mlp"])
    def test_node_loop_matches_two_loop_oracle(self, seed, pooling, conv_kind):
        task = node_fixture(seed=seed)
        cfg = TrainConfig(epochs=3, channels=8, seed=seed)
        model, history = train_node_model(task, cfg, conv_kind=conv_kind, pooling=pooling)
        ref_model, ref_history = two_loop_train_node_model(task, cfg, conv_kind=conv_kind,
                                                           pooling=pooling)
        assert repr(history) == repr(ref_history)
        assert param_bytes(model) == param_bytes(ref_model)


class TestEmptySplits:
    @pytest.mark.parametrize("empty", ["train_idx", "eval_idx"])
    def test_graph_training_names_the_empty_set(self, empty):
        ds = graph_fixture(num_graphs=4)
        idx = {"train_idx": np.arange(4), "eval_idx": np.arange(4), empty: []}
        with pytest.raises(ValueError, match=f"^{empty} is empty$"):
            train_graph_model(ds, idx["train_idx"], idx["eval_idx"], tiny_config())

    def test_graph_evaluation_names_the_empty_set(self):
        ds = graph_fixture(num_graphs=4)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes, channels=8)
        with pytest.raises(ValueError, match="^indices is empty$"):
            evaluate_graph_model(m, ds, np.arange(0), tiny_config())

    @pytest.mark.parametrize("empty", ["train_mask", "test_mask"])
    def test_node_training_names_the_empty_set(self, empty):
        task = node_fixture()
        task = dataclasses.replace(task, **{empty: np.zeros_like(task.train_mask)})
        with pytest.raises(ValueError, match=f"^{empty} is empty$"):
            train_node_model(task, tiny_config())
        if empty == "test_mask":
            m = NodeClassifier.create(task.graph.feature_width, task.num_classes, channels=8)
            with pytest.raises(ValueError, match="^test_mask is empty$"):
                evaluate_node_model(m, task, tiny_config())


# (model kind, argument, bad value, or a function of the node task giving one)
BAD_SPLITS = [
    ("graph", "eval_idx", [-1]),
    ("graph", "eval_idx", [0.5]),
    ("graph", "eval_idx", [99]),
    ("graph", "train_idx", np.ones(6, dtype=bool)),
    ("graph", "train_idx", [[0, 1], [2, 3]]),
    ("graph", "indices", [6]),
    ("node", "test_mask", lambda task: task.test_mask.astype(np.int64)),
    ("node", "train_mask", lambda task: task.train_mask[:-5]),
    ("node", "test_mask", lambda task: np.ones(1, dtype=bool)),
    ("node", "node_labels", lambda task: task.node_labels[:-1]),
]


@pytest.mark.parametrize("kind, name, bad", BAD_SPLITS, ids=[
    "negative-index", "fractional-index", "index-past-end", "mask-as-indices", "nested-indices",
    "evaluated-index-past-end", "integer-mask", "short-train-mask", "one-entry-test-mask",
    "short-labels",
])
def test_trainers_reject_a_bad_split_naming_it(kind, name, bad):
    # Each split is checked before use: no index is wrapped, truncated or
    # read past the end, and a mask selects nodes, never positions.
    if kind == "graph":
        ds = graph_fixture(num_graphs=6)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes, channels=8)
        with pytest.raises(ValueError, match=f"^{name} "):
            if name == "indices":
                evaluate_graph_model(m, ds, bad, tiny_config())
            else:
                split = {"train_idx": np.arange(4), "eval_idx": np.arange(4, 6), name: bad}
                train_graph_model(ds, split["train_idx"], split["eval_idx"], tiny_config())
        return
    task = node_fixture()
    task = dataclasses.replace(task, **{name: bad(task)})
    with pytest.raises(ValueError, match=f"^{name} "):
        train_node_model(task, tiny_config())
    if name != "train_mask":
        m = NodeClassifier.create(task.graph.feature_width, task.num_classes, channels=8)
        with pytest.raises(ValueError, match=f"^{name} "):
            evaluate_node_model(m, task, tiny_config())


def _with_label(y, value, at=5):
    y = y.copy()
    y[at] = value
    return y


# (model kind, a function of the dataset's or task's labels giving bad ones)
BAD_LABELS = [
    ("graph", lambda y: y[:4]),
    ("graph", lambda y: y + 0.5),
    ("graph", lambda y: _with_label(y, -1)),
    ("graph", lambda y: _with_label(y, 7)),
    ("node", lambda y: y.astype(np.float64)),
    ("node", lambda y: y + 7),
]


@pytest.mark.parametrize("kind, bad", BAD_LABELS, ids=[
    "short-labels", "fractional-labels", "negative-eval-label", "eval-label-past-classes",
    "float-node-labels", "node-labels-past-classes",
])
def test_trainers_reject_bad_labels_naming_them(kind, bad):
    # One rule for both trainers and both evaluations: labels are a 1-D
    # integer array, one entry per graph (or node), each in [0, num_classes).
    # Nothing is cast, read past the end or scored against a missing class.
    cfg = tiny_config()
    if kind == "graph":
        ds = graph_fixture(num_graphs=6)
        ds = dataclasses.replace(ds, labels=bad(ds.labels))
        with pytest.raises(ValueError, match="^labels "):
            train_graph_model(ds, [0, 1, 2, 3], [4, 5], cfg)
        m = GraphClassifier.create(ds.graphs[0].feature_width, ds.num_classes, channels=8)
        with pytest.raises(ValueError, match="^labels "):
            evaluate_graph_model(m, ds, [4, 5], cfg)
        return
    task = gen_synthetic("sbm_node_task", {"nodes_per_block": 60})
    task = dataclasses.replace(task, node_labels=bad(task.node_labels))
    with pytest.raises(ValueError, match="^node_labels "):
        train_node_model(task, cfg)
    m = NodeClassifier.create(task.graph.feature_width, task.num_classes, channels=8)
    with pytest.raises(ValueError, match="^node_labels "):
        evaluate_node_model(m, task, cfg)


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


@pytest.mark.usefixtures("no_dropout")
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

    @pytest.mark.parametrize("kind, scale", [("node", 1e21), ("node", 1e300), ("graph", 1e300)],
                             ids=["node-square-overflows", "node-beyond-float32",
                                  "graph-beyond-float32"])
    def test_huge_features_stop_training_with_value_error(self, kind, scale):
        # Float64 features of 1e21 fit the models' float32, but on the node
        # model a gradient's float32 square in Adam does not; 1e300 overflows
        # the float32 input. The step check raises, with no overflow warning.
        def scaled(g):
            return g.with_node_features(g.node_features.astype(np.float64) * scale)

        cfg = tiny_config(epochs=3)
        with pytest.raises(ValueError, match="^non-finite (loss|gradient)"):
            if kind == "graph":
                ds = graph_fixture(num_graphs=16)
                ds = dataclasses.replace(ds, graphs=[scaled(g) for g in ds.graphs])
                train_graph_model(ds, np.arange(12), np.arange(12, 16), cfg, pooling=False)
            else:
                task = node_fixture()
                train_node_model(dataclasses.replace(task, graph=scaled(task.graph)), cfg,
                                 pooling=False)
