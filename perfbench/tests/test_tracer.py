"""Span bookkeeping and patching of the benchmark's tracer."""

import sys

import numpy as np
import pytest

import edgepool
from edgepool import GraphDataset, NodeTask, TrainConfig, build_graph, symmetrize
from tracer import Span, Tracer, self_times
from workloads import layer_values


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent)


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 5.0, 0),
        _span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def _tiny_dataset():
    rng = np.random.default_rng(0)
    graphs = []
    for n in (5, 6, 7, 8, 6, 5):
        edges = [(i, i + 1) for i in range(n - 1)]
        graphs.append(symmetrize(build_graph(n, edges, rng.normal(size=(n, 3)))))
    return GraphDataset(graphs, np.array([0, 1, 0, 1, 0, 1]), 2, "tiny")


def _tiny_task():
    rng = np.random.default_rng(1)
    n = 24
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, 12), (5, 20)]
    graph = symmetrize(build_graph(n, edges, rng.normal(size=(n, 3)).astype(np.float32)))
    labels = np.arange(n) % 2
    train = np.arange(n) < 12
    return NodeTask(graph, labels, train, ~train, 2)


def test_install_wraps_every_binding_and_uninstall_restores():
    models = sys.modules["edgepool.models"]
    layers = sys.modules["edgepool.layers"]
    unpool_mod = sys.modules["edgepool.unpool"]
    originals = (models.mean_conv, layers._unpool_adjoint, edgepool.edgepool_forward)
    tracer = Tracer()
    tracer.install()
    try:
        assert models.mean_conv is not originals[0]
        assert models.mean_conv._bench_span == "layers.mean_conv"
        assert layers._unpool_adjoint._bench_span == "unpool.unpool_backward"
        assert unpool_mod.unpool_backward is layers._unpool_adjoint
        assert edgepool.edgepool_forward._bench_span == "pool.edgepool_forward"
    finally:
        tracer.uninstall()
    assert (models.mean_conv, layers._unpool_adjoint, edgepool.edgepool_forward) == originals


def test_traced_graph_training_records_nested_spans():
    config = TrainConfig(epochs=1, batch_size=3, channels=8, seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        edgepool.models.train_graph_model(_tiny_dataset(), np.arange(6), np.arange(6), config)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    for expected in ("layers.mean_conv", "layers.mean_conv.vjp", "layers.edge_pool.vjp",
                     "pool.select_contractions", "pool.contract", "graph.build_graph",
                     "graph.batch", "autodiff.backward", "params.adam_step",
                     "pool.score_path_backward", "models.evaluate_graph_model"):
        assert expected in names
    spans = tracer.spans
    for i, span in enumerate(spans):
        if span.name == "pool.select_contractions":
            assert spans[span.parent].name == "pool.edgepool_forward"
        if span.name == "layers.mean_conv.vjp":
            assert spans[span.parent].name == "autodiff.backward"
        if span.parent >= 0:
            assert spans[span.parent].start <= span.start <= span.end <= spans[span.parent].end
    assert all(t >= -1e-9 for t in self_times(spans))
    assert tracer.vars_created > 0

    values, _ = layer_values(tracer, [(0, 0, len(spans), tracer.vars_created)])
    assert values["pool.calls"] == 3 * 4  # three levels, two train and two eval batches
    assert values["graph.batch.calls"] == 4
    assert 0.0 < values["pool.reduction"] < 1.0
    assert values["pool.matched_frac"] == pytest.approx(2 * (1 - values["pool.reduction"]))
    assert values["autodiff.vars"] > 0


def test_traced_node_training_reaches_unpool_adjoint():
    config = TrainConfig(epochs=1, channels=8, seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        edgepool.models.train_node_model(_tiny_task(), config)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    adjoints = [s for s in spans if s.name == "unpool.unpool_backward"]
    assert len(adjoints) == 2
    assert all(spans[s.parent].name == "layers.unpool.vjp" for s in adjoints)
    assert any(s.name == "layers.gather_rows.vjp" for s in spans)
