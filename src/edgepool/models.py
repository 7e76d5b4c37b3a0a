"""Reference models and training loops built on the tape ops.

Two architectures:

* ``GraphClassifier``: three mean-aggregation blocks, each optionally
  ending in edge contraction, with a per-block mean readout of the
  block's final (pooled) node set and a two-layer classification head on
  the concatenated readouts.
* ``NodeClassifier``: a seven-layer encoder/decoder for per-node labels,
  pooling after layers 2 and 4 and unpooling in reverse order with
  shortcut concatenation, in the style of a graph U-net.

Both training loops run Adam with a stepped learning-rate schedule and
record one history row per epoch. Before each Adam step they check that
the loss and every gradient are finite, and raise ``ValueError`` naming
the epoch and batch otherwise, so a diverged run stops where it diverged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Var, backward
from .data import GraphDataset, NodeTask
from .graph import Graph, batch
from .layers import (
    batch_norm,
    concat_cols,
    cross_entropy,
    dense,
    edge_pool,
    feature_dropout,
    gather_rows,
    global_mean_pool,
    mean_conv,
    relu,
    unpool,
)
from .params import ParamStore, TrainConfig, adam_step, glorot_uniform, lr_at_epoch
from .pool import PoolInfo
from .rng import draw_seed, seeded_rng

__all__ = [
    "GraphClassifier",
    "NodeClassifier",
    "train_graph_model",
    "train_node_model",
    "evaluate_graph_model",
    "evaluate_node_model",
]

CONV_KINDS = ("mean", "mlp")


def _pooled_graph_id(graph_id: np.ndarray, info: PoolInfo) -> np.ndarray:
    """Graph membership survives contraction: both endpoints share a graph."""
    out = np.zeros(info.pooled_num_nodes, dtype=np.int64)
    out[info.cluster_of] = graph_id
    return out


def _add_conv(store: ParamStore, name: str, fan_in: int, fan_out: int, rng, kind: str):
    store.add(f"{name}.w_self", glorot_uniform((fan_in, fan_out), rng))
    if kind == "mean":
        store.add(f"{name}.w_neigh", glorot_uniform((fan_in, fan_out), rng))
    store.add(f"{name}.bias", np.zeros(fan_out, dtype=np.float32))


def _add_pool(store: ParamStore, name: str, width: int, rng):
    store.add(f"{name}.weight", glorot_uniform((2 * width,), rng).astype(np.float64))
    store.add(f"{name}.bias", np.zeros((), dtype=np.float64))


def _conv(leaves, name: str, graph: Graph, x: Var, kind: str) -> Var:
    if kind == "mean":
        return mean_conv(graph, x, leaves[f"{name}.w_self"], leaves[f"{name}.w_neigh"],
                         leaves[f"{name}.bias"])
    return dense(x, leaves[f"{name}.w_self"], leaves[f"{name}.bias"])


@dataclass
class GraphClassifier:
    """Whole-graph classifier with a readout after each block's pooling step.

    Each block runs aggregation, batch norm and activation, then pools when
    ``pooling`` is set; its mean readout reads the pooled node set. The
    configured ``dropout_p`` applies to the fully-connected head only;
    ``edge_score_dropout_p`` drops edges from each pooling step in
    training.
    """

    feature_width: int
    channels: int
    num_classes: int
    pooling: bool
    params: ParamStore

    @classmethod
    def create(
        cls,
        feature_width: int,
        num_classes: int,
        channels: int = 64,
        pooling: bool = True,
        seed: int = 0,
    ) -> "GraphClassifier":
        rng = seeded_rng(seed, "graph-model-init")
        store = ParamStore()
        widths = [feature_width, channels, channels]
        for i in range(3):
            _add_conv(store, f"block{i + 1}.conv", widths[i], channels, rng, "mean")
            store.add(f"block{i + 1}.bn.gamma", np.ones(channels, dtype=np.float32))
            store.add(f"block{i + 1}.bn.beta", np.zeros(channels, dtype=np.float32))
            if pooling:
                _add_pool(store, f"block{i + 1}.pool", channels, rng)
        store.add("head.fc1.weight", glorot_uniform((3 * channels, channels), rng))
        store.add("head.fc1.bias", np.zeros(channels, dtype=np.float32))
        store.add("head.fc2.weight", glorot_uniform((channels, num_classes), rng))
        store.add("head.fc2.bias", np.zeros(num_classes, dtype=np.float32))
        return cls(feature_width, channels, num_classes, pooling, store)

    def forward(
        self,
        leaves: dict[str, Var],
        graph: Graph,
        graph_id: np.ndarray,
        num_graphs: int,
        config: TrainConfig,
        training: bool = False,
        seed: int = 0,
        trace: list | None = None,
    ) -> Var:
        """Logits for every graph in the batch, shape (num_graphs, classes).

        When ``trace`` is a list, each pooling level's info is appended to
        it, exposing the contraction structure to callers.
        """
        rng = seeded_rng(seed, "graph-forward")
        graph = _without_edge_features(graph)
        x = Var(graph.node_features.astype(np.float32))
        readouts = []
        for i in range(3):
            name = f"block{i + 1}"
            x = _conv(leaves, f"{name}.conv", graph, x, "mean")
            x = batch_norm(x, leaves[f"{name}.bn.gamma"], leaves[f"{name}.bn.beta"])
            x = relu(x)
            if self.pooling:
                x, _, graph, info, _ = edge_pool(
                    x,
                    leaves[f"{name}.pool.weight"],
                    leaves[f"{name}.pool.bias"],
                    graph,
                    training=training,
                    dropout_p=config.edge_score_dropout_p,
                    seed=draw_seed(rng),
                )
                graph_id = _pooled_graph_id(graph_id, info)
                if trace is not None:
                    trace.append(info)
            # Readout reads the block's final (pooled) node set.
            readouts.append(global_mean_pool(x, graph_id, num_graphs))
        h = concat_cols(concat_cols(readouts[0], readouts[1]), readouts[2])
        h = relu(dense(h, leaves["head.fc1.weight"], leaves["head.fc1.bias"]))
        h = feature_dropout(h, config.dropout_p, rng, training)
        return dense(h, leaves["head.fc2.weight"], leaves["head.fc2.bias"])


@dataclass
class NodeClassifier:
    """Per-node classifier: encoder, two pooling levels, mirrored unpooling."""

    feature_width: int
    channels: int
    num_classes: int
    conv_kind: str
    pooling: bool
    params: ParamStore

    @classmethod
    def create(
        cls,
        feature_width: int,
        num_classes: int,
        channels: int = 64,
        conv_kind: str = "mean",
        pooling: bool = True,
        seed: int = 0,
    ) -> "NodeClassifier":
        if conv_kind not in CONV_KINDS:
            raise ValueError(f"conv_kind must be one of {CONV_KINDS}, got {conv_kind!r}")
        rng = seeded_rng(seed, "node-model-init")
        store = ParamStore()
        c = channels
        in_widths = [feature_width, c, c, c, c, 2 * c, c]
        for i, width in enumerate(in_widths):
            _add_conv(store, f"conv{i + 1}", width, c, rng, conv_kind)
        if pooling:
            _add_pool(store, "pool1", c, rng)
            _add_pool(store, "pool2", c, rng)
        store.add("head.fc1.weight", glorot_uniform((2 * c, c), rng))
        store.add("head.fc1.bias", np.zeros(c, dtype=np.float32))
        store.add("head.fc2.weight", glorot_uniform((c, num_classes), rng))
        store.add("head.fc2.bias", np.zeros(num_classes, dtype=np.float32))
        return cls(feature_width, channels, num_classes, conv_kind, pooling, store)

    def forward(
        self,
        leaves: dict[str, Var],
        graph: Graph,
        config: TrainConfig,
        training: bool = False,
        seed: int = 0,
        trace: list | None = None,
    ) -> Var:
        """Per-node logits, shape (num_nodes, classes)."""
        rng = seeded_rng(seed, "node-forward")
        kind = self.conv_kind
        graph = _without_edge_features(graph)

        x = Var(graph.node_features.astype(np.float32))
        x = relu(_conv(leaves, "conv1", graph, x, kind))
        x = relu(_conv(leaves, "conv2", graph, x, kind))
        shortcut1 = x
        g1, info1, score1 = graph, None, None
        if self.pooling:
            x, score1, g1, info1, _ = edge_pool(
                x, leaves["pool1.weight"], leaves["pool1.bias"], graph,
                training=training, dropout_p=config.edge_score_dropout_p,
                seed=draw_seed(rng),
            )
            if trace is not None:
                trace.append(info1)
        x = relu(_conv(leaves, "conv3", g1, x, kind))
        x = relu(_conv(leaves, "conv4", g1, x, kind))
        shortcut2 = x
        g2, info2, score2 = g1, None, None
        if self.pooling:
            x, score2, g2, info2, _ = edge_pool(
                x, leaves["pool2.weight"], leaves["pool2.bias"], g1,
                training=training, dropout_p=config.edge_score_dropout_p,
                seed=draw_seed(rng),
            )
            if trace is not None:
                trace.append(info2)
        x = relu(_conv(leaves, "conv5", g2, x, kind))
        if self.pooling:
            x = unpool(x, score2, info2)
        x = concat_cols(x, shortcut2)
        x = relu(_conv(leaves, "conv6", g1, x, kind))
        x = relu(_conv(leaves, "conv7", g1, x, kind))
        if self.pooling:
            x = unpool(x, score1, info1)
        x = concat_cols(x, shortcut1)
        h = relu(dense(x, leaves["head.fc1.weight"], leaves["head.fc1.bias"]))
        h = feature_dropout(h, config.dropout_p, rng, training)
        return dense(h, leaves["head.fc2.weight"], leaves["head.fc2.bias"])


def _without_edge_features(graph: Graph) -> Graph:
    """The graph the models convolve and pool: neither reads edge features,
    so the scorers are 2c wide and score by node features alone."""
    return graph if graph.edge_features is None else replace(graph, edge_features=None)


def _check_step(loss: Var, leaves: dict[str, Var], epoch: int, batch_index: int) -> None:
    """Raise ValueError unless the loss, each gradient and its square (Adam's) are finite."""
    where = f"at epoch {epoch}, batch {batch_index}"
    if not np.isfinite(loss.data).all():
        raise ValueError(f"non-finite loss {where}")
    for name, leaf in leaves.items():
        if leaf.grad is not None and not np.isfinite(np.square(leaf.grad)).all():
            raise ValueError(f"non-finite gradient of {name} {where}")


def _batches(indices: np.ndarray, batch_size: int):
    for start in range(0, len(indices), batch_size):
        yield indices[start : start + batch_size]


def evaluate_graph_model(
    model: GraphClassifier, dataset: GraphDataset, indices: np.ndarray, config: TrainConfig
) -> float:
    """Accuracy over the indexed graphs with training behaviors off."""
    leaves = model.params.as_vars()
    correct = 0
    for chunk in _batches(np.asarray(indices, dtype=np.int64), config.batch_size):
        batched = batch([dataset.graphs[i] for i in chunk])
        logits = model.forward(
            leaves, batched.graph, batched.graph_id, batched.num_graphs, config
        )
        pred = logits.data.argmax(axis=1)
        correct += int((pred == dataset.labels[chunk]).sum())
    return correct / len(indices)


@np.errstate(over="ignore", invalid="ignore")  # _check_step rejects what overflows
def train_graph_model(
    dataset: GraphDataset,
    train_idx: np.ndarray,
    eval_idx: np.ndarray,
    config: TrainConfig,
    pooling: bool = True,
    progress=None,
) -> tuple[GraphClassifier, list[dict]]:
    """Adam training of the graph classifier; returns (model, history).

    One history row per epoch: epoch, lr, mean train loss, eval accuracy.
    ``progress`` receives each row as it is produced. Raises ValueError
    naming the epoch and batch when the loss or a gradient is non-finite.
    """
    model = GraphClassifier.create(
        dataset.graphs[0].feature_width,
        dataset.num_classes,
        channels=config.channels,
        pooling=pooling,
        seed=config.seed,
    )
    train_idx = np.asarray(train_idx, dtype=np.int64)
    eval_idx = np.asarray(eval_idx, dtype=np.int64)
    history = []
    step = 0
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        epoch_rng = seeded_rng(config.seed, "graph-epoch", epoch)
        perm = train_idx[epoch_rng.permutation(len(train_idx))]
        total_loss, total_examples = 0.0, 0
        for batch_index, chunk in enumerate(_batches(perm, config.batch_size)):
            batched = batch([dataset.graphs[i] for i in chunk])
            leaves = model.params.as_vars()
            logits = model.forward(
                leaves,
                batched.graph,
                batched.graph_id,
                batched.num_graphs,
                config,
                training=True,
                seed=draw_seed(epoch_rng),
            )
            loss = cross_entropy(logits, dataset.labels[chunk])
            backward(loss)
            _check_step(loss, leaves, epoch, batch_index)
            step += 1
            adam_step(model.params, leaves, lr, step)
            total_loss += float(loss.data) * len(chunk)
            total_examples += len(chunk)
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": total_loss / max(total_examples, 1),
            "eval_acc": evaluate_graph_model(model, dataset, eval_idx, config),
        }
        history.append(row)
        if progress is not None:
            progress(row)
    return model, history


def evaluate_node_model(model: NodeClassifier, task: NodeTask, config: TrainConfig) -> float:
    """Accuracy over the task's test nodes with training behaviors off."""
    leaves = model.params.as_vars()
    logits = model.forward(leaves, task.graph, config)
    pred = logits.data.argmax(axis=1)
    mask = task.test_mask
    return float((pred[mask] == task.node_labels[mask]).mean())


@np.errstate(over="ignore", invalid="ignore")  # _check_step rejects what overflows
def train_node_model(
    task: NodeTask,
    config: TrainConfig,
    conv_kind: str = "mean",
    pooling: bool = True,
    progress=None,
) -> tuple[NodeClassifier, list[dict]]:
    """Full-batch Adam training on the labeled train nodes of one graph.

    Raises ValueError naming the epoch (batch 0) when the loss or a
    gradient is non-finite.
    """
    model = NodeClassifier.create(
        task.graph.feature_width,
        task.num_classes,
        channels=config.channels,
        conv_kind=conv_kind,
        pooling=pooling,
        seed=config.seed,
    )
    train_nodes = np.flatnonzero(task.train_mask)
    history = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        epoch_rng = seeded_rng(config.seed, "node-epoch", epoch)
        leaves = model.params.as_vars()
        logits = model.forward(
            leaves, task.graph, config, training=True, seed=draw_seed(epoch_rng)
        )
        loss = cross_entropy(gather_rows(logits, train_nodes), task.node_labels[train_nodes])
        backward(loss)
        _check_step(loss, leaves, epoch, 0)
        adam_step(model.params, leaves, lr, epoch + 1)
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(loss.data),
            "eval_acc": evaluate_node_model(model, task, config),
        }
        history.append(row)
        if progress is not None:
            progress(row)
    return model, history
