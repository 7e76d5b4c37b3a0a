"""Reference models and the one training loop they share, built on the tape ops.

Two architectures:

* ``GraphClassifier``: three mean-aggregation blocks, each optionally
  ending in edge contraction, with a per-block mean readout of the
  block's final (pooled) node set and a two-layer classification head on
  the concatenated readouts.
* ``NodeClassifier``: a seven-layer encoder/decoder for per-node labels,
  pooling after layers 2 and 4 and unpooling in reverse order with
  shortcut concatenation, in the style of a graph U-net.

A model is its parameters: a level pools (and, in ``NodeClassifier``,
unpools) exactly when the store holds its scorer, and a layer aggregates
neighbors exactly when the store holds its ``w_neigh``; ``create`` chooses
what to build. Both share one pooling step and one head, which get their
dropout rates in training and 0.0 in evaluation. One Adam loop trains both,
with a stepped learning-rate schedule and one history row per epoch. Before
each Adam step it checks that the loss and every gradient are finite, and
raises ``ValueError`` naming the epoch and batch otherwise, so a diverged
run stops where it diverged. Before training or evaluating, each split is
checked (``_split``, which the task JSON reader also uses): it is not empty,
node masks are boolean with one entry per node (``graph._mask``), and graph
indices are integer codes in ``[0, len(dataset))``. The labels are integer codes with one
entry per graph (or node), each in ``[0, num_classes)``. Indices and labels
pass the one rule of integer codes, ``graph._codes``, which the loss, the
readout, ``build_graph``, ``contract`` and ``node_split`` use too. A bad or
empty split, or a bad label, raises ``ValueError`` naming the argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Var, _no_tape, backward
from .data import GraphDataset, NodeTask
from .graph import Graph, _codes, _count, _mask, batch
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

CONV_KINDS = ("mean", "mlp")  # the first is the default
HEAD_DROPOUT_P = 0.5
EDGE_SCORE_DROPOUT_P = 0.2


def _pooled_graph_id(graph_id: np.ndarray, info: PoolInfo | None) -> np.ndarray:
    """Graph membership survives contraction: both endpoints share a graph."""
    if info is None:  # a level that did not pool
        return graph_id
    return np.take(graph_id, info.first_member)


def _add_conv(store: ParamStore, name: str, fan_in: int, fan_out: int, rng, kind: str):
    store.add(f"{name}.w_self", glorot_uniform((fan_in, fan_out), rng))
    if kind == "mean":
        store.add(f"{name}.w_neigh", glorot_uniform((fan_in, fan_out), rng))
    store.add(f"{name}.bias", np.zeros(fan_out, dtype=np.float32))


def _add_pool(store: ParamStore, name: str, width: int, rng):
    store.add(f"{name}.weight", glorot_uniform((2 * width,), rng).astype(np.float64))
    store.add(f"{name}.bias", np.zeros((), dtype=np.float64))


def _add_head(store: ParamStore, fan_in: int, width: int, num_classes: int, rng):
    store.add("head.fc1.weight", glorot_uniform((fan_in, width), rng))
    store.add("head.fc1.bias", np.zeros(width, dtype=np.float32))
    store.add("head.fc2.weight", glorot_uniform((width, num_classes), rng))
    store.add("head.fc2.bias", np.zeros(num_classes, dtype=np.float32))


def _conv(leaves, name: str, graph: Graph, x: Var) -> Var:
    """Mean aggregation when the store holds ``{name}.w_neigh``, else a dense layer."""
    if f"{name}.w_neigh" in leaves:
        return mean_conv(graph, x, leaves[f"{name}.w_self"], leaves[f"{name}.w_neigh"],
                         leaves[f"{name}.bias"])
    return dense(x, leaves[f"{name}.w_self"], leaves[f"{name}.bias"])


def _pool(leaves, name: str, x: Var, graph: Graph, rng, training: bool, trace):
    """One edge-contraction level scored by ``name``; appends its info to ``trace``.

    Returns (pooled activations, per-pair gate Var, pooled graph, info). A
    store without ``{name}.weight`` does not pool here: the level comes back
    unchanged, with no score or info, and nothing is drawn from ``rng``.
    """
    if f"{name}.weight" not in leaves:
        return x, None, graph, None
    x, score, graph, info, _ = edge_pool(
        x, leaves[f"{name}.weight"], leaves[f"{name}.bias"], graph,
        dropout_p=EDGE_SCORE_DROPOUT_P if training else 0.0, seed=draw_seed(rng),
    )
    if trace is not None:
        trace.append(info)
    return x, score, graph, info


def _unpool(x: Var, score: Var | None, info: PoolInfo | None) -> Var:
    return x if info is None else unpool(x, score, info)


def _head(leaves, h: Var, rng, training: bool) -> Var:
    h = relu(dense(h, leaves["head.fc1.weight"], leaves["head.fc1.bias"]))
    h = feature_dropout(h, HEAD_DROPOUT_P if training else 0.0, rng)
    return dense(h, leaves["head.fc2.weight"], leaves["head.fc2.bias"])


@dataclass
class GraphClassifier:
    """Whole-graph classifier with a readout after each block's pooling step.

    The model is its parameters. Each block runs aggregation, batch norm and
    activation, then pools when ``params`` holds the block's scorer; its mean
    readout reads the pooled node set. In training, feature dropout
    ``HEAD_DROPOUT_P`` applies to the fully-connected head only, and each
    pooling step drops edges with probability ``EDGE_SCORE_DROPOUT_P``.
    """

    params: ParamStore

    @classmethod
    def create(
        cls,
        feature_width: int,
        num_classes: int,
        channels: int = TrainConfig.channels,
        pooling: bool = True,
        seed: int = 0,
    ) -> "GraphClassifier":
        feature_width = _count("feature_width", feature_width)
        num_classes, channels = _count("num_classes", num_classes, 1), _count("channels", channels, 1)
        rng = seeded_rng(seed, "graph-model-init")
        store = ParamStore()
        widths = [feature_width, channels, channels]
        for i in range(3):
            _add_conv(store, f"block{i + 1}.conv", widths[i], channels, rng, "mean")
            store.add(f"block{i + 1}.bn.gamma", np.ones(channels, dtype=np.float32))
            store.add(f"block{i + 1}.bn.beta", np.zeros(channels, dtype=np.float32))
            if pooling:
                _add_pool(store, f"block{i + 1}.pool", channels, rng)
        _add_head(store, 3 * channels, channels, num_classes, rng)
        return cls(store)

    def forward(
        self,
        leaves: dict[str, Var],
        graph: Graph,
        graph_id: np.ndarray,
        training: bool = False,
        seed: int = 0,
        trace: list | None = None,
    ) -> Var:
        """Logits for every graph in the batch, one row per graph id.

        When ``trace`` is a list, each pooling level's info is appended to
        it, exposing the contraction structure to callers.
        """
        rng = seeded_rng(seed, "graph-forward")
        x = Var(graph.node_features.astype(np.float32))
        readouts = []
        for i in range(3):
            name = f"block{i + 1}"
            x = _conv(leaves, f"{name}.conv", graph, x)
            x = batch_norm(x, leaves[f"{name}.bn.gamma"], leaves[f"{name}.bn.beta"])
            x = relu(x)
            x, _, graph, info = _pool(leaves, f"{name}.pool", x, graph, rng, training, trace)
            graph_id = _pooled_graph_id(graph_id, info)
            # Readout reads the block's final (pooled) node set.
            readouts.append(global_mean_pool(x, graph_id))
        h = concat_cols(concat_cols(readouts[0], readouts[1]), readouts[2])
        return _head(leaves, h, rng, training)


@dataclass
class NodeClassifier:
    """Per-node classifier: encoder, two pooling levels, mirrored unpooling.

    The model is its parameters: a layer aggregates when ``params`` holds its
    ``w_neigh``, and a level pools and unpools when it holds its scorer.
    """

    params: ParamStore

    @classmethod
    def create(
        cls,
        feature_width: int,
        num_classes: int,
        channels: int = TrainConfig.channels,
        conv_kind: str = CONV_KINDS[0],
        pooling: bool = True,
        seed: int = 0,
    ) -> "NodeClassifier":
        if conv_kind not in CONV_KINDS:
            raise ValueError(f"conv_kind must be one of {CONV_KINDS}, got {conv_kind!r}")
        feature_width = _count("feature_width", feature_width)
        num_classes, channels = _count("num_classes", num_classes, 1), _count("channels", channels, 1)
        rng = seeded_rng(seed, "node-model-init")
        store = ParamStore()
        c = channels
        in_widths = [feature_width, c, c, c, c, 2 * c, c]
        for i, width in enumerate(in_widths):
            _add_conv(store, f"conv{i + 1}", width, c, rng, conv_kind)
        if pooling:
            _add_pool(store, "pool1", c, rng)
            _add_pool(store, "pool2", c, rng)
        _add_head(store, 2 * c, c, num_classes, rng)
        return cls(store)

    def forward(
        self,
        leaves: dict[str, Var],
        graph: Graph,
        training: bool = False,
        seed: int = 0,
        trace: list | None = None,
    ) -> Var:
        """Per-node logits, shape (num_nodes, classes)."""
        rng = seeded_rng(seed, "node-forward")

        x = Var(graph.node_features.astype(np.float32))
        x = relu(_conv(leaves, "conv1", graph, x))
        x = relu(_conv(leaves, "conv2", graph, x))
        shortcut1 = x
        x, score1, g1, info1 = _pool(leaves, "pool1", x, graph, rng, training, trace)
        x = relu(_conv(leaves, "conv3", g1, x))
        x = relu(_conv(leaves, "conv4", g1, x))
        shortcut2 = x
        x, score2, g2, info2 = _pool(leaves, "pool2", x, g1, rng, training, trace)
        x = relu(_conv(leaves, "conv5", g2, x))
        x = concat_cols(_unpool(x, score2, info2), shortcut2)
        x = relu(_conv(leaves, "conv6", g1, x))
        x = relu(_conv(leaves, "conv7", g1, x))
        x = concat_cols(_unpool(x, score1, info1), shortcut1)
        return _head(leaves, x, rng, training)


def _check_step(loss: Var, leaves: dict[str, Var], epoch: int, batch_index: int) -> None:
    """Raise ValueError unless the loss, each gradient and its square (Adam's) are finite."""
    where = f"at epoch {epoch}, batch {batch_index}"
    if not np.isfinite(loss.data).all():
        raise ValueError(f"non-finite loss {where}")
    for name, leaf in leaves.items():
        if leaf.grad is not None and not np.isfinite(np.square(leaf.grad)).all():
            raise ValueError(f"non-finite gradient of {name} {where}")


def _split(name: str, values, size: int, mask: bool = False) -> np.ndarray:
    """The non-empty split ``values`` of ``size`` items, as int64 indices.

    A ``mask`` is a boolean mask with one entry per node (``graph._mask``);
    otherwise ``values`` are integer codes in ``[0, size)`` (``graph._codes``).
    Raises ValueError naming the argument at fault.
    """
    values = np.flatnonzero(_mask(name, values, size, "node")) if mask else np.asarray(values)
    if values.size == 0:
        raise ValueError(f"{name} is empty")
    return _codes(name, values, (None,), size)


@np.errstate(over="ignore", invalid="ignore")  # _check_step rejects what overflows
def _fit(model, config: TrainConfig, stream: str, batches, batch_loss, evaluate, progress):
    """Adam training of ``model``; returns (model, history).

    Epoch ``e`` draws from ``seeded_rng(config.seed, stream, e)``: first
    what ``batches(epoch_rng)`` draws, then one forward seed per batch.
    ``batches`` yields (batch, weight) pairs; a history row holds the
    weighted mean of ``batch_loss(leaves, batch, seed)`` and ``evaluate(model)``.
    Each step's loss, leaves and batch are dropped once Adam has stepped, so
    no step's tape (which ``backward`` consumed) lives into the next forward
    or into ``evaluate``; only the model's parameters carry over.
    """
    history = []
    step = 0
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        epoch_rng = seeded_rng(config.seed, stream, epoch)
        total_loss, total_weight = 0.0, 0
        for batch_index, (item, weight) in enumerate(batches(epoch_rng)):
            leaves = model.params.as_vars()
            loss = batch_loss(leaves, item, draw_seed(epoch_rng))
            backward(loss)
            _check_step(loss, leaves, epoch, batch_index)
            step += 1
            adam_step(model.params, leaves, lr, step)
            total_loss += float(loss.data) * weight
            total_weight += weight
            del loss, leaves, item  # the step's tape, gradients and batch
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": total_loss / total_weight,
            "eval_acc": evaluate(model),
        }
        history.append(row)
        if progress is not None:
            progress(row)
    return model, history


def _batches(indices: np.ndarray, batch_size: int):
    for start in range(0, len(indices), batch_size):
        yield indices[start : start + batch_size]


def evaluate_graph_model(
    model: GraphClassifier, dataset: GraphDataset, indices: np.ndarray, config: TrainConfig
) -> float:
    """Accuracy over the indexed graphs (at least one) with training behaviors
    off and no tape recorded."""
    indices = _split("indices", indices, len(dataset))
    _codes("labels", dataset.labels, (len(dataset),), dataset.num_classes, item="graph")
    leaves = model.params.as_vars()
    correct = 0
    for chunk in _batches(indices, config.batch_size):
        batched = batch([dataset.graphs[i] for i in chunk])
        with _no_tape():
            pred = model.forward(leaves, batched.graph, batched.graph_id).data.argmax(axis=1)
        correct += int((pred == dataset.labels[chunk]).sum())
    return correct / len(indices)


def train_graph_model(
    dataset: GraphDataset,
    train_idx: np.ndarray,
    eval_idx: np.ndarray,
    config: TrainConfig,
    pooling: bool = True,
    progress=None,
) -> tuple[GraphClassifier, list[dict]]:
    """Adam training of the graph classifier; returns (model, history).

    One history row per epoch: epoch, lr, mean train loss per graph, eval
    accuracy. ``progress`` receives each row as it is produced. Raises
    ValueError when ``train_idx`` or ``eval_idx`` is empty or holds anything
    but graph indices, when ``dataset.labels`` is not one integer class in
    ``[0, num_classes)`` per graph, and naming the epoch and batch when the
    loss or a gradient is non-finite.
    """
    train_idx = _split("train_idx", train_idx, len(dataset))
    eval_idx = _split("eval_idx", eval_idx, len(dataset))
    _codes("labels", dataset.labels, (len(dataset),), dataset.num_classes, item="graph")
    model = GraphClassifier.create(dataset.graphs[0].feature_width, dataset.num_classes,
                                   channels=config.channels, pooling=pooling, seed=config.seed)

    def batches(epoch_rng):
        perm = train_idx[epoch_rng.permutation(len(train_idx))]
        for chunk in _batches(perm, config.batch_size):
            yield (batch([dataset.graphs[i] for i in chunk]), chunk), len(chunk)

    def batch_loss(leaves, item, seed):
        batched, chunk = item
        logits = model.forward(leaves, batched.graph, batched.graph_id, training=True, seed=seed)
        return cross_entropy(logits, dataset.labels[chunk])

    return _fit(model, config, "graph-epoch", batches, batch_loss,
                lambda m: evaluate_graph_model(m, dataset, eval_idx, config), progress)


def evaluate_node_model(model: NodeClassifier, task: NodeTask, config: TrainConfig) -> float:
    """Accuracy over the task's test nodes (at least one) with training behaviors
    off and no tape recorded.

    ``config`` is unused: full-batch evaluation has no batch size.
    """
    n = task.graph.num_nodes
    nodes = _split("test_mask", task.test_mask, n, mask=True)
    _codes("node_labels", task.node_labels, (n,), task.num_classes, item="node")
    with _no_tape():
        pred = model.forward(model.params.as_vars(), task.graph).data.argmax(axis=1)
    return float((pred[nodes] == task.node_labels[nodes]).mean())


def train_node_model(
    task: NodeTask,
    config: TrainConfig,
    conv_kind: str = CONV_KINDS[0],
    pooling: bool = True,
    progress=None,
) -> tuple[NodeClassifier, list[dict]]:
    """Full-batch Adam training on the labeled train nodes of one graph.

    Each epoch is one batch (0) of weight 1, so ``train_loss`` is that
    step's loss. Raises ValueError when the task has no train or no test
    nodes, a mask is not boolean with one entry per node, or
    ``node_labels`` is not one integer class in ``[0, num_classes)`` per
    node; and naming the epoch when the loss or a gradient is non-finite.
    """
    n = task.graph.num_nodes
    train_nodes = _split("train_mask", task.train_mask, n, mask=True)
    _split("test_mask", task.test_mask, n, mask=True)
    _codes("node_labels", task.node_labels, (n,), task.num_classes, item="node")
    model = NodeClassifier.create(task.graph.feature_width, task.num_classes,
                                  channels=config.channels, conv_kind=conv_kind,
                                  pooling=pooling, seed=config.seed)

    def batch_loss(leaves, nodes, seed):
        logits = model.forward(leaves, task.graph, training=True, seed=seed)
        return cross_entropy(gather_rows(logits, nodes), task.node_labels[nodes])

    return _fit(model, config, "node-epoch", lambda epoch_rng: [(train_nodes, 1)], batch_loss,
                lambda m: evaluate_node_model(m, task, config), progress)
