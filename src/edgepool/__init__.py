"""Sparse graph coarsening by learned edge contraction.

The package provides the pooling operator (scoring, normalization,
greedy contraction, exact backward), its inverse unpooling, a small
tape-based autodiff stack with the layers needed for the reference
models, dataset utilities, and a CLI for experiments and validation.

The top level exports exactly README's Library surface; everything else
is reached through its submodule (``edgepool.pool.contract``,
``edgepool.graph.Graph``, ...).
"""

from .autodiff import Var, backward
from .data import (
    GraphDataset,
    NodeTask,
    gen_synthetic,
    kfold_splits,
    load_tu,
    node_split,
    save_tu,
)
from .fdcheck import run_gradcheck
from .graph import batch, build_graph, symmetrize
from .layers import batch_norm, cross_entropy, dense, edge_pool, mean_conv, relu, unpool
from .models import GraphClassifier, NodeClassifier, train_graph_model, train_node_model
from .params import TrainConfig
from .pool import (
    EdgeScores,
    PoolParams,
    edgepool_forward,
    random_pool_params,
    select_contractions,
)
from .unpool import unpool_backward, unpool_once

__version__ = "0.1.0"

__all__ = [
    "build_graph",
    "symmetrize",
    "batch",
    "PoolParams",
    "edgepool_forward",
    "unpool_once",
    "unpool_backward",
    "Var",
    "backward",
    "dense",
    "mean_conv",
    "batch_norm",
    "relu",
    "edge_pool",
    "unpool",
    "cross_entropy",
    "GraphClassifier",
    "NodeClassifier",
    "train_graph_model",
    "train_node_model",
    "load_tu",
    "save_tu",
    "kfold_splits",
    "node_split",
    "gen_synthetic",
    "run_gradcheck",
    "EdgeScores",
    "select_contractions",
    "random_pool_params",
    "TrainConfig",
    "GraphDataset",
    "NodeTask",
    "__version__",
]
