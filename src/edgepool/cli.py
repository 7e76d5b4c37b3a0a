"""Command-line entry points for pooling, training, checking, and benchmarks.

Every command honors ``--seed``, funnels randomness through labeled
generators, and writes a run manifest next to its artifacts so a run can
be reproduced from the recorded configuration alone. ``RunManifest`` is
each run's only writer: it names every artifact in the ``--out``
directory, making it with the first, and lists each under ``outputs`` in
``manifest.json``.
The two training commands declare their shared flags once, with
``TrainConfig``'s defaults.
Number flags are read by the TU files' rule (``data.integer`` and
``data.decimal``): ``1_0`` and non-ASCII digits are refused.

Exit codes: 0 success, 1 validation failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np
import scipy

from .autodiff import Var, _no_tape
from .data import _node_task, decimal, gen_synthetic, integer, kfold_splits, load_tu, node_split
from .fdcheck import CASE_GROUPS, run_gradcheck
from .graph import (
    Graph,
    _count,
    _graph_and_labels,
    _json_array,
    _real,
    _unique_edges,
    build_graph,
    graph_to_json,
    load_graph_file,
    symmetrize,
    to_dot,
)
from .layers import edge_pool
from .models import CONV_KINDS, _split, train_graph_model, train_node_model
from .params import TrainConfig, save_checkpoint
from .pool import PoolInfo, PoolParams, _check_widths, random_pool_params
from .rng import seeded_rng

__all__ = ["main", "entry_point", "RunManifest"]

HISTORY_HEADER = ["epoch", "lr", "train_loss", "eval_acc"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2


def _versions() -> dict:
    """The Python, numpy and scipy versions, on which a run's bytes depend."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


@dataclass
class RunManifest:
    """Everything needed to re-run a command deterministically, and the run's writer.

    ``output(name)`` is the path of one artifact in the output directory
    ``config["out"]``, listed under ``outputs``, so the manifest names every
    file the run wrote; the first one makes the directory, so a run refused
    before it writes anything leaves none. ``finish`` writes
    ``manifest.json`` beside the artifacts.
    """

    command: str
    config: dict
    seed: int
    dataset: str
    started: str = ""
    ended: str = ""
    outputs: list[str] = field(default_factory=list)
    versions: dict = field(default_factory=_versions)

    @classmethod
    def start(cls, args: argparse.Namespace, dataset: str) -> "RunManifest":
        """A manifest for the parsed command ``args``, started now."""
        config = {k: v for k, v in vars(args).items() if k != "func"}
        return cls(args.command, config, args.seed, dataset, started=_now())

    def output(self, name: str) -> str:
        """The path of artifact ``name`` in the output directory, now listed in
        ``outputs``; the first artifact makes the directory."""
        if not self.outputs:
            os.makedirs(self.config["out"], exist_ok=True)
        path = os.path.join(self.config["out"], name)
        self.outputs.append(path)
        return path

    def finish(self) -> None:
        """Stamp the end time and write ``manifest.json`` into the output directory."""
        self.ended = _now()
        with open(os.path.join(self.config["out"], "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _save_run(manifest: RunManifest, prefix: str, history: list[dict], config: dict,
              model) -> dict:
    """Write ``{prefix}history.csv`` and ``{prefix}checkpoint.json``; returns their names."""
    names = {"history": f"{prefix}history.csv", "checkpoint": f"{prefix}checkpoint.json"}
    with open(manifest.output(names["history"]), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        writer.writerows([repr(row[k]) for k in HISTORY_HEADER] for row in history)
    save_checkpoint(manifest.output(names["checkpoint"]), config, model.params)
    return names


def _save_summary(manifest: RunManifest, summary: dict) -> None:
    """Write a training run's ``summary.json``, then its manifest."""
    with open(manifest.output("summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    manifest.finish()


def _load_pool_input(args):
    if args.input is not None:
        graph, _, _ = load_graph_file(args.input)
        return graph, os.path.basename(args.input)
    directory, name = args.tu  # the parser requires one of --input and --tu
    dataset = load_tu(directory, name)
    if not 0 <= args.index < len(dataset):
        raise ValueError(f"--index {args.index} out of range for {name} ({len(dataset)} graphs)")
    return dataset.graphs[args.index], f"{name}[{args.index}]"


def _load_pool_params(args, graph: Graph) -> PoolParams:
    if args.params is not None:
        with open(args.params, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or "weight" not in obj or "bias" not in obj:
            raise ValueError("params file needs an object with 'weight' and 'bias' keys")
        weight = _json_array(obj["weight"], "params weight", 1)
        bias = float(_json_array(obj["bias"], "params bias", 0))
        params = PoolParams(weight=weight, bias=bias)
        _check_widths(graph, params)  # also when --levels 0 scores nothing
        _real("params weight and bias", np.append(weight, bias), (None,), finite=True)
        return params
    return random_pool_params(graph.feature_width, graph.edge_feature_width, seed=args.seed)


def _pool_level(graph: Graph, params: PoolParams) -> tuple[Graph, PoolInfo]:
    """One pooling level of ``graph`` by ``params`` through the tape op
    ``layers.edge_pool``, recording no tape: (pooled graph, info)."""
    with _no_tape():
        _, _, pooled, info, _ = edge_pool(Var(graph.node_features), Var(params.weight),
                                          Var(params.bias), graph)
    return pooled, info


def cmd_pool(args) -> int:
    _count("--levels", args.levels)
    graph, identity = _load_pool_input(args)
    params = _load_pool_params(args, graph)
    manifest = RunManifest.start(args, identity)
    # Each level is a graph and the info of its contraction by the same
    # scorer; the last level is not contracted again.
    levels = []
    for _ in range(args.levels):
        pooled, info = _pool_level(graph, params)
        levels.append((graph, info))
        graph = pooled
    levels.append((graph, None))

    hierarchy = [{"cluster_of": info.cluster_of.tolist(), "matching": info.matching.tolist(),
                  "node_score": info.node_score.tolist(), "graph": graph_to_json(pooled)}
                 for (_, info), (pooled, _) in zip(levels, levels[1:])]
    with open(manifest.output("hierarchy.json"), "w", encoding="utf-8") as fh:
        json.dump(hierarchy, fh)
    # One DOT per level, colored by its contraction's clusters.
    for depth, (g, info) in enumerate(levels):
        colors = None if info is None else info.cluster_of
        with open(manifest.output(f"level{depth}.dot"), "w", encoding="utf-8") as fh:
            fh.write(to_dot(g, colors, name=f"level{depth}"))

    manifest.finish()
    for depth, (g, _) in enumerate(levels):
        print(f"level {depth}: {g.num_nodes} nodes, {g.num_edges} directed edges")
    return EXIT_OK


def _config_from_args(args, **extra) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, channels=args.channels, seed=args.seed, **extra
    )


def cmd_train_graph(args) -> int:
    _count("--folds", args.folds, 2)
    directory, name = args.tu
    dataset = load_tu(directory, name)
    manifest = RunManifest.start(args, name)
    config = _config_from_args(args, batch_size=args.batch_size)
    pooling = args.pooling == "edgepool"
    folds = kfold_splits(len(dataset), k=args.folds, seed=args.seed)
    accuracies = []
    fold_entries = []
    for k, (train_idx, test_idx) in enumerate(folds):
        model, history = train_graph_model(
            dataset, train_idx, test_idx, config, pooling=pooling,
            progress=None if args.quiet else _print_row(f"fold {k}"),
        )
        files = _save_run(manifest, f"fold{k}_", history,
                          config.to_dict() | {"pooling": args.pooling}, model)
        acc = history[-1]["eval_acc"]
        accuracies.append(acc)
        fold_entries.append({"fold": k, "accuracy": acc} | files)
    summary = {
        "dataset": name,
        "pooling": args.pooling,
        "folds": fold_entries,
        "mean_acc": float(np.mean(accuracies)),
        "std_acc": float(np.std(accuracies)),
    }
    _save_summary(manifest, summary)
    print(f"mean_acc={summary['mean_acc']:.4f} std_acc={summary['std_acc']:.4f}")
    return EXIT_OK


def _print_row(prefix: str):
    def emit(row):
        print(f"{prefix} epoch {row['epoch']:>3} lr {row['lr']:.2e} "
              f"loss {row['train_loss']:.4f} acc {row['eval_acc']:.4f}")
    return emit


def _node_mask(obj: dict, key: str, num_nodes: int) -> np.ndarray:
    """Boolean mask of the node indices listed under ``key``, checked as the
    trainers check a split (``models._split``)."""
    nodes = _split(key, _json_array(obj[key], key, 1, integer=True, noun="a node index"),
                   num_nodes)
    mask = np.zeros(num_nodes, dtype=bool)
    mask[nodes] = True
    return mask


def _load_task(args):
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        graph, _, labels = _graph_and_labels(obj)
        if labels is None:
            raise ValueError("task JSON requires node_labels")
        identity = os.path.basename(args.input)
        given = [key for key in ("train_nodes", "test_nodes") if key in obj]
        if len(given) == 1:
            missing = "test_nodes" if given == ["train_nodes"] else "train_nodes"
            raise ValueError(f"task JSON has {given[0]} but no {missing}: give both or neither")
        if given:
            train_mask = _node_mask(obj, "train_nodes", graph.num_nodes)
            test_mask = _node_mask(obj, "test_nodes", graph.num_nodes)
            shared = np.flatnonzero(train_mask & test_mask)
            if shared.size:
                raise ValueError(f"train_nodes and test_nodes share node {shared[0]}: "
                                 "the splits must be disjoint")
            return _node_task(graph, labels, train_mask, test_mask), identity
        return node_split(graph, labels, seed=args.seed), identity
    # The parser requires one of --input and --synthetic, which allows "sbm" alone.
    return gen_synthetic("sbm_node_task", {}, seed=args.seed), "sbm"


def cmd_train_node(args) -> int:
    task, identity = _load_task(args)
    manifest = RunManifest.start(args, identity)
    config = _config_from_args(args)
    model, history = train_node_model(
        task, config, conv_kind=args.conv, pooling=args.pooling == "edgepool",
        progress=None if args.quiet else _print_row(identity),
    )
    _save_run(manifest, "", history,
              config.to_dict() | {"pooling": args.pooling, "conv": args.conv}, model)
    summary = {
        "dataset": identity,
        "pooling": args.pooling,
        "conv": args.conv,
        "accuracy": history[-1]["eval_acc"],
        "final_train_loss": history[-1]["train_loss"],
    }
    _save_summary(manifest, summary)
    print(f"accuracy={summary['accuracy']:.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cases = CASE_GROUPS[args.cases]
    results = run_gradcheck(seed=args.seed, cases=cases, corrupt=args.corrupt)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max_rel_err={r.max_rel_err:.3e} "
              f"max_abs_err={r.max_abs_err:.3e} ({r.num_entries} entries)"
              + (f" [{r.detail}]" if r.detail else ""))
        all_ok = all_ok and r.passed
    if args.out is not None:
        manifest = RunManifest.start(args, "synthetic")
        with open(manifest.output("gradcheck.json"), "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in results], fh, indent=2)
        manifest.finish()
    return EXIT_OK if all_ok else EXIT_VALIDATION


def _bench_graph(num_directed_edges: int, seed: int):
    """Random graph with roughly the requested directed edge count."""
    rng = seeded_rng(seed, "bench", num_directed_edges)
    target_undirected = max(2, num_directed_edges // 2)
    n = max(4, target_undirected // 3)
    u = rng.integers(0, n, size=int(target_undirected * 1.15))
    v = rng.integers(0, n, size=int(target_undirected * 1.15))
    keep = u != v
    lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    pairs = np.stack(_unique_edges(lo, hi, n), axis=1)[:target_undirected]
    features = rng.normal(0.0, 1.0, size=(n, 8)).astype(np.float32)
    return symmetrize(build_graph(n, pairs, features))


def _edge_count(text: str, flag: str) -> int:
    try:
        return int(_json_array(decimal(text), flag, 0, integer=True))
    except ValueError:  # not a number, or not a whole one
        raise ValueError(f"{flag} must be a whole finite number, got {text!r}") from None


def _bench_sizes(min_edges: int, max_edges: int) -> list[int]:
    _count("--min-edges", min_edges, 1)
    if min_edges > max_edges:
        raise ValueError("--min-edges must not exceed --max-edges")
    sizes = []
    current = float(min_edges)
    while current < max_edges * 0.999:
        sizes.append(int(round(current)))
        current *= 10**0.5
    sizes.append(max_edges)
    return sizes


def cmd_bench(args) -> int:
    sizes = _bench_sizes(_edge_count(args.min_edges, "--min-edges"),
                         _edge_count(args.max_edges, "--max-edges"))
    manifest = RunManifest.start(args, "synthetic")
    rows = []
    for size in sizes:
        graph = _bench_graph(size, args.seed)
        params = random_pool_params(graph.feature_width, seed=args.seed)
        _pool_level(graph, params)  # warm caches before timing
        t0 = time.perf_counter()
        _pool_level(graph, params)
        elapsed = time.perf_counter() - t0
        tracemalloc.start()
        _pool_level(graph, params)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append((graph.num_edges, elapsed, peak))
        print(f"edges={graph.num_edges} pool_time={elapsed:.4f}s peak_aux_memory={peak}")
    with open(manifest.output("bench.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edges", "pool_time", "peak_aux_memory"])
        writer.writerows(rows)
    if len(rows) >= 2:
        log_e = np.log([r[0] for r in rows])
        time_slope = float(np.polyfit(log_e, np.log([r[1] for r in rows]), 1)[0])
        mem_slope = float(np.polyfit(log_e, np.log([r[2] for r in rows]), 1)[0])
        print(f"runtime log-log slope: {time_slope:.3f}")
        print(f"memory log-log slope: {mem_slope:.3f}")
    manifest.finish()
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgepool",
        description="Edge-contraction graph pooling: experiments and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pool", help="pool a graph repeatedly and export the hierarchy")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="graph JSON file")
    source.add_argument("--tu", nargs=2, metavar=("DIR", "NAME"), help="benchmark dataset")
    p.add_argument("--index", type=integer, default=0, help="graph index within --tu")
    p.add_argument("--levels", type=integer, default=1)
    p.add_argument("--params", help="scorer params JSON file {weight, bias}")
    p.add_argument("--seed", type=integer, default=0,
                   help="seed for random scorer params when --params is absent")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pool)

    # The flags both training commands share, with TrainConfig's defaults.
    train = argparse.ArgumentParser(add_help=False)
    train.add_argument("--pooling", choices=["none", "edgepool"], default="edgepool")
    train.add_argument("--seed", type=integer, default=TrainConfig.seed)
    train.add_argument("--epochs", type=integer, default=TrainConfig.epochs)
    train.add_argument("--channels", type=integer, default=TrainConfig.channels)
    train.add_argument("--lr", type=decimal, default=TrainConfig.learning_rate)
    train.add_argument("--quiet", action="store_true")
    train.add_argument("--out", required=True)

    p = sub.add_parser("train-graph", parents=[train], help="k-fold graph classification")
    p.add_argument("--tu", nargs=2, metavar=("DIR", "NAME"), required=True)
    p.add_argument("--folds", type=integer, default=10)
    p.add_argument("--batch-size", type=integer, default=TrainConfig.batch_size, dest="batch_size")
    p.set_defaults(func=cmd_train_graph)

    p = sub.add_parser("train-node", parents=[train],
                       help="semi-supervised node classification")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="task JSON file (graph plus node_labels)")
    source.add_argument("--synthetic", choices=["sbm"], help="generate the task instead")
    p.add_argument("--conv", choices=CONV_KINDS, default=CONV_KINDS[0])
    p.set_defaults(func=cmd_train_node)

    p = sub.add_parser("gradcheck", help="finite-difference backward validation")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--cases", choices=sorted(CASE_GROUPS), default="all")
    p.add_argument("--corrupt", action="store_true",
                   help="deliberately corrupt one gradient (negative control)")
    p.add_argument("--out", help="optional directory for a JSON report")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="pooling runtime/memory scaling")
    p.add_argument("--min-edges", default="1e3", dest="min_edges")
    p.add_argument("--max-edges", default="1e6", dest="max_edges")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", default="bench_out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
