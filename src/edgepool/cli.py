"""Command-line entry points for pooling, training, checking, and benchmarks.

Every command honors ``--seed``, funnels randomness through labeled
generators, and writes a run manifest next to its artifacts so a run can
be reproduced from the recorded configuration alone.

Exit codes: 0 success, 1 validation failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from .data import NodeTask, gen_synthetic, kfold_splits, load_tu, node_split
from .fdcheck import CASE_NAMES, run_gradcheck
from .graph import (
    _sorted_unique,
    build_graph,
    graph_from_json,
    load_graph_file,
    symmetrize,
    to_dot,
)
from .models import train_graph_model, train_node_model
from .params import TrainConfig, save_checkpoint
from .pool import PoolParams, edgepool_forward, hierarchy_to_json, pool_hierarchy, random_pool_params
from .rng import seeded_rng

__all__ = ["main", "entry_point", "RunManifest"]

HISTORY_HEADER = ["epoch", "lr", "train_loss", "eval_acc"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2


@dataclass
class RunManifest:
    """Everything needed to re-run a command deterministically."""

    command: str
    config: dict
    seed: int
    dataset: str
    started: str = ""
    ended: str = ""
    outputs: list[str] = field(default_factory=list)

    def write(self, out_dir) -> str:
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
        return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_history(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        for row in rows:
            writer.writerow([row["epoch"], repr(row["lr"]),
                             repr(row["train_loss"]), repr(row["eval_acc"])])


def _manifest_for(args: argparse.Namespace, command: str, dataset: str) -> RunManifest:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return RunManifest(
        command=command,
        config=config,
        seed=getattr(args, "seed", 0),
        dataset=dataset,
        started=_now(),
    )


class InputError(Exception):
    """Problem with user-supplied files or arguments."""


def _load_pool_input(args):
    if args.input is not None:
        graph, _, _ = load_graph_file(args.input)
        return graph, os.path.basename(args.input)
    if args.tu is not None:
        directory, name = args.tu
        dataset = load_tu(directory, name)
        if not 0 <= args.index < len(dataset):
            raise InputError(
                f"--index {args.index} out of range for {name} ({len(dataset)} graphs)"
            )
        return dataset.graphs[args.index], f"{name}[{args.index}]"
    raise InputError("one of --input or --tu is required")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _load_pool_params(args, feature_width: int, edge_feature_width: int) -> PoolParams:
    if args.params is not None:
        with open(args.params, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or "weight" not in obj or "bias" not in obj:
            raise InputError("params file needs an object with 'weight' and 'bias' keys")
        if not isinstance(obj["weight"], list) or not all(map(_is_number, obj["weight"])):
            raise InputError("params weight must be a list of numbers")
        if not _is_number(obj["bias"]):
            raise InputError("params bias must be a number")
        expected = 2 * feature_width + edge_feature_width
        if len(obj["weight"]) != expected:
            raise InputError(
                f"params weight has length {len(obj['weight'])}, graph needs {expected}"
            )
        try:
            weight = np.asarray(obj["weight"], dtype=np.float64)
            bias = float(obj["bias"])
        except OverflowError:  # an integer beyond the float64 range
            raise InputError("params weight and bias must be finite") from None
        if not (np.isfinite(weight).all() and np.isfinite(bias)):
            raise InputError("params weight and bias must be finite")
        return PoolParams(weight=weight, bias=bias)
    return random_pool_params(feature_width, edge_feature_width, seed=args.seed)


def cmd_pool(args) -> int:
    if args.levels < 0:
        raise InputError(f"--levels must be non-negative, got {args.levels}")
    graph, identity = _load_pool_input(args)
    manifest = _manifest_for(args, "pool", identity)
    os.makedirs(args.out, exist_ok=True)
    params = _load_pool_params(args, graph.feature_width, graph.edge_feature_width)
    levels = pool_hierarchy(graph, params, args.levels)

    hierarchy_path = os.path.join(args.out, "hierarchy.json")
    with open(hierarchy_path, "w", encoding="utf-8") as fh:
        json.dump(hierarchy_to_json(levels), fh)
    manifest.outputs.append(hierarchy_path)

    # One DOT per level, colored by the next level's clusters; the last
    # level has no further contraction so it renders uncolored.
    graphs = [graph] + [pooled for pooled, _, _ in levels]
    infos = [info for _, info, _ in levels]
    for depth, g in enumerate(graphs):
        colors = infos[depth].cluster_of if depth < len(infos) else None
        dot_path = os.path.join(args.out, f"level{depth}.dot")
        with open(dot_path, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g, colors, name=f"level{depth}"))
        manifest.outputs.append(dot_path)

    manifest.ended = _now()
    manifest.write(args.out)
    for depth, g in enumerate(graphs):
        print(f"level {depth}: {g.num_nodes} nodes, {g.num_edges} directed edges")
    return EXIT_OK


def _config_from_args(args, **extra) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, channels=args.channels, seed=args.seed, **extra
    )


def cmd_train_graph(args) -> int:
    directory, name = args.tu
    dataset = load_tu(directory, name)
    manifest = _manifest_for(args, "train-graph", name)
    os.makedirs(args.out, exist_ok=True)
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
        history_path = os.path.join(args.out, f"fold{k}_history.csv")
        _write_history(history_path, history)
        ckpt_path = os.path.join(args.out, f"fold{k}_checkpoint.json")
        save_checkpoint(ckpt_path, config.to_dict() | {"pooling": args.pooling},
                        model.params)
        acc = history[-1]["eval_acc"]
        accuracies.append(acc)
        fold_entries.append({"fold": k, "accuracy": acc,
                             "history": os.path.basename(history_path),
                             "checkpoint": os.path.basename(ckpt_path)})
        manifest.outputs.extend([history_path, ckpt_path])
    summary = {
        "dataset": name,
        "pooling": args.pooling,
        "folds": fold_entries,
        "mean_acc": float(np.mean(accuracies)),
        "std_acc": float(np.std(accuracies)),
    }
    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    manifest.outputs.append(summary_path)
    manifest.ended = _now()
    manifest.write(args.out)
    print(f"mean_acc={summary['mean_acc']:.4f} std_acc={summary['std_acc']:.4f}")
    return EXIT_OK


def _print_row(prefix: str):
    def emit(row):
        print(f"{prefix} epoch {row['epoch']:>3} lr {row['lr']:.2e} "
              f"loss {row['train_loss']:.4f} acc {row['eval_acc']:.4f}")
    return emit


def _node_mask(obj: dict, key: str, num_nodes: int) -> np.ndarray:
    """Boolean mask of the node indices listed under ``key``; raises if invalid."""
    nodes = obj[key]
    if not isinstance(nodes, list) or not nodes:
        raise ValueError(f"{key} must be a non-empty list of node indices")
    for i in nodes:
        if not (isinstance(i, int) and not isinstance(i, bool) and 0 <= i < num_nodes):
            raise ValueError(f"{key} entry {i!r} is not a node index in [0, {num_nodes})")
    mask = np.zeros(num_nodes, dtype=bool)
    mask[nodes] = True
    return mask


def _is_label(x) -> bool:
    """An integral JSON number within int64 (``1`` and ``1.0`` both are)."""
    if isinstance(x, float):
        if not x.is_integer():  # also NaN and infinities
            return False
        x = int(x)
    return isinstance(x, int) and not isinstance(x, bool) and -(2**63) <= x < 2**63


def _load_task(args):
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if "node_labels" not in obj:
            raise InputError("task JSON requires node_labels")
        graph = graph_from_json(obj)
        raw_labels = obj["node_labels"]
        if not isinstance(raw_labels, list):
            raise InputError("node_labels must be a list of integer class labels")
        for x in raw_labels:
            if not _is_label(x):
                raise InputError(f"node_labels entry {x!r} is not an integer class label")
        labels = np.asarray(raw_labels, dtype=np.int64)
        if labels.shape != (graph.num_nodes,):
            raise ValueError(f"node_labels must hold one label per node ({graph.num_nodes})")
        identity = os.path.basename(args.input)
        given = [key for key in ("train_nodes", "test_nodes") if key in obj]
        if len(given) == 1:
            missing = "test_nodes" if given == ["train_nodes"] else "train_nodes"
            raise InputError(f"task JSON has {given[0]} but no {missing}: give both or neither")
        if given:
            classes = np.unique(labels)
            train_mask = _node_mask(obj, "train_nodes", graph.num_nodes)
            test_mask = _node_mask(obj, "test_nodes", graph.num_nodes)
            shared = np.flatnonzero(train_mask & test_mask)
            if shared.size:
                raise InputError(f"train_nodes and test_nodes share node {shared[0]}: "
                                 "the splits must be disjoint")
            task = NodeTask(
                graph=graph,
                node_labels=np.searchsorted(classes, labels).astype(np.int64),
                train_mask=train_mask,
                test_mask=test_mask,
                num_classes=len(classes),
                name=identity,
            )
            return task, identity
        return node_split(graph, labels, seed=args.seed, name=identity), identity
    if args.synthetic is not None:
        if args.synthetic != "sbm":
            raise InputError(f"unknown synthetic task {args.synthetic!r}")
        task = gen_synthetic("sbm_node_task", {}, seed=args.seed)
        return task, "sbm"
    raise InputError("one of --input or --synthetic is required")


def cmd_train_node(args) -> int:
    task, identity = _load_task(args)
    manifest = _manifest_for(args, "train-node", identity)
    os.makedirs(args.out, exist_ok=True)
    config = _config_from_args(args)
    model, history = train_node_model(
        task, config, conv_kind=args.conv, pooling=args.pooling == "edgepool",
        progress=None if args.quiet else _print_row(identity),
    )
    history_path = os.path.join(args.out, "history.csv")
    _write_history(history_path, history)
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    save_checkpoint(
        ckpt_path,
        config.to_dict() | {"pooling": args.pooling, "conv": args.conv},
        model.params,
    )
    summary = {
        "dataset": identity,
        "pooling": args.pooling,
        "conv": args.conv,
        "accuracy": history[-1]["eval_acc"],
        "final_train_loss": history[-1]["train_loss"],
    }
    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    manifest.outputs.extend([history_path, ckpt_path, summary_path])
    manifest.ended = _now()
    manifest.write(args.out)
    print(f"accuracy={summary['accuracy']:.4f}")
    return EXIT_OK


CASE_GROUPS = {
    "all": list(CASE_NAMES),
    "edgepool": ["edge_pool", "edge_pool_score_dropout"],
    "unpool": ["unpool", "unpool_adjoint"],
    "layers": ["dense", "mean_conv", "batch_norm", "batch_norm_one_row", "relu",
               "global_mean_pool", "cross_entropy"],
}


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
        os.makedirs(args.out, exist_ok=True)
        manifest = _manifest_for(args, "gradcheck", "synthetic")
        report_path = os.path.join(args.out, "gradcheck.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in results], fh, indent=2)
        manifest.outputs.append(report_path)
        manifest.ended = _now()
        manifest.write(args.out)
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
    key = _sorted_unique(lo * np.int64(n) + hi)[:target_undirected]
    pairs = np.stack([key // n, key % n], axis=1)
    features = rng.normal(0.0, 1.0, size=(n, 8)).astype(np.float32)
    return symmetrize(build_graph(n, pairs, features))


def _edge_count(text: str, flag: str) -> int:
    try:
        return int(float(text))
    except (ValueError, OverflowError):  # not a number, NaN, or infinite
        raise InputError(f"{flag} must be a finite number, got {text!r}") from None


def _bench_sizes(min_edges: int, max_edges: int) -> list[int]:
    if min_edges < 1:
        raise InputError("--min-edges must be at least 1")
    if min_edges > max_edges:
        raise InputError("--min-edges must not exceed --max-edges")
    sizes = []
    current = float(min_edges)
    while current < max_edges * 0.999:
        sizes.append(int(round(current)))
        current *= 10**0.5
    sizes.append(int(max_edges))
    return sizes


def cmd_bench(args) -> int:
    sizes = _bench_sizes(_edge_count(args.min_edges, "--min-edges"),
                         _edge_count(args.max_edges, "--max-edges"))
    os.makedirs(args.out, exist_ok=True)
    manifest = _manifest_for(args, "bench", "synthetic")
    rows = []
    for size in sizes:
        graph = _bench_graph(size, args.seed)
        params = random_pool_params(graph.feature_width, seed=args.seed)
        edgepool_forward(graph, params)  # warm caches before timing
        t0 = time.perf_counter()
        edgepool_forward(graph, params)
        elapsed = time.perf_counter() - t0
        tracemalloc.start()
        edgepool_forward(graph, params)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append((graph.num_edges, elapsed, peak))
        print(f"edges={graph.num_edges} pool_time={elapsed:.4f}s peak_aux_memory={peak}")
    csv_path = os.path.join(args.out, "bench.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edges", "pool_time", "peak_aux_memory"])
        writer.writerows(rows)
    manifest.outputs.append(csv_path)
    if len(rows) >= 2:
        log_e = np.log([r[0] for r in rows])
        time_slope = float(np.polyfit(log_e, np.log([r[1] for r in rows]), 1)[0])
        mem_slope = float(np.polyfit(log_e, np.log([r[2] for r in rows]), 1)[0])
        print(f"runtime log-log slope: {time_slope:.3f}")
        print(f"memory log-log slope: {mem_slope:.3f}")
    manifest.ended = _now()
    manifest.write(args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgepool",
        description="Edge-contraction graph pooling: experiments and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pool", help="pool a graph repeatedly and export the hierarchy")
    p.add_argument("--input", help="graph JSON file")
    p.add_argument("--tu", nargs=2, metavar=("DIR", "NAME"), help="benchmark dataset")
    p.add_argument("--index", type=int, default=0, help="graph index within --tu")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--params", help="scorer params JSON file {weight, bias}")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for random scorer params when --params is absent")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("train-graph", help="k-fold graph classification")
    p.add_argument("--tu", nargs=2, metavar=("DIR", "NAME"), required=True)
    p.add_argument("--pooling", choices=["none", "edgepool"], default="edgepool")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--batch-size", type=int, default=128, dest="batch_size")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_graph)

    p = sub.add_parser("train-node", help="semi-supervised node classification")
    p.add_argument("--input", help="task JSON file (graph plus node_labels)")
    p.add_argument("--synthetic", choices=["sbm"], help="generate the task instead")
    p.add_argument("--pooling", choices=["none", "edgepool"], default="edgepool")
    p.add_argument("--conv", choices=["mean", "mlp"], default="mean")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_node)

    p = sub.add_parser("gradcheck", help="finite-difference backward validation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", choices=sorted(CASE_GROUPS), default="all")
    p.add_argument("--corrupt", action="store_true",
                   help="deliberately corrupt one gradient (negative control)")
    p.add_argument("--out", help="optional directory for a JSON report")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="pooling runtime/memory scaling")
    p.add_argument("--min-edges", default="1e3", dest="min_edges")
    p.add_argument("--max-edges", default="1e6", dest="max_edges")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench_out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
