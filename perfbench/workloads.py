"""The benchmark workloads and the measurements taken on them.

Every workload runs in three steps: set-up (input generation and model
creation, timed), one untimed pass under ``tracemalloc`` for peak memory,
which also warms caches, then timed units of work until the run's time is
used up. The package is called only through its public functions,
looked up on their modules at call time so that a traced run sees them.

With tracing on, units of work (epochs, or pooling levels) alternate
between traced and untraced; per-layer numbers come from the traced units
and the tracing overhead from comparing the two kinds.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict

import numpy as np

import checks
import inputs
from speed import Meter
from tracer import Tracer, self_times

MAX_EPOCHS = 100_000
MIN_SAMPLES = 3


def _mod(short: str):
    return sys.modules[f"edgepool.{short}"]


class _StopTraining(Exception):
    """Raised from the progress callback once the training phase has run long enough."""


class Ledger:
    """Operations attempted and failed in one run, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, what: str, fn, *args, **kwargs):
        """Run one operation of the program; a raise counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.errors.append(f"{what} raised:\n{traceback.format_exc()}")
            return None

    def check(self, what: str, errors: list[str]) -> None:
        """Count one output check; any error message makes it a failure."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)


@dataclasses.dataclass
class PoolCase:
    """One pooling input, with the fixed gradients fed to the two adjoints.

    ``pool_grad`` has a row per input node; backward takes its first
    (pooled node count) rows, a view, so no input is made while timing.
    """

    graph: object
    params: object
    pool_grad: np.ndarray
    unpool_grad: np.ndarray
    matching: np.ndarray | None = None


def _pool_case(graph, rng) -> PoolCase:
    pool = _mod("pool")
    params = pool.random_pool_params(graph.feature_width, seed=int(rng.integers(2**31)))
    shape, dtype = graph.node_features.shape, graph.node_features.dtype
    return PoolCase(
        graph, params, rng.normal(size=shape).astype(dtype), rng.normal(size=shape).astype(dtype)
    )


def _with_channels(graph, channels: int, rng):
    feats = rng.normal(size=(graph.num_nodes, channels)).astype(np.float32)
    return graph.with_node_features(feats)


# --------------------------------------------------------------------------
# workloads


class GraphTrain:
    """GraphClassifier with edgepool on 1000 small path-like graphs."""

    name = "graph_train"
    # Mean train loss of epoch 5 over seeds 0-29 spanned 0.053-0.125; the
    # first epoch's spanned 0.37-0.90, so a model that stops learning fails.
    band_epoch, band = 5, (0.01, 0.3)

    def __init__(self, seed: int):
        rng = inputs.workload_rng(seed, self.name)
        self.dataset = inputs.proteinlike_dataset(rng)
        n = len(self.dataset)
        self.train_idx = np.sort(rng.permutation(n)[: n * 9 // 10])
        self.eval_idx = np.arange(n)
        self.config = _mod("params").TrainConfig(
            epochs=MAX_EPOCHS, batch_size=128, channels=64, seed=int(rng.integers(2**31))
        )
        self.steps_per_epoch = math.ceil(len(self.train_idx) / self.config.batch_size)
        self.model = _mod("models").GraphClassifier.create(
            self.dataset.graphs[0].feature_width,
            self.dataset.num_classes,
            channels=self.config.channels,
            seed=self.config.seed,
        )
        batch = _mod("graph").batch
        graphs = self.dataset.graphs
        self.pool_cases = [
            _pool_case(_with_channels(batch(graphs[i : i + 128]).graph, 64, rng), rng)
            for i in range(0, n, 128)
        ]

    def train(self, config, progress):
        _mod("models").train_graph_model(
            self.dataset, self.train_idx, self.eval_idx, config, progress=progress
        )

    def evaluate(self):
        return _mod("models").evaluate_graph_model(
            self.model, self.dataset, self.eval_idx, self.config
        )


class NodeTrain:
    """NodeClassifier (two pool and two unpool levels) on one SBM graph."""

    name = "node_train"
    # Train loss of epoch 5 over seeds 0-29 spanned 1.15-1.42 (chance is
    # ln 4 = 1.39); the first epoch's spanned 1.50-3.21, so this band mainly
    # catches a loss that diverges or goes non-finite.
    band_epoch, band = 5, (0.8, 1.7)

    def __init__(self, seed: int):
        rng = inputs.workload_rng(seed, self.name)
        self.task = inputs.sbm_task(rng)
        self.config = _mod("params").TrainConfig(
            epochs=MAX_EPOCHS, channels=64, seed=int(rng.integers(2**31))
        )
        self.steps_per_epoch = 1
        self.model = _mod("models").NodeClassifier.create(
            self.task.graph.feature_width,
            self.task.num_classes,
            channels=self.config.channels,
            seed=self.config.seed,
        )
        self.pool_cases = [_pool_case(_with_channels(self.task.graph, 64, rng), rng)]

    def train(self, config, progress):
        _mod("models").train_node_model(self.task, config, progress=progress)

    def evaluate(self):
        return _mod("models").evaluate_node_model(self.model, self.task, self.config)


class Pool1e6:
    """One pooling level on a random graph with 1e6 directed edges, f=8."""

    name = "pool_1e6"

    def __init__(self, seed: int):
        rng = inputs.workload_rng(seed, self.name)
        self.pool_cases = [_pool_case(inputs.random_symmetric_graph(rng, 1_000_000), rng)]


WORKLOADS = {w.name: w for w in (GraphTrain, NodeTrain, Pool1e6)}


# --------------------------------------------------------------------------
# phases


def pool_sweep(cases: list[PoolCase], ledger: Ledger, seed: int, check: bool = True,
               meter: Meter | None = None):
    """Forward, unpool, backward and unpool adjoint on every case, timed apart.

    With ``check``, the first sweep over a case checks its outputs exactly
    and later sweeps check that the matching repeats. With a ``meter``,
    each operation is also scaled to the reference host speed. Returns the
    summed wall times and the summed scaled times per operation (the wall
    times again without a meter), or None when forward raised.
    """
    pool, unpool = _mod("pool"), _mod("unpool")
    raw = dict.fromkeys(("fwd", "unpool", "bwd", "adjoint"), 0.0)
    scaled = dict(raw)

    def timed(key, what, fn, *args):
        t0 = time.perf_counter()
        out = ledger.call(what, fn, *args)
        seconds = time.perf_counter() - t0
        raw[key] += seconds
        if meter is None:
            scaled[key] += seconds
        else:
            meter.accumulate(scaled, key, seconds)
        return out

    for case in cases:
        out = timed("fwd", "edgepool_forward", pool.edgepool_forward, case.graph, case.params)
        if out is None:
            return None
        pooled, info, scores = out
        timed("unpool", "unpool_once", unpool.unpool_once, pooled.node_features, info)
        grads = timed(
            "bwd", "edgepool_backward", pool.edgepool_backward,
            case.graph, case.params, info, scores, case.pool_grad[: pooled.num_nodes],
        )
        timed("adjoint", "unpool_backward", unpool.unpool_backward, case.unpool_grad, info)

        if not check:
            continue
        if case.matching is None:
            case.matching = info.matching
            ledger.check("greedy matching", checks.greedy_matching_errors(
                case.graph, scores, info.matching))
            ledger.check("pooled size", checks.pooled_size_errors(case.graph, pooled, info))
            ledger.check("unpool adjoint", checks.unpool_adjoint_errors(
                info, unpool.unpool_once, unpool.unpool_backward,
                inputs.workload_rng(seed, "adjoint-probe")))
            if grads is not None:
                ledger.check("pool backward", checks.backward_errors(case.graph, grads))
        else:
            same = np.array_equal(case.matching, info.matching)
            ledger.check("repeatable matching", [] if same else ["matching changed"])
    if meter is not None:
        meter.settle()
    return raw, scaled


def train_phase(work, ledger: Ledger, deadline: float, tracer=None, between_epochs=None):
    """Train until ``deadline`` (and at least past the loss-band epoch).

    Epoch boundaries come from the progress callback, which runs
    ``between_epochs(epoch, seconds)`` outside the epoch's timed interval.
    With a tracer, odd epochs are traced; ``windows`` lists (first span,
    Vars created before it, end span, Vars created by its end) per traced
    epoch.
    Returns (history rows, epoch durations, windows).
    """
    rows, durations, windows = [], [], []
    starts = [time.perf_counter()]
    min_epochs = max(work.band_epoch + 1, 2 * MIN_SAMPLES + 1)

    def progress(row):
        now = time.perf_counter()
        durations.append(now - starts[-1])
        rows.append(row)
        if tracer is not None:
            if tracer.installed:
                tracer.uninstall()
                windows[-1] += (len(tracer.spans), tracer.vars_created)
            else:
                windows.append((len(tracer.spans), tracer.vars_created))
                tracer.install()
        if between_epochs is not None:
            between_epochs(len(durations) - 1, durations[-1])
        if time.perf_counter() >= deadline and len(rows) >= min_epochs:
            raise _StopTraining
        starts.append(time.perf_counter())

    try:
        work.train(work.config, progress)
    except _StopTraining:
        pass
    except Exception:
        ledger.attempted += 1
        ledger.failed += 1
        ledger.errors.append(f"training raised:\n{traceback.format_exc()}")
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
            windows.pop()
    ledger.attempted += len(rows) * (work.steps_per_epoch + 1)
    ledger.check("training history", checks.history_errors(rows, work.band_epoch, work.band))
    return rows, durations, windows


def peak_memory_mb(work, ledger: Ledger, seed: int) -> float:
    """tracemalloc peak of one extra epoch, or of one pooling level."""
    tracemalloc.start()
    try:
        if hasattr(work, "train"):
            config = dataclasses.replace(work.config, epochs=1)
            ledger.call("memory epoch", work.train, config, None)
            ledger.attempted += work.steps_per_epoch
        else:
            pool_sweep(work.pool_cases, ledger, seed, check=False)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# --------------------------------------------------------------------------
# runs


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """End-to-end run. Returns samples per metric, peak memory and the ledger.

    Between consecutive units of work (training epochs, or pooling levels)
    the run repeats the set-up and, for training, times one eval pass and
    one pooling sweep, so every metric samples the whole run alike. Every
    timed unit is bracketed by host speed probes (see ``speed.py``);
    ``samples`` holds the scaled times and ``raw`` the wall times.
    """
    cls = WORKLOADS[name]
    ledger = Ledger()
    meter = Meter()

    meter.mark()
    work = meter.time("setup_s", cls, seed)
    peak = peak_memory_mb(work, ledger, seed)

    def sweep():
        out = pool_sweep(work.pool_cases, ledger, seed, meter=meter)
        if out is None:
            return None
        for times, record in zip(out, (meter.raw, meter.scaled)):
            record["pool_fwd_s"].append(times["fwd"])
            record["pool_bwd_s"].append(times["bwd"])
            if not hasattr(work, "train"):
                record["epoch_s"].append(sum(times.values()))
                record["eval_pass_s"].append(times["fwd"] + times["unpool"])
        return out

    def between_epochs(epoch, seconds):
        if epoch == 0:  # epoch 0 also creates the model: not a sample
            meter.mark()
        else:
            meter.add("epoch_s", seconds)
        acc = meter.time("eval_pass_s", ledger.call, "eval pass", work.evaluate)
        if acc is not None:
            ledger.check("eval accuracy", [] if 0 <= acc <= 1 else [f"accuracy {acc!r}"])
        sweep()
        meter.time("setup_s", cls, seed)

    deadline = time.perf_counter() + seconds
    meter.mark()
    if hasattr(work, "train"):
        train_phase(work, ledger, deadline, between_epochs=between_epochs)
    else:
        while time.perf_counter() < deadline or len(meter.raw["pool_fwd_s"]) < MIN_SAMPLES:
            if sweep() is None:
                break
            meter.time("setup_s", cls, seed)
    samples = {key: meter.scaled[key] for key in
               ("setup_s", "epoch_s", "eval_pass_s", "pool_fwd_s", "pool_bwd_s")}
    raw = {key: meter.raw[key] for key in samples}
    return {"samples": samples, "raw": raw, "probes": meter.probes,
            "peak_mem_mb": peak, "ledger": ledger}


PER_LAYER_SELF = {
    "layers.mean_conv.fwd_s": "layers.mean_conv",
    "layers.mean_conv.vjp_s": "layers.mean_conv.vjp",
    "layers.global_mean_pool.fwd_s": "layers.global_mean_pool",
    "layers.global_mean_pool.vjp_s": "layers.global_mean_pool.vjp",
    "layers.batch_norm.fwd_s": "layers.batch_norm",
    "layers.batch_norm.vjp_s": "layers.batch_norm.vjp",
    "layers.dense.fwd_s": "layers.dense",
    "layers.dense.vjp_s": "layers.dense.vjp",
    "layers.relu.fwd_s": "layers.relu",
    "layers.relu.vjp_s": "layers.relu.vjp",
    "layers.edge_pool.fwd_s": "layers.edge_pool",
    "layers.edge_pool.vjp_s": "layers.edge_pool.vjp",
    "layers.unpool.fwd_s": "layers.unpool",
    "layers.unpool.vjp_s": "layers.unpool.vjp",
    "layers.gather_rows.vjp_s": "layers.gather_rows.vjp",
    "pool.raw_scores.s": "pool.raw_scores",
    "pool.normalize_scores.s": "pool.normalize_scores",
    "pool.select_contractions.s": "pool.select_contractions",
    "pool.contract.s": "pool.contract",
    "pool.edgepool_forward.s": "pool.edgepool_forward",
    "pool.edgepool_backward.s": "pool.edgepool_backward",
    "pool.score_path_backward.s": "pool.score_path_backward",
    "graph.build_graph.s": "graph.build_graph",
    "graph.batch.s": "graph.batch",
    "unpool.unpool_once.s": "unpool.unpool_once",
    "unpool.unpool_backward.s": "unpool.unpool_backward",
    "autodiff.backward.self_s": "autodiff.backward",
    "params.adam_step.s": "params.adam_step",
}
PER_LAYER_CALLS = {
    "pool.calls": "pool.edgepool_forward",
    "graph.build_graph.calls": "graph.build_graph",
    "graph.batch.calls": "graph.batch",
}
PER_LAYER_OTHER = {
    "graph.build_graph.edges": "count",
    "autodiff.vars": "count",
    "pool.matched_frac": "ratio",
    "pool.reduction": "ratio",
    "pool.edge_keep_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
PER_LAYER_UNITS = {
    **dict.fromkeys(PER_LAYER_SELF, "s"),
    **dict.fromkeys(PER_LAYER_CALLS, "count"),
    **PER_LAYER_OTHER,
}


# Spans of one pooling level's forward and backward, children included.
POOL_STAGE_SPANS = (
    "pool.edgepool_forward", "pool.raw_scores", "pool.apply_score_dropout",
    "pool.normalize_scores", "pool.select_contractions", "pool.contract",
    "graph.build_graph", "pool.edgepool_backward", "pool.score_path_backward",
)


def layer_values(tracer: Tracer, windows) -> tuple[dict, dict]:
    """Per-layer values from the traced units.

    Self times, call counts, built edges and Vars per training step are
    medians over the units; the pooling ratios pool every call of every
    unit. Also returns the median self time per span name.
    """
    spans = tracer.spans
    self_s = self_times(spans)
    per_unit = defaultdict(list)
    by_name = defaultdict(list)
    pool_sums = defaultdict(int)
    for first, vars0, end, vars1 in windows:
        self_sum, calls = defaultdict(float), defaultdict(int)
        edges = eval_vars = 0
        for i in range(first, end):
            span = spans[i]
            self_sum[span.name] += self_s[i]
            calls[span.name] += 1
            if span.name == "graph.build_graph" and span.attrs:
                edges += span.attrs["edges"]
            elif span.name == "pool.edgepool_forward" and span.attrs:
                for key, value in span.attrs.items():
                    pool_sums[key] += value
            elif span.name.startswith("models.evaluate_"):
                eval_vars += span.vars_at_end - span.vars_at_start
        for metric, span_name in PER_LAYER_SELF.items():
            per_unit[metric].append(self_sum.get(span_name, 0.0))
        for metric, span_name in PER_LAYER_CALLS.items():
            per_unit[metric].append(calls.get(span_name, 0))
        per_unit["graph.build_graph.edges"].append(edges)
        steps = calls.get("autodiff.backward", 0)
        per_unit["autodiff.vars"].append((vars1 - vars0 - eval_vars) / steps if steps else 0)
        for name, value in self_sum.items():
            by_name[name].append(value)
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update((metric, statistics.median(v)) for metric, v in per_unit.items())
    nodes_in, edges_in = pool_sums["nodes_in"], pool_sums["edges_in"]
    values["pool.matched_frac"] = 2 * pool_sums["matched"] / nodes_in if nodes_in else 0.0
    values["pool.reduction"] = pool_sums["nodes_out"] / nodes_in if nodes_in else 0.0
    values["pool.edge_keep_frac"] = pool_sums["edges_out"] / edges_in if edges_in else 0.0
    return values, {name: statistics.median(v) for name, v in by_name.items()}


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """Per-layer run: traced and untraced units alternate for ``seconds``."""
    ledger = Ledger()
    work = WORKLOADS[name](seed)
    tracer = Tracer()
    t_start = time.perf_counter()
    plain_pool = []
    if hasattr(work, "train"):
        _, durations, windows = train_phase(work, ledger, t_start + seconds, tracer)
        traced = durations[1::2][: len(windows)]
        plain = durations[2::2]
    else:
        pool_sweep(work.pool_cases, ledger, seed)  # warm-up, and the exact checks
        traced, plain, plain_pool, windows = [], [], [], []
        while (time.perf_counter() < t_start + seconds
               or min(len(traced), len(plain)) < MIN_SAMPLES):
            t0 = time.perf_counter()
            sweep = pool_sweep(work.pool_cases, ledger, seed)
            plain.append(time.perf_counter() - t0)
            if sweep is None:
                break
            plain_pool.append(sweep[0]["fwd"] + sweep[0]["bwd"])
            windows.append((len(tracer.spans), tracer.vars_created))
            tracer.install()
            t0 = time.perf_counter()
            try:
                sweep = pool_sweep(work.pool_cases, ledger, seed)
            finally:
                tracer.uninstall()
                windows[-1] += (len(tracer.spans), tracer.vars_created)
            traced.append(time.perf_counter() - t0)
            if sweep is None:
                break
    values, by_name = layer_values(tracer, windows)
    traced_s = statistics.median(traced) if traced else math.nan
    plain_s = statistics.median(plain) if plain else math.nan
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0 if traced and plain else 0.0
    return {
        "values": values,
        "by_name": by_name,
        "traced_unit_s": traced_s,
        "plain_unit_s": plain_s,
        "plain_pool_s": statistics.median(plain_pool) if plain_pool else None,
        "units": len(windows),
        "ledger": ledger,
    }
