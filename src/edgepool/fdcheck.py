"""Finite-difference validation of every hand-written backward pass.

Each registered case builds a small randomized problem, computes analytic
gradients through the tape, then compares against central differences of
a scalar projection of the output. Contraction choices are recorded as a
structural fingerprint; if a perturbation flips the matching the case is
rebuilt from a fresh seed, since the objective is only piecewise smooth
across matching boundaries.

The ``corrupt`` flag scales one analytic gradient by 5 percent, proving
the comparison actually has teeth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Var, backward
from .data import make_connected_erdos_renyi
from .graph import batch
from .layers import (
    batch_norm,
    cross_entropy,
    dense,
    edge_pool,
    global_mean_pool,
    mean_conv,
    relu,
    unpool,
)
from .models import GraphClassifier, NodeClassifier
from .params import TrainConfig
from .pool import edgepool_forward, random_pool_params
from .rng import seeded_rng
from .unpool import unpool_backward, unpool_once

__all__ = ["GradCheckResult", "run_gradcheck", "CASE_NAMES"]

FD_STEP = 1e-6  # central-difference step
DEFAULT_RTOL = 1e-4
DEFAULT_ATOL = 1e-7
MODEL_RTOL = 1e-3


@dataclass
class GradCheckResult:
    name: str
    passed: bool
    max_abs_err: float
    max_rel_err: float
    num_entries: int = 0
    detail: str = ""


class _MatchingFlip(Exception):
    """A perturbation changed the contraction structure; seed is unusable."""


def _as_vars(inputs: dict[str, np.ndarray]) -> dict[str, Var]:
    return {k: Var(v.copy()) for k, v in inputs.items()}


def _scalar(projection: np.ndarray, out: np.ndarray) -> float:
    return float((projection * out).sum())


def _numeric_grads(inputs, run, projection, base_fp):
    grads = {}
    for name, value in inputs.items():
        g = np.zeros_like(value, dtype=np.float64)
        for i in range(value.size):
            samples = []
            for sign in (1.0, -1.0):
                shifted = dict(inputs)
                bumped = value.astype(np.float64).copy()
                bumped.flat[i] += sign * FD_STEP
                shifted[name] = bumped
                out, fp = run(_as_vars(shifted))
                if fp != base_fp:
                    raise _MatchingFlip(name)
                samples.append(_scalar(projection, out.data))
            g.flat[i] = (samples[0] - samples[1]) / (2.0 * FD_STEP)
        grads[name] = g
    return grads


def _compare(name, analytic, numeric, rtol, atol):
    max_abs = 0.0
    max_rel = 0.0
    entries = 0
    ok = True
    for key in numeric:
        a = np.asarray(analytic[key], dtype=np.float64)
        n = numeric[key]
        if a.shape != n.shape:
            return GradCheckResult(name, False, np.inf, np.inf, 0,
                                   f"shape mismatch for {key}: {a.shape} vs {n.shape}")
        diff = np.abs(a - n)
        denom = np.maximum(np.abs(n), atol)
        max_abs = max(max_abs, float(diff.max(initial=0.0)))
        max_rel = max(max_rel, float((diff / denom).max(initial=0.0)))
        entries += n.size
        if np.any(diff > atol + rtol * np.abs(n)):
            ok = False
    return GradCheckResult(name, ok, max_abs, max_rel, entries)


def _check_case(name, build, seed, rtol, atol, corrupt, attempts=6):
    """Run one FD comparison, rebuilding on matching flips."""
    last_flip = None
    for attempt in range(attempts):
        rng = seeded_rng(seed, "gradcheck", name, attempt)
        inputs, run = build(rng)
        inputs = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}
        tape_vars = _as_vars(inputs)
        out, base_fp = run(tape_vars)
        projection = seeded_rng(seed, "gradcheck-projection", name, attempt).normal(
            size=out.data.shape
        )
        backward(out, seed=projection)
        analytic = {k: v.grad.copy() for k, v in tape_vars.items()}
        if corrupt:
            first = sorted(analytic)[0]
            analytic[first] = analytic[first] * 1.05 + 10.0 * atol
        try:
            numeric = _numeric_grads(inputs, run, projection, base_fp)
        except _MatchingFlip as flip:
            last_flip = flip
            continue
        return _compare(name, analytic, numeric, rtol, atol)
    return GradCheckResult(
        name, False, np.inf, np.inf, 0,
        f"no perturbation-stable contraction in {attempts} seeds ({last_flip})",
    )


def _random_graph(rng, n=8, f=3, p=0.4):
    g = make_connected_erdos_renyi(n, p, rng, feature_width=f)
    return g.with_node_features(rng.normal(0.0, 1.0, size=(n, f)))


# Case builders. Each returns (inputs, run) where run maps name->Var to
# (output Var, structural fingerprint).


def _build_dense(rng):
    inputs = {
        "x": rng.normal(size=(5, 3)),
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=4),
    }
    return inputs, lambda v: (dense(v["x"], v["w"], v["b"]), None)


def _build_mean_conv(rng):
    graph = _random_graph(rng, n=7, f=3)
    inputs = {
        "x": rng.normal(size=(7, 3)),
        "w_self": rng.normal(size=(3, 4)),
        "w_neigh": rng.normal(size=(3, 4)),
        "b": rng.normal(size=4),
    }
    return inputs, lambda v: (
        mean_conv(graph, v["x"], v["w_self"], v["w_neigh"], v["b"]), None
    )


def _batch_norm_case(rows: int):
    def build(rng):
        inputs = {
            "x": rng.normal(size=(rows, 3)),
            "gamma": rng.uniform(0.5, 1.5, size=3),
            "beta": rng.normal(size=3),
        }
        return inputs, lambda v: (batch_norm(v["x"], v["gamma"], v["beta"]), None)

    return build


def _build_relu(rng):
    x = rng.normal(size=(6, 4))
    # Keep entries away from the kink so central differences are valid.
    x = np.where(np.abs(x) < 0.05, x + 0.2 * np.sign(x + 0.5), x)
    return {"x": x}, lambda v: (relu(v["x"]), None)


def _build_global_mean_pool(rng):
    graph_id = np.asarray([0, 0, 0, 1, 1, 2, 2, 2], dtype=np.int64)
    inputs = {"x": rng.normal(size=(8, 3))}
    return inputs, lambda v: (global_mean_pool(v["x"], graph_id, 3), None)


def _build_cross_entropy(rng):
    labels = np.asarray([0, 2, 1, 1], dtype=np.int64)
    inputs = {"logits": rng.normal(size=(4, 3))}
    return inputs, lambda v: (cross_entropy(v["logits"], labels), None)


def _edge_pool_case(training: bool, dropout_p: float):
    def build(rng):
        graph = _random_graph(rng, n=8, f=3, p=0.45)
        inputs = {
            "x": rng.normal(size=(8, 3)),
            "weight": rng.normal(size=6),
            "bias": rng.normal(size=()),
        }
        dropout_seed = int(rng.integers(0, 2**31))

        def run(v):
            out, _, _, info, scores = edge_pool(
                v["x"], v["weight"], v["bias"], graph,
                training=training, dropout_p=dropout_p, seed=dropout_seed,
            )
            fp = (info.matching.tobytes(), scores.dropped.tobytes())
            return out, fp

        return inputs, run

    return build


def _build_unpool(rng):
    graph = _random_graph(rng, n=8, f=3, p=0.45)
    params = random_pool_params(3, seed=int(rng.integers(0, 2**31)))
    inputs = {"x": rng.normal(size=(8, 3))}

    def run(v):
        pooled, score, _, level_info, _ = edge_pool(
            v["x"],
            Var(params.weight.copy()),
            Var(np.asarray(params.bias)),
            graph,
        )
        fp = level_info.matching.tobytes()
        return unpool(pooled, score, level_info), fp

    return inputs, run


def _build_graph_model(rng):
    graphs = [_random_graph(rng, n=int(rng.integers(6, 10)), f=3) for _ in range(3)]
    labels = np.asarray([0, 1, 0], dtype=np.int64)
    batched = batch(graphs)
    config = TrainConfig(channels=4, seed=int(rng.integers(0, 2**31)))
    model = GraphClassifier.create(3, 2, channels=4, pooling=True,
                                   seed=int(rng.integers(0, 2**31)))
    inputs = {name: p.data.astype(np.float64) for name, p in model.params.items()}

    def run(v):
        trace = []
        logits = model.forward(
            v, batched.graph, batched.graph_id, batched.num_graphs, config,
            trace=trace,
        )
        loss = cross_entropy(logits, labels)
        return loss, tuple(i.matching.tobytes() for i in trace)

    return inputs, run


def _build_node_model(rng):
    graph = _random_graph(rng, n=10, f=2, p=0.4)
    labels = rng.integers(0, 2, size=10).astype(np.int64)
    config = TrainConfig(channels=3, seed=int(rng.integers(0, 2**31)))
    model = NodeClassifier.create(2, 2, channels=3, conv_kind="mean", pooling=True,
                                  seed=int(rng.integers(0, 2**31)))
    inputs = {name: p.data.astype(np.float64) for name, p in model.params.items()}

    def run(v):
        trace = []
        logits = model.forward(v, graph, config, trace=trace)
        loss = cross_entropy(logits, labels)
        return loss, tuple(i.matching.tobytes() for i in trace)

    return inputs, run


def _check_unpool_adjoint(seed, corrupt) -> GradCheckResult:
    """Exact adjoint identity: <unpool(x), y> equals <x, unpool^T(y)>."""
    worst = 0.0
    for attempt in range(5):
        rng = seeded_rng(seed, "unpool-adjoint", attempt)
        graph = _random_graph(rng, n=9, f=3, p=0.4)
        params = random_pool_params(3, seed=int(rng.integers(0, 2**31)))
        _, info, _ = edgepool_forward(graph, params)
        x = rng.normal(size=(info.pooled_num_nodes, 4))
        y = rng.normal(size=(graph.num_nodes, 4))
        lhs = float((unpool_once(x, info) * y).sum())
        back = unpool_backward(y, info)
        if corrupt:
            back = back * 1.05
        rhs = float((x * back).sum())
        worst = max(worst, abs(lhs - rhs))
    return GradCheckResult("unpool_adjoint", worst <= 1e-8, worst, worst, 5)


_TAPE_CASES = {
    "dense": (_build_dense, DEFAULT_RTOL),
    "mean_conv": (_build_mean_conv, DEFAULT_RTOL),
    "batch_norm": (_batch_norm_case(6), DEFAULT_RTOL),
    "batch_norm_one_row": (_batch_norm_case(1), DEFAULT_RTOL),
    "relu": (_build_relu, DEFAULT_RTOL),
    "global_mean_pool": (_build_global_mean_pool, DEFAULT_RTOL),
    "cross_entropy": (_build_cross_entropy, DEFAULT_RTOL),
    "edge_pool": (_edge_pool_case(False, 0.0), DEFAULT_RTOL),
    "edge_pool_score_dropout": (_edge_pool_case(True, 0.3), DEFAULT_RTOL),
    "unpool": (_build_unpool, DEFAULT_RTOL),
    "graph_model": (_build_graph_model, MODEL_RTOL),
    "node_model": (_build_node_model, MODEL_RTOL),
}

CASE_NAMES = tuple(_TAPE_CASES) + ("unpool_adjoint",)


def run_gradcheck(
    seed: int = 0,
    cases: list[str] | None = None,
    corrupt: bool = False,
) -> list[GradCheckResult]:
    """Run the requested cases (default: all) and return their results."""
    names = list(cases) if cases else list(CASE_NAMES)
    unknown = [n for n in names if n not in CASE_NAMES]
    if unknown:
        raise ValueError(f"unknown gradcheck cases: {unknown}; known: {list(CASE_NAMES)}")
    results = []
    for name in names:
        if name == "unpool_adjoint":
            results.append(_check_unpool_adjoint(seed, corrupt))
            continue
        build, rtol = _TAPE_CASES[name]
        atol = DEFAULT_ATOL if rtol == DEFAULT_RTOL else 1e-6
        results.append(_check_case(name, build, seed, rtol, atol, corrupt))
    return results
