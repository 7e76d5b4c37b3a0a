"""Finite-difference validation of every hand-written backward pass.

The gate is one table, ``_CASES``: each case's name, its ``--cases`` group
and its check, in report order. Every tape op of :mod:`edgepool.layers` has
a case, and so do both models. A tape case builds a small randomized
problem, computes analytic gradients through the tape, then compares
against central differences of a scalar projection of the output.

A case whose inputs are random arrays has one builder, ``_normal_case``.
Each input is a shape, drawn standard normal, or a sampler ``rng -> array``;
a callable constant (such as the case's graph) is drawn before the inputs.
The builders whose draws interleave with pooling structure record each
level's matching as a structural fingerprint, and nothing else: a
perturbation can change the matching but no fixed input such as a dropout
mask. If a perturbation flips the matching the case is rebuilt from a
fresh seed, since the objective is only piecewise smooth across matching
boundaries.

The ``corrupt`` flag scales one analytic gradient by 5 percent, proving
the comparison actually has teeth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import Var, backward
from .data import make_connected_erdos_renyi
from .graph import batch
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
from .models import GraphClassifier, NodeClassifier
from .pool import random_pool_params
from .rng import seeded_rng

__all__ = ["GradCheckResult", "run_gradcheck", "CASE_NAMES", "CASE_GROUPS"]

FD_STEP = 1e-6  # central-difference step
LAYER_TOL = (1e-4, 1e-7)  # (rtol, atol)
MODEL_TOL = (1e-3, 1e-6)
FLIP_ATTEMPTS = 6  # seeds a case may try before no stable contraction is a failure


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
                samples.append(float((projection * out.data).sum()))
            g.flat[i] = (samples[0] - samples[1]) / (2.0 * FD_STEP)
        grads[name] = g
    return grads


def _compare(name, analytic, numeric, rtol, atol):
    max_abs = 0.0
    max_rel = 0.0
    entries = 0
    ok = True
    for key in numeric:
        a = analytic[key]  # float64, as the tape casts a float64 input's gradient
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


def _check_case(build, tol, name, seed, corrupt):
    """Run one FD comparison at ``tol`` = (rtol, atol), rebuilding on matching flips."""
    rtol, atol = tol
    last_flip = None
    for attempt in range(FLIP_ATTEMPTS):
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
        f"no perturbation-stable contraction in {FLIP_ATTEMPTS} seeds ({last_flip})",
    )


def _random_graph(rng, n=8, f=3, p=0.4):
    g = make_connected_erdos_renyi(n, p, rng, feature_width=f)
    return g.with_node_features(rng.normal(0.0, 1.0, size=(n, f)))


# Case builders. Each returns (inputs, run) where run maps name->Var to
# (output Var, structural fingerprint).


def _normal_case(op, inputs, *constants):
    """``op(*drawn inputs, *constants)``, drawing the callable constants, then the inputs.

    An input is a shape, drawn standard normal, or a sampler ``rng -> array``;
    a callable constant is a sampler ``rng -> value``.
    """
    def build(rng):
        fixed = [c(rng) if callable(c) else c for c in constants]
        drawn = {f"arg{k}": spec(rng) if callable(spec) else rng.normal(size=spec)
                 for k, spec in enumerate(inputs)}
        return drawn, lambda v: (op(*v.values(), *fixed), None)

    return build


def _off_kink(rng):
    """A (6, 4) standard-normal draw with entries near 0 moved off relu's kink,
    so that central differences are valid."""
    x = rng.normal(size=(6, 4))
    return np.where(np.abs(x) < 0.05, x + 0.2 * np.sign(x + 0.5), x)


def _gamma(rng):
    """A ``batch_norm`` scale of 3 channels, drawn from [0.5, 1.5)."""
    return rng.uniform(0.5, 1.5, size=3)


def _edge_pool_case(dropout_p: float):
    def build(rng):
        graph = _random_graph(rng, n=8, f=3, p=0.45)
        inputs = {
            "x": rng.normal(size=(8, 3)),
            "weight": rng.normal(size=6),
            "bias": rng.normal(size=()),
        }
        dropout_seed = int(rng.integers(0, 2**31))

        # The dropout mask is fixed by the edge count, the rate and the seed,
        # so only the matching can flip.
        def run(v):
            out, _, _, info, _ = edge_pool(
                v["x"], v["weight"], v["bias"], graph, dropout_p=dropout_p, seed=dropout_seed
            )
            return out, info.matching.tobytes()

        return inputs, run

    return build


def _build_unpool(rng):
    graph = _random_graph(rng, n=8, f=3, p=0.45)
    params = random_pool_params(3, seed=int(rng.integers(0, 2**31)))
    inputs = {"x": rng.normal(size=(8, 3))}

    def run(v):
        pooled, score, _, info, _ = edge_pool(
            v["x"], Var(params.weight.copy()), Var(np.asarray(params.bias)), graph
        )
        return unpool(pooled, score, info), info.matching.tobytes()

    return inputs, run


def _model_run(model, labels, *graph_args):
    """Inputs and run of a model's loss; the fingerprint is each level's matching."""
    inputs = {name: p.data.astype(np.float64) for name, p in model.params.items()}

    def run(v):
        trace = []
        loss = cross_entropy(model.forward(v, *graph_args, trace=trace), labels)
        return loss, tuple(i.matching.tobytes() for i in trace)

    return inputs, run


def _build_graph_model(rng):
    graphs = [_random_graph(rng, n=int(rng.integers(6, 10)), f=3) for _ in range(3)]
    batched = batch(graphs)
    rng.integers(0, 2**31)  # discarded: the model seed is the stream's second draw
    model = GraphClassifier.create(3, 2, channels=4, pooling=True,
                                   seed=int(rng.integers(0, 2**31)))
    return _model_run(model, np.asarray([0, 1, 0]), batched.graph, batched.graph_id)


def _build_node_model(rng):
    graph = _random_graph(rng, n=10, f=2, p=0.4)
    labels = rng.integers(0, 2, size=10)
    rng.integers(0, 2**31)  # discarded: the model seed is the stream's second draw
    model = NodeClassifier.create(2, 2, channels=3, conv_kind="mean", pooling=True,
                                  seed=int(rng.integers(0, 2**31)))
    return _model_run(model, labels, graph)


def _check_unpool_adjoint(name, seed, corrupt) -> GradCheckResult:
    """Exact adjoint identity of the tape op: <unpool(x), y> equals <x, unpool^T(y)>,
    where unpool^T(y) is the gradient that ``backward`` seeded with y gives x."""
    worst = 0.0
    for attempt in range(5):
        rng = seeded_rng(seed, "unpool-adjoint", attempt)
        graph = _random_graph(rng, n=9, f=3, p=0.4)
        params = random_pool_params(3, seed=int(rng.integers(0, 2**31)))
        _, gate, _, info, _ = edge_pool(Var(graph.node_features), Var(params.weight),
                                        Var(np.asarray(params.bias)), graph)
        x = Var(rng.normal(size=(info.pooled_num_nodes, 4)))
        y = rng.normal(size=(graph.num_nodes, 4))
        out = unpool(x, gate, info)
        backward(out, seed=y)
        lhs = float((out.data * y).sum())
        back = x.grad * 1.05 if corrupt else x.grad
        rhs = float((x.data * back).sum())
        worst = max(worst, abs(lhs - rhs))
    return GradCheckResult(name, worst <= 1e-8, worst, worst, 5)


def _tape(build, tol=LAYER_TOL):
    """Check of a tape case: finite differences of ``build``'s run at ``tol``."""
    return partial(_check_case, build, tol)


# Case name -> (``--cases`` group, check), in report order. A check maps
# (name, seed, corrupt) to its result; every case is also in group "all".
_CASES = {
    "dense": ("layers", _tape(_normal_case(dense, [(5, 3), (3, 4), (4,)]))),
    "mean_conv": ("layers", _tape(_normal_case(
        lambda x, w_self, w_neigh, b, graph: mean_conv(graph, x, w_self, w_neigh, b),
        [(7, 3), (3, 4), (3, 4), (4,)], partial(_random_graph, n=7, f=3)))),
    "batch_norm": ("layers", _tape(_normal_case(batch_norm, [(6, 3), _gamma, (3,)]))),
    "batch_norm_one_row": ("layers", _tape(_normal_case(batch_norm, [(1, 3), _gamma, (3,)]))),
    "relu": ("layers", _tape(_normal_case(relu, [_off_kink]))),
    # A generator seeded alike on every evaluation: the differences see one mask.
    "feature_dropout": ("layers", _tape(_normal_case(
        lambda x: feature_dropout(x, 0.5, seeded_rng(0, "gradcheck-dropout")), [(6, 4)]))),
    "global_mean_pool": ("layers", _tape(_normal_case(
        global_mean_pool, [(8, 3)], np.asarray([0, 0, 0, 1, 1, 2, 2, 2])))),
    "concat_cols": ("layers", _tape(_normal_case(concat_cols, [(4, 2), (4, 3)]))),
    # Row 4 is read twice and row 3 never.
    "gather_rows": ("layers", _tape(_normal_case(
        gather_rows, [(5, 3)], np.asarray([4, 0, 4, 2, 1])))),
    "cross_entropy": ("layers", _tape(_normal_case(
        cross_entropy, [(4, 3)], np.asarray([0, 2, 1, 1])))),
    "edge_pool": ("edgepool", _tape(_edge_pool_case(0.0))),
    "edge_pool_score_dropout": ("edgepool", _tape(_edge_pool_case(0.3))),
    "unpool": ("unpool", _tape(_build_unpool)),
    "graph_model": (None, _tape(_build_graph_model, MODEL_TOL)),
    "node_model": (None, _tape(_build_node_model, MODEL_TOL)),
    "unpool_adjoint": ("unpool", _check_unpool_adjoint),
}

CASE_NAMES = tuple(_CASES)

# The case sets ``edgepool gradcheck --cases`` selects by name.
CASE_GROUPS = {"all": list(CASE_NAMES)} | {
    group: [name for name, (g, _) in _CASES.items() if g == group]
    for group, _ in _CASES.values() if group
}


def run_gradcheck(seed: int = 0, cases: list[str] | None = None,
                  corrupt: bool = False) -> list[GradCheckResult]:
    """Run the requested cases (default: all) and return their results."""
    names = list(cases) if cases else list(CASE_NAMES)
    unknown = [n for n in names if n not in CASE_NAMES]
    if unknown:
        raise ValueError(f"unknown gradcheck cases: {unknown}; known: {list(CASE_NAMES)}")
    return [_CASES[name][1](name, seed, corrupt) for name in names]
