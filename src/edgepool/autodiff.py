"""Minimal reverse-mode tape over numpy arrays.

A ``Var`` wraps an array and remembers how it was produced: its parents
and a vector-Jacobian-product closure. Calling :func:`backward` on a
scalar (or seeded) output walks the recorded graph once in reverse
topological order and accumulates gradients into every reachable Var.
Layers register a single fused vjp each, so the per-layer backward math
stays explicit and individually checkable.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .graph import _real

__all__ = ["Var", "backward"]


class Var:
    """Array node in the tape. Leaf Vars have no parents."""

    __slots__ = ("data", "grad", "parents", "vjp")

    def __init__(
        self,
        data,
        parents: Sequence["Var"] = (),
        vjp: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.parents = tuple(parents)
        self.vjp = vjp

    def __repr__(self):
        return f"Var(shape={self.data.shape}, leaf={not self.parents})"


def _topo_order(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Var, seed: np.ndarray | None = None) -> None:
    """Accumulate gradients of ``root`` into every Var it depends on.

    ``seed`` defaults to ones, i.e. the gradient of root.sum(); a given seed
    is a real array of the output's shape (``graph._real``). Each gradient
    a vjp returns is cast here, so no vjp casts its own: to its parent's
    dtype when that is a float dtype, else to float64, the dtype the ops
    widen integer activations to, so an integer leaf's gradient is not
    truncated.
    """
    root.grad = np.ones_like(root.data) if seed is None else (
        _real("seed", seed, root.data.shape).astype(root.data.dtype, copy=False))
    for node in reversed(_topo_order(root)):
        if node.vjp is None or node.grad is None:
            continue
        grads = node.vjp(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            g = np.asarray(g, dtype=parent.data.dtype if parent.data.dtype.kind == "f" else np.float64)
            parent.grad = g if parent.grad is None else parent.grad + g
