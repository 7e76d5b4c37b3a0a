"""Minimal reverse-mode tape over numpy arrays.

A ``Var`` wraps an array and remembers how it was produced: its parents
and a vector-Jacobian-product closure. Calling :func:`backward` on a
scalar (or seeded) output walks the recorded graph once in reverse
topological order and accumulates gradients into the leaves it reaches.
The walk consumes the tape: once a node's vjp has run, the node drops it,
and with it the arrays its closure saved, and a non-leaf node drops its
gradient too, so backward frees the tape as it goes and only the leaves
keep gradients. A tape therefore serves one backward; a second over any
consumed node raises ``ValueError`` instead of leaving a leaf without its
gradient. A Var with parents but no vjp is a constant, as before: backward
neither walks through it nor consumes it. The tape holds an op's output only
where a vjp reads it: an entrywise op whose vjp reads its own output, not
its input (``layers.relu``), links past its input's producer
(:func:`_link_past`), so nothing on the tape refers to that input and it is
freed once its caller drops it. Inside a :func:`_no_tape` block
a Var keeps no parents and no vjp, so a forward run there (an evaluation)
records no tape and frees each array once nothing but its closure holds
it. Layers register a single fused vjp each, so the per-layer backward
math stays explicit and individually checkable.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .graph import _real

__all__ = ["Var", "backward"]

_taping = True


@contextmanager
def _no_tape():
    """A block whose Vars record no parents and no vjp: a forward without a tape."""
    global _taping
    was, _taping = _taping, False
    try:
        yield
    finally:
        _taping = was


class Var:
    """Array node in the tape. Leaf Vars have no parents.

    A Var can be referenced weakly, so a caller can see when a tape is freed.
    """

    __slots__ = ("data", "grad", "parents", "vjp", "__weakref__")

    def __init__(
        self,
        data,
        parents: Sequence["Var"] = (),
        vjp: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.parents = tuple(parents) if _taping else ()
        self.vjp = vjp if _taping else None

    def __repr__(self):
        return f"Var(shape={self.data.shape}, leaf={not self.parents})"


def _consumed(grad: np.ndarray) -> tuple:
    """The vjp a node holds once backward has run and dropped its own."""
    raise ValueError("this Var was consumed by an earlier backward: a tape serves one")


def _link_past(x: Var, data, grad: Callable[[np.ndarray], np.ndarray]) -> Var:
    """The Var of ``data``, an entrywise function of ``x`` whose vjp is
    ``grad(dy)`` and reads no ``x``.

    When ``x`` has a live vjp, the result takes ``x``'s parents and the
    composed vjp ``x.vjp(grad(dy))``, so the tape holds no reference to
    ``x``. With ``data`` in ``x``'s dtype (float64 for an integer ``x``),
    ``grad(dy)`` is in the dtype that ``backward`` would cast it to, so
    ``x``'s vjp gets the gradient it would have got through ``x``. If
    ``x`` has a second consumer, its vjp runs once per consumer, which
    gives the same gradient because a vjp is linear. A leaf, a constant (no
    vjp) or a consumed ``x`` keeps the link ``(x,)``: backward still
    refuses a consumed tape before it adds any gradient.
    """
    x_vjp = x.vjp
    if x_vjp is None or x_vjp is _consumed:
        return Var(data, (x,), lambda dy: (grad(dy),))
    return Var(data, x.parents, lambda dy: x_vjp(grad(dy)))


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
        if node.vjp is _consumed:
            raise ValueError(f"{node!r} was consumed by an earlier backward: a tape serves one")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Var, seed: np.ndarray | None = None) -> None:
    """Accumulate gradients of ``root`` into every leaf Var it depends on.

    ``seed`` defaults to ones, i.e. the gradient of root.sum(); a given seed
    is a real array of the output's shape (``graph._real``). Each gradient
    a vjp returns is cast here, so no vjp casts its own: to its parent's
    dtype when that is a float dtype, else to float64, the dtype the ops
    widen integer activations to, so an integer leaf's gradient is not
    truncated.

    The walk consumes the tape (see the module docstring): each node whose
    vjp ran drops it and its gradient, and a tape that an earlier backward
    consumed raises ``ValueError`` before any gradient is added.
    """
    seed = np.ones_like(root.data) if seed is None else (
        _real("seed", seed, root.data.shape).astype(root.data.dtype, copy=False))
    order = _topo_order(root)
    root.grad = seed
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        grads = node.vjp(node.grad)
        node.vjp, node.grad = _consumed, None  # a leaf has no vjp, so it keeps its gradient
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            g = np.asarray(g, dtype=parent.data.dtype if parent.data.dtype.kind == "f" else np.float64)
            parent.grad = g if parent.grad is None else parent.grad + g
