"""Span tracing of the edgepool package, installed from outside the package.

:class:`Tracer` replaces the public functions of the traced modules with
wrappers that record a span (name, start, end, parent) per call. A
function is replaced under every name it is bound to in any module of the
package, so a call is traced wherever the caller looks the function up:
``models`` imports the layer ops by name, ``edgepool_forward`` resolves the
pooling stages in ``edgepool.pool``'s globals, and ``layers`` calls
``unpool_backward`` under an alias. Each ``Var`` a layer op returns gets
its ``vjp`` slot wrapped too, so backward time is attributed to the op
that recorded it. ``Var`` construction is counted. Nothing of this is
active until :meth:`install`, and :meth:`uninstall` restores every
original.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "edgepool"
TRACED_MODULES = ("graph", "pool", "unpool", "layers", "autodiff", "params", "models")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    vars_at_start: int = 0
    vars_at_end: int = 0
    attrs: dict | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        kids = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
        )
        for a, b in kids:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def _pool_attrs(args, kwargs, out) -> dict:
    graph = args[0] if args else kwargs["graph"]
    pooled, info, _ = out
    return {
        "nodes_in": graph.num_nodes,
        "matched": info.num_matched,
        "nodes_out": pooled.num_nodes,
        "edges_in": graph.num_edges,
        "edges_out": pooled.num_edges,
    }


def _graph_attrs(args, kwargs, out) -> dict:
    return {"edges": out.num_edges}


# Per-span counts recorded from a call's arguments and result.
ATTR_HOOKS = {
    "pool.edgepool_forward": _pool_attrs,
    "graph.build_graph": _graph_attrs,
}


class Tracer:
    """Records spans of the package's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.vars_created = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def modules(self):
        return [sys.modules[f"{PACKAGE}.{m}"] for m in TRACED_MODULES]

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.vars_created))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.vars_at_end = self.vars_created
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(idx, args, kwargs, out)
            return out

        traced._bench_span = name
        return traced

    # -- patching ------------------------------------------------------
    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(original function) -> (span name, function) for public functions.

        Public means defined in the module under a name without a leading
        underscore; ``pool.score_path_backward`` is one that the module's
        ``__all__`` leaves out.
        """
        found = {}
        for module in self.modules():
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    found[id(fn)] = (f"{short}.{attr}", fn)
        return found

    def _hook_for(self, name: str):
        attr_hook = ATTR_HOOKS.get(name)
        wrap_vjps = name.startswith("layers.")
        if attr_hook is None and not wrap_vjps:
            return None
        var_cls = sys.modules[f"{PACKAGE}.autodiff"].Var

        def on_result(idx, args, kwargs, out):
            if attr_hook is not None:
                self.spans[idx].attrs = attr_hook(args, kwargs, out)
            if wrap_vjps:
                for var in out if isinstance(out, tuple) else (out,):
                    if (
                        isinstance(var, var_cls)
                        and var.vjp is not None
                        and not hasattr(var.vjp, "_bench_span")
                    ):
                        var.vjp = self.wrap(f"{name}.vjp", var.vjp)

        return on_result

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {
            key: self.wrap(name, fn, self._hook_for(name)) for key, (name, fn) in targets.items()
        }
        namespaces = [
            module for key, module in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is targets[id(value)][1]:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

        var_cls = sys.modules[f"{PACKAGE}.autodiff"].Var
        original_init = var_cls.__init__

        def counting_init(var, *args, **kwargs):
            self.vars_created += 1
            original_init(var, *args, **kwargs)

        self._patches.append((var_cls, "__init__", original_init))
        var_cls.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)
