"""Host speed probe, and timings scaled to a fixed host speed.

On a shared virtual machine the same code runs up to about 1.9x slower for
stretches of seconds to minutes, and every kind of code slows alike: a pure
interpreter loop, numpy scatters and BLAS matmuls sampled side by side over
three minutes had per-second medians correlated at 0.95. Over a whole run
those stretches move a plain median by more than the regression it should
catch.

So every timed unit of work is bracketed by two probes of a fixed reference
kernel that runs no edgepool code, and its time is scaled by
``REFERENCE_S / mean(probe before, probe after)``: the seconds the unit would
have taken with the reference kernel running at ``REFERENCE_S``. A change
to the package moves the scaled time just as it moves the wall time; a
slow stretch of the host moves both the unit and the probes and cancels.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# A probe's typical value on a 2-vCPU Xeon VM. Only the ratio of two scaled
# times means anything; the constant keeps scaled values near wall seconds.
REFERENCE_S = 0.005

_RNG = np.random.default_rng(12345)
_SORT_KEYS = _RNG.normal(size=16_384)
_TABLE = _RNG.normal(size=1 << 22)  # 32 MB, larger than the L2 caches
_TABLE_INDEX = _RNG.integers(0, _TABLE.size, size=1 << 17)


def _interpreter() -> None:
    acc = 0
    for i in range(20_000):
        acc += i & 7


def _sort() -> None:
    for _ in range(4):
        np.argsort(_SORT_KEYS)


def _gather() -> None:
    _TABLE[_TABLE_INDEX].sum()


# Interpreter work, in-cache sorts and random reads from memory, about a
# millisecond each: of the mixes tried, the one whose slow stretches tracked
# all three workloads' best.
KERNEL_PARTS = (_interpreter, _sort, _gather)


def reference_kernel() -> None:
    for part in KERNEL_PARTS:
        part()


def probe(repeats: int = 3) -> float:
    """Best of ``repeats`` runs of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


# Operations shorter than this share their probes with the operations
# around them; a probe costs about 15 ms.
SETTLE_S = 0.1


class Meter:
    """Samples of timed units, as measured and scaled to the reference speed.

    The probes form a chain: a unit's ``before`` probe is the last probe
    taken, and its ``after`` probe is taken as it ends and serves the next
    unit. Call ``mark`` once before the first unit, and again after any
    untimed work that should not count as the next unit's surroundings.
    """

    def __init__(self, probe_fn=probe):
        self._probe = probe_fn
        self.last: float | None = None
        self._last_at = 0.0
        self._pending: list[tuple[dict, str, float]] = []
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.probes: list[float] = []

    def mark(self) -> float:
        self.last = self._probe()
        self._last_at = time.perf_counter()
        self.probes.append(self.last)
        return self.last

    def accumulate(self, total: dict[str, float], key: str, seconds: float) -> None:
        """Add an operation that ended just now to ``total[key]``, once scaled.

        Short operations wait for the next probe, so that a run of them
        shares one pair of probes; ``settle`` scales what is waiting.
        """
        self._pending.append((total, key, seconds))
        if time.perf_counter() - self._last_at >= SETTLE_S:
            self.settle()

    def settle(self) -> None:
        if self._pending:
            scale = self.factor()
            for total, key, seconds in self._pending:
                total[key] += seconds * scale
            self._pending.clear()

    def factor(self) -> float:
        """Scale factor for a unit that ended just now, from the probes around it."""
        before = self.last
        after = self.mark()
        return REFERENCE_S / (0.5 * (before + after))

    def add(self, name: str, seconds: float) -> None:
        """Record a unit that ended just now, timed by the caller."""
        self.raw[name].append(seconds)
        self.scaled[name].append(seconds * self.factor())

    def time(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one unit, record its time under ``name``, return its result."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, time.perf_counter() - t0)
        return out
