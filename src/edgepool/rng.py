"""Seeded random-number streams.

Every randomized behaviour in the package draws from a generator derived
here, so adding a new consumer never perturbs existing streams: each
consumer gets its own substream keyed by a fixed label path.
"""

from __future__ import annotations

import zlib

import numpy as np

from .graph import _count


def seeded_rng(seed: int, *labels) -> np.random.Generator:
    """Return a generator for ``seed`` specialised by a label path.

    This is the one home of seeds: ``seed`` is an integer of any sign
    (``graph._count``), and a float or boolean seed raises ValueError naming
    it, never truncated to another seed's stream. Labels may be strings or
    integers. The same (seed, labels) pair always yields the same stream,
    independent of any other stream in the program.
    """
    entropy = [_count("seed", seed, None) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        if isinstance(label, (int, np.integer)):
            entropy.append(int(label) & 0xFFFFFFFFFFFFFFFF)
        else:
            entropy.append(zlib.crc32(str(label).encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def draw_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed, used to key a child operation."""
    return int(rng.integers(0, 2**63))
