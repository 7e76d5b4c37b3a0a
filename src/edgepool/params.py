"""Named parameter arrays, their optimizer state, the training recipe, and checkpoints."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Var
from .graph import _count, _real_number

__all__ = [
    "Param",
    "ParamStore",
    "TrainConfig",
    "adam_step",
    "lr_at_epoch",
    "glorot_uniform",
    "save_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class Param:
    """A parameter array and its Adam moments."""

    data: np.ndarray
    m: np.ndarray
    v: np.ndarray


class ParamStore:
    """Registry of uniquely named parameters with their optimizer state.

    Gradients are not stored here: each step reads them off the tape leaves
    that :meth:`as_vars` handed out.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, data: np.ndarray) -> Param:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        data = np.asarray(data)
        p = Param(data=data, m=np.zeros_like(data), v=np.zeros_like(data))
        self._params[name] = p
        return p

    def items(self):
        return self._params.items()

    def as_vars(self) -> dict[str, Var]:
        """Fresh leaf Vars over the live parameter arrays, one per name."""
        return {name: Var(p.data) for name, p in self._params.items()}


@dataclass(frozen=True)
class TrainConfig:
    """Shared training recipe: what the training commands set.

    The learning rate starts at ``learning_rate`` and is halved every
    ``LR_HALVING_PERIOD`` epochs. The dropout rates are the constants
    ``HEAD_DROPOUT_P`` and ``EDGE_SCORE_DROPOUT_P`` of
    :mod:`edgepool.models`. ``epochs``, ``batch_size`` and ``channels`` are
    integers of at least 1 and ``seed`` an integer of any sign, the seed rule
    of :func:`~edgepool.rng.seeded_rng` (both ``graph._count``); a float or a
    boolean raises ValueError naming the field. ``learning_rate`` is a real
    number (``graph._real_number``), positive and finite, so a bool or a
    string raises ValueError naming it too. The four are kept as Python ints
    and the rate as a Python float.
    """

    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    channels: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("channels", 1), ("seed", None)):
            object.__setattr__(self, name, _count(name, getattr(self, name), minimum))
        object.__setattr__(self, "learning_rate", _real_number(
            "learning_rate", self.learning_rate, "positive and finite"))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


LR_HALVING_PERIOD = 50


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Stepped schedule: base rate halved every ``LR_HALVING_PERIOD`` epochs."""
    return config.learning_rate * 0.5 ** (epoch // LR_HALVING_PERIOD)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(store: ParamStore, leaves: dict[str, Var], lr: float, t: int) -> None:
    """Standard bias-corrected Adam update over every parameter.

    ``lr`` is a real number, positive and finite, as
    ``TrainConfig.learning_rate`` is (``graph._real_number``); ``t``, the
    step count, is an integer of at least 1 (``graph._count``), so neither
    a float nor a bool is cast. Each parameter's gradient is the tape
    gradient of its leaf in ``leaves`` (from :meth:`ParamStore.as_vars`),
    already cast to the parameter's dtype by
    :func:`~edgepool.autodiff.backward`; a leaf the loss does not reach
    (gradient ``None``) counts as a zero gradient. A parameter with no leaf
    raises ValueError naming it, before any parameter is updated.
    """
    lr = _real_number("lr", lr, "positive and finite")
    t = _count("t", t, 1)
    for name, _ in store.items():
        if name not in leaves:
            raise ValueError(f"leaves has no leaf for parameter {name!r}")
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in store.items():
        grad = leaves[name].grad
        if grad is None:
            grad = np.zeros_like(p.data)
        p.m[...] = ADAM_BETA1 * p.m + (1.0 - ADAM_BETA1) * grad
        p.v[...] = ADAM_BETA2 * p.v + (1.0 - ADAM_BETA2) * grad**2
        m_hat = p.m / bc1
        v_hat = p.v / bc2
        p.data[...] = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform float32 init scaled by fan-in plus fan-out."""
    if len(shape) == 1:
        fan_in, fan_out = shape[0], 1
    else:
        fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def save_checkpoint(path, config: dict, store: ParamStore) -> None:
    """Write parameters as JSON: name -> {shape, data row-major}.

    The file holds ``format_version``, the run's ``config`` and ``params``;
    read it with :mod:`json`. Each value is a float64 rendering of the
    parameter entry, so a float32 parameter reads back exactly after a cast
    to float32.
    """
    obj = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": config,
        "params": {
            name: {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
            for name, p in store.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)

