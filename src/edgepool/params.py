"""Named parameter arrays, their optimizer state, and checkpoints."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Var

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

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def as_vars(self) -> dict[str, Var]:
        """Fresh leaf Vars over the live parameter arrays, one per name."""
        return {name: Var(p.data) for name, p in self._params.items()}

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self._params.values())


@dataclass(frozen=True)
class TrainConfig:
    """Shared training recipe.

    The learning rate starts at ``learning_rate`` and is halved every
    ``lr_halving_period`` epochs. Edge-score dropout applies inside pooling
    layers during training only; ``dropout_p`` is the feature dropout used
    on the fully-connected head.
    """

    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    lr_halving_period: int = 50
    channels: int = 64
    dropout_p: float = 0.5
    edge_score_dropout_p: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.channels <= 0:
            raise ValueError("epochs, batch_size, and channels must be positive")
        if self.learning_rate <= 0 or self.lr_halving_period <= 0:
            raise ValueError("learning_rate and lr_halving_period must be positive")
        for p in (self.dropout_p, self.edge_score_dropout_p):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"probability {p} must be in [0, 1)")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Stepped schedule: base rate halved every ``lr_halving_period`` epochs."""
    return config.learning_rate * 0.5 ** (epoch // config.lr_halving_period)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(store: ParamStore, leaves: dict[str, Var], lr: float, t: int) -> None:
    """Standard bias-corrected Adam update over every parameter; t >= 1.

    Each parameter's gradient is the tape gradient of its leaf in
    ``leaves`` (from :meth:`ParamStore.as_vars`), already cast to the
    parameter's dtype by :func:`~edgepool.autodiff.backward`; a leaf the
    loss does not reach (gradient ``None``) counts as a zero gradient.
    """
    if t < 1:
        raise ValueError("Adam step count starts at 1")
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

