"""AdamW with decoupled weight decay, constant learning rate.

Decay is applied directly to every parameter, norm gains and biases
included (theta -= lr * wd * theta), never mixed into the moment
estimates. There is no scheduling and no gradient clipping anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ConfigError, ShapeError


@dataclass(frozen=True)
class AdamWHyperParams:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.lr <= 0 or self.eps <= 0:
            raise ConfigError("lr and eps must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


@dataclass
class AdamWState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adamw_state(params) -> AdamWState:
    state = AdamWState()
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def adamw_step(params, grads, state: AdamWState, hp: AdamWHyperParams) -> None:
    """One update over all parameters; mutates params and state in place."""
    for name, p in params.items():
        if name not in grads or grads[name] is None:
            raise ConfigError(f"adamw_step: no gradient for parameter {name!r}")
        if name not in state.m:
            raise ShapeError(f"adamw_step: state carries no moments for {name!r}")
        if grads[name].shape != state.m[name].shape or p.shape != state.m[name].shape:
            raise ShapeError(f"adamw_step: shape mismatch for {name!r}: "
                             f"param {p.shape}, grad {grads[name].shape}, "
                             f"state {state.m[name].shape}")

    state.t += 1
    bc1 = 1.0 - hp.beta1 ** state.t
    bc2 = 1.0 - hp.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m[...] = hp.beta1 * m + (1.0 - hp.beta1) * g
        v[...] = hp.beta2 * v + (1.0 - hp.beta2) * (g * g)
        step = hp.lr * (m / bc1) / (np.sqrt(v / bc2) + hp.eps)
        if hp.weight_decay:
            step = step + hp.lr * hp.weight_decay * p.data
        p.data = p.data - step
