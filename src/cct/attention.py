"""SDPA and super attention: one forward for both kinds, the table of
their weights, and exact parameter and FLOP accounting.

The kinds differ only in how they form the values V. SDPA projects them,
V = x @ W_V. Super attention drops W_V and instead mixes tokens with one
learnable ctx_len x ctx_len matrix W_A (V = W_A @ x), shared across heads.
That ties the mechanism to a fixed context length and is where its
positional signal comes from. `attention_shapes` is the one list of each
kind's weight names and shapes; the model's parameter table and the
micro-benchmark build theirs from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .tensor import (ConfigError, ShapeError, Tensor, linear, matmul,
                     softmax_rows, transpose)

KINDS = ("sdpa", "super")


@dataclass(frozen=True)
class AttentionConfig:
    kind: str
    d_model: int
    n_heads: int
    ctx_len: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"attention kind must be one of {KINDS}, got {self.kind!r}")
        if self.d_model < 1 or self.n_heads < 1 or self.d_model % self.n_heads:
            raise ConfigError(f"d_model={self.d_model} must be a positive multiple "
                              f"of n_heads={self.n_heads}")
        if self.ctx_len < 1:
            raise ConfigError(f"ctx_len must be >= 1, got {self.ctx_len}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class AttentionParams:
    w_q: Tensor
    w_k: Tensor
    w_o: Tensor
    w_v: Tensor | None = None  # sdpa only
    w_a: Tensor | None = None  # super only


def attention_shapes(cfg: AttentionConfig) -> dict:
    """name -> shape of the attention weights, in canonical order: W_Q and
    W_K, then W_V (d_model x d_model) for sdpa or W_A (ctx_len x ctx_len)
    for super, then W_O."""
    d, el = cfg.d_model, cfg.ctx_len
    values = {"w_v": (d, d)} if cfg.kind == "sdpa" else {"w_a": (el, el)}
    return {"w_q": (d, d), "w_k": (d, d), **values, "w_o": (d, d)}


def _check_input(x: Tensor, cfg: AttentionConfig):
    if x.ndim != 3 or x.shape[1] != cfg.ctx_len or x.shape[2] != cfg.d_model:
        raise ShapeError(f"attention: input {x.shape} does not match "
                         f"ctx_len={cfg.ctx_len}, d_model={cfg.d_model} "
                         f"(fixed context length)")


def _split_heads(t: Tensor, cfg: AttentionConfig) -> Tensor:
    b = t.shape[0]
    return transpose(t.reshape(b, cfg.ctx_len, cfg.n_heads, cfg.head_dim),
                     (0, 2, 1, 3))  # (B, H, L, hd)


def _scores(x: Tensor, p: AttentionParams, cfg: AttentionConfig) -> Tensor:
    q = _split_heads(linear(x, p.w_q), cfg)
    k = _split_heads(linear(x, p.w_k), cfg)
    logits = matmul(q, transpose(k, (0, 1, 3, 2)))  # (B, H, L, L)
    return softmax_rows(logits, scale=1.0 / math.sqrt(cfg.head_dim))


def attention_forward(x: Tensor, p: AttentionParams, cfg: AttentionConfig) -> Tensor:
    """softmax(Q K^T / sqrt(head_dim)) V per head, merged and projected by
    W_O, with V = x @ W_V for sdpa and V = W_A @ x for super."""
    _check_input(x, cfg)
    if cfg.kind == "sdpa":
        if p.w_v is None:
            raise ConfigError("attention_forward: sdpa params carry no w_v")
        v = linear(x, p.w_v)
    else:
        if p.w_a is None:
            raise ConfigError("attention_forward: super params carry no w_a")
        if p.w_a.shape != (cfg.ctx_len, cfg.ctx_len):
            raise ShapeError(f"attention_forward: w_a {p.w_a.shape} does not "
                             f"match ctx_len={cfg.ctx_len}")
        v = matmul(p.w_a, x)  # token mixing along the sequence axis, shared heads
    ctx = matmul(_scores(x, p, cfg), _split_heads(v, cfg))  # (B, H, L, hd)
    merged = transpose(ctx, (0, 2, 1, 3)).reshape(x.shape[0], cfg.ctx_len,
                                                  cfg.d_model)
    return linear(merged, p.w_o)


def attention_scores(x: Tensor, p: AttentionParams, cfg: AttentionConfig) -> Tensor:
    """Post-softmax score matrices, (B, H, L, L); rows sum to 1."""
    _check_input(x, cfg)
    return _scores(x, p, cfg)


def attention_param_count(cfg: AttentionConfig) -> int:
    d, el = cfg.d_model, cfg.ctx_len
    if cfg.kind == "sdpa":
        return 4 * d * d
    return 3 * d * d + el * el


@dataclass(frozen=True)
class FlopsBreakdown:
    kind: str
    d_model: int
    ctx_len: int
    stages: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.stages.values())


def attention_flops(cfg: AttentionConfig) -> FlopsBreakdown:
    """Multiply-add = 2 flops, counted for one ctx_len x d_model token batch."""
    d, el = cfg.d_model, cfg.ctx_len
    proj = 2 * el * d * d       # one d x d projection applied to l tokens
    mix_or_score = 2 * el * el * d
    stages = {"q_proj": proj, "k_proj": proj}
    if cfg.kind == "sdpa":
        stages["v_proj"] = proj
    else:
        stages["token_mix"] = mix_or_score
    stages["scores"] = mix_or_score
    stages["score_value"] = mix_or_score
    stages["out_proj"] = proj
    return FlopsBreakdown(kind=cfg.kind, d_model=d, ctx_len=el, stages=stages)
