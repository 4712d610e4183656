"""CCT-6/3x1 assembly: conv tokenizer, pre-norm encoder stack, sequence
pooling, classifier head. No positional embeddings anywhere; with SDPA
the whole model is permutation-invariant over tokens, with super
attention the token-mixing matrix supplies the positional signal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import (AttentionConfig, AttentionParams, attention_forward,
                        attention_shapes)
from .seeding import stream
from .tensor import (CHUNK, ConfigError, ShapeError, Tensor, conv2d, gelu,
                     layernorm, linear, map_chunks, matmul, maxpool2d, relu,
                     softmax_rows, transpose)

__all__ = [
    "ModelConfig", "ParameterSet", "init_tensors", "init_params", "param_shapes",
    "tokenize", "encoder_block", "seq_pool", "forward", "forward_tokens",
    "chunk_work", "model_param_count",
]


# CCT-6/3x1 tokenizer geometry: 3x3 same-padded convs over RGB, each followed
# by a 3x3 max pool at stride 2 that halves both sides. Super attention's
# W_A fixes the context length, so the geometry is part of the design.
IN_CHANNELS = 3
CONV_KERNEL = 3
POOL_KERNEL, POOL_STRIDE, POOL_PAD = 3, 2, 1
LAYERNORM_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    attn_kind: str = "super"
    img_size: int = 32
    n_classes: int = 100
    d_model: int = 256
    n_layers: int = 6
    n_heads: int = 4
    mlp_ratio: int = 2
    conv_blocks: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("img_size", "n_classes", "n_layers", "mlp_ratio", "conv_blocks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.img_size % POOL_STRIDE ** self.conv_blocks:
            raise ConfigError(f"img_size={self.img_size} is not divisible by "
                              f"{POOL_STRIDE}^conv_blocks="
                              f"{POOL_STRIDE ** self.conv_blocks}")
        self.attn_config()  # checks attn_kind, d_model and n_heads

    @property
    def ctx_len(self) -> int:
        return (self.img_size // POOL_STRIDE ** self.conv_blocks) ** 2

    def attn_config(self) -> AttentionConfig:
        return AttentionConfig(kind=self.attn_kind, d_model=self.d_model,
                               n_heads=self.n_heads, ctx_len=self.ctx_len)


class ParameterSet:
    """Ordered name -> Tensor map; insertion order is the canonical order."""

    def __init__(self, named):
        named = dict(named)
        for name, t in named.items():
            if not t.requires_grad:
                raise ConfigError(f"parameter {name!r} must require grad")
        self._named = named

    def __getitem__(self, name: str) -> Tensor:
        return self._named[name]

    def __contains__(self, name: str) -> bool:
        return name in self._named

    def __len__(self) -> int:
        return len(self._named)

    def __iter__(self):
        return iter(self._named)

    def names(self):
        return list(self._named)

    def items(self):
        return self._named.items()

    def tensors(self):
        return list(self._named.values())

    def zero_grad(self):
        for t in self._named.values():
            t.grad = None

    def n_scalars(self) -> int:
        return sum(t.size for t in self._named.values())


def param_shapes(cfg: ModelConfig) -> dict:
    """name -> shape of every parameter, in canonical order: the config fixes
    both, since W_A is ctx_len x ctx_len and every other weight is sized by
    d_model. Each layer's attention entries are attention_shapes'."""
    d, r, k = cfg.d_model, cfg.mlp_ratio, CONV_KERNEL
    shapes = {}
    cin = IN_CHANNELS
    for i in range(cfg.conv_blocks):
        shapes[f"tokenizer.conv{i}.w"] = (d, cin, k, k)
        shapes[f"tokenizer.conv{i}.b"] = (d,)
        cin = d
    attn = attention_shapes(cfg.attn_config())
    for i in range(cfg.n_layers):
        shapes[f"layer{i}.ln1.g"] = shapes[f"layer{i}.ln1.b"] = (d,)
        shapes.update((f"layer{i}.attn.{w}", shape) for w, shape in attn.items())
        shapes[f"layer{i}.ln2.g"] = shapes[f"layer{i}.ln2.b"] = (d,)
        shapes[f"layer{i}.mlp.w1"] = (d, r * d)
        shapes[f"layer{i}.mlp.b1"] = (r * d,)
        shapes[f"layer{i}.mlp.w2"] = (r * d, d)
        shapes[f"layer{i}.mlp.b2"] = (d,)
    shapes["final_ln.g"] = shapes["final_ln.b"] = shapes["seqpool.g"] = (d,)
    shapes["head.w"] = (d, cfg.n_classes)
    shapes["head.b"] = (cfg.n_classes,)
    return shapes


def _is_norm(name: str) -> bool:
    """A layernorm's gain or bias: layer{i}.ln1, layer{i}.ln2 or final_ln."""
    return ".ln" in name or name.startswith("final_ln.")


def init_tensors(shapes: dict, rng: np.random.Generator,
                 dtype=np.float32) -> dict:
    """name -> Tensor for every entry of a name -> shape table, in its order,
    initialized by name and rank: Kaiming-uniform 4-d conv kernels,
    Xavier-uniform 2-d weights, identity W_A (super attention starts as
    W_V-free SDPA), unit layernorm gains, and zero biases and seq-pool
    query. Only the random weights draw from `rng`."""
    def init(name, shape):
        if name.rpartition(".")[2] == "w_a":
            return np.eye(shape[0])
        if len(shape) == 1:
            gain = _is_norm(name) and name.endswith(".g")
            return np.ones(shape) if gain else np.zeros(shape)
        # Kaiming over a conv kernel's (out, in, k, k) fan-in of in * k * k;
        # Xavier over a (fan_in, fan_out) weight
        fan = math.prod(shape[1:]) if len(shape) == 4 else sum(shape)
        bound = math.sqrt(6.0 / fan)
        return rng.uniform(-bound, bound, size=shape)

    return {name: Tensor(np.asarray(init(name, shape), dtype=dtype), requires_grad=True)
            for name, shape in shapes.items()}


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParameterSet:
    """Every tensor of param_shapes(cfg), from init_tensors."""
    return ParameterSet(init_tensors(param_shapes(cfg), stream("init", seed), dtype))


def tokenize(images: Tensor, params: ParameterSet, cfg: ModelConfig) -> Tensor:
    """conv -> relu -> maxpool per block, then row-major flatten of the
    spatial grid into a (B, ctx_len, d_model) token sequence."""
    expect = (IN_CHANNELS, cfg.img_size, cfg.img_size)
    if images.ndim != 4 or images.shape[1:] != expect:
        raise ShapeError(f"tokenize: images {images.shape} do not match "
                         f"(B, {expect[0]}, {expect[1]}, {expect[2]})")
    x = images
    for i in range(cfg.conv_blocks):
        x = conv2d(x, params[f"tokenizer.conv{i}.w"], params[f"tokenizer.conv{i}.b"],
                   stride=1, pad=(CONV_KERNEL - 1) // 2)
        x = relu(x)
        x = maxpool2d(x, k=POOL_KERNEL, stride=POOL_STRIDE, pad=POOL_PAD)
    b = x.shape[0]
    tokens = transpose(x.reshape(b, cfg.d_model, cfg.ctx_len), (0, 2, 1))
    return tokens


def encoder_block(x: Tensor, params: ParameterSet, cfg: ModelConfig,
                  layer_idx: int) -> Tensor:
    if x.ndim != 3 or x.shape[1] != cfg.ctx_len or x.shape[2] != cfg.d_model:
        raise ShapeError(f"encoder_block: input {x.shape} does not match "
                         f"(B, {cfg.ctx_len}, {cfg.d_model})")
    i, acfg = layer_idx, cfg.attn_config()
    weights = {w: params[f"layer{i}.attn.{w}"] for w in attention_shapes(acfg)}
    a = attention_forward(
        layernorm(x, params[f"layer{i}.ln1.g"], params[f"layer{i}.ln1.b"],
                  LAYERNORM_EPS),
        AttentionParams(**weights), acfg)
    x = x + a
    h = layernorm(x, params[f"layer{i}.ln2.g"], params[f"layer{i}.ln2.b"],
                  LAYERNORM_EPS)
    m = linear(gelu(linear(h, params[f"layer{i}.mlp.w1"], params[f"layer{i}.mlp.b1"])),
               params[f"layer{i}.mlp.w2"], params[f"layer{i}.mlp.b2"])
    return x + m


def seq_pool(x: Tensor, g: Tensor) -> Tensor:
    """Softmax(x @ g)-weighted token average: (B, L, d) -> (B, d)."""
    if x.ndim != 3 or g.shape != (x.shape[2],):
        raise ShapeError(f"seq_pool: x {x.shape} does not match g {g.shape}")
    b, _, d = x.shape
    scores = transpose(matmul(x, g.reshape(d, 1)), (0, 2, 1))  # (B, 1, L)
    return matmul(softmax_rows(scores), x).reshape(b, d)


def forward_tokens(tokens: Tensor, params: ParameterSet, cfg: ModelConfig) -> Tensor:
    """Encoder stack, seq pool and head over one graph."""
    x = tokens
    for i in range(cfg.n_layers):
        x = encoder_block(x, params, cfg, i)
    x = layernorm(x, params["final_ln.g"], params["final_ln.b"], LAYERNORM_EPS)
    pooled = seq_pool(x, params["seqpool.g"])
    return linear(pooled, params["head.w"], params["head.b"])


def chunk_work(cfg: ModelConfig) -> int:
    """Activation elements of one chunk, the work run_chunks weighs."""
    return CHUNK * cfg.ctx_len * cfg.d_model


def forward(images: Tensor, params: ParameterSet, cfg: ModelConfig,
            training: bool = False, dropout_seed: int = 0) -> Tensor:
    """Logits for a batch, one graph per CHUNK images on the chunk pool.

    `training` and `dropout_seed` do nothing: the model has no dropout. They
    are kept only because perfbench's harness passes them, and ROADMAP item
    2 deletes them.
    """
    def chunk_logits(x):
        return forward_tokens(tokenize(x, params, cfg), params, cfg)

    return map_chunks(chunk_logits, images, params.tensors(), chunk_work(cfg))


def model_param_count(cfg: ModelConfig) -> dict:
    """Scalars per component, summed from param_shapes(cfg): the attention
    and MLP entries count one encoder layer, total counts every parameter."""
    counts = dict.fromkeys(("tokenizer", "per_layer_attention", "per_layer_mlp",
                            "norms", "seqpool", "head", "total"), 0)
    for name, shape in param_shapes(cfg).items():
        size = math.prod(shape)
        owner, part = name.split(".")[:2]
        if _is_norm(name):
            counts["norms"] += size
        elif owner == "layer0":
            counts["per_layer_attention" if part == "attn" else "per_layer_mlp"] += size
        elif owner in counts:  # tokenizer, seqpool, head
            counts[owner] += size
        counts["total"] += size
    return counts
