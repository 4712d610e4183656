"""Central-difference gradient checking in float64.

grad_check compares analytic gradients from one reverse sweep against numeric
central differences. run_suite sweeps every differentiable op and both
attention mechanisms with randomized shapes and inputs; kinked ops (relu,
maxpool) get inputs pushed away from their kinks so finite differences stay
valid.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ConfigError, Tensor, gradients, no_grad


@dataclass(frozen=True)
class GradCheckResult:
    ok: bool
    max_rel_err: float
    per_input: tuple


def grad_check(fn, inputs, tol: float = 1e-5, h: float = 1e-5, seed: int = 0) -> GradCheckResult:
    """Check d fn / d input for every element of every input.

    fn maps Tensors to a Tensor; a non-scalar output is reduced with a
    fixed random projection, which seeds the one reverse sweep.
    Relative error per element: |a - n| / max(|a|, |n|, 1).
    """
    inputs = list(inputs)
    for t in inputs:
        if t.dtype != np.float64:
            raise ConfigError(f"grad_check needs float64 inputs, got {t.dtype}")
        t.requires_grad = True

    out = fn(*inputs)
    proj = None
    if out.size != 1:
        proj = np.random.default_rng(seed).normal(size=out.shape)

    def scalar_value() -> float:
        with no_grad():
            o = fn(*inputs)
        return float(o.data.sum() if proj is None else (o.data * proj).sum())

    seed_g = np.ones_like(out.data) if proj is None else proj
    analytic = [np.zeros_like(t.data) if a is None else a
                for t, a in zip(inputs, gradients(out, seed_g, inputs))]

    max_err = 0.0
    per_input = []
    for t, a in zip(inputs, analytic):
        num = np.zeros_like(t.data)
        flat, nf = t.data.ravel(), num.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = scalar_value()
            flat[i] = orig - h
            fm = scalar_value()
            flat[i] = orig
            nf[i] = (fp - fm) / (2 * h)
        err = np.abs(a - num) / np.maximum(np.maximum(np.abs(a), np.abs(num)), 1.0)
        worst = float(err.max()) if err.size else 0.0
        per_input.append(worst)
        max_err = max(max_err, worst)
    return GradCheckResult(ok=max_err < tol, max_rel_err=max_err, per_input=tuple(per_input))


# ---------------------------------------------------------------------------
# op suite
# ---------------------------------------------------------------------------

def _t(rng, *shape) -> Tensor:
    return Tensor(rng.normal(size=shape), dtype=np.float64)


def _nz(rng, *shape) -> Tensor:
    x = rng.normal(size=shape)
    return Tensor(x + np.sign(x) * 0.05, dtype=np.float64)  # clear of the 0 kink


def _distinct(rng, *shape) -> Tensor:
    # well separated values: no near-ties inside pooling windows
    vals = np.arange(np.prod(shape), dtype=np.float64) * 0.1
    rng.shuffle(vals)
    return Tensor(vals.reshape(shape), dtype=np.float64)


def _case_add(rng):
    m, n = rng.integers(2, 5, size=2)
    if rng.random() < 0.5:
        return T.add, [_t(rng, m, n), _t(rng, m, n)]
    return T.add, [_t(rng, m, n), _t(rng, n)]  # broadcast


def _case_reshape(rng):
    m, n = rng.integers(2, 5, size=2)
    return (lambda x: T.reshape(x, (int(n), int(m)))), [_t(rng, m, n)]


def _case_transpose(rng):
    axes = tuple(int(i) for i in rng.permutation(3))
    return (lambda x: T.transpose(x, axes)), [_t(rng, 2, 3, 4)]


def _case_matmul(rng):
    m, k, n = rng.integers(2, 5, size=3)
    if rng.random() < 0.5:
        return T.matmul, [_t(rng, m, k), _t(rng, k, n)]
    return T.matmul, [_t(rng, 2, m, k), _t(rng, k, n)]  # batched lhs


def _case_linear(rng):
    b, m, di, do = rng.integers(2, 5, size=4)
    if rng.random() < 0.5:
        return T.linear, [_t(rng, b, m, di), _t(rng, di, do), _t(rng, do)]
    return T.linear, [_t(rng, m, di), _t(rng, di, do)]


def _case_conv2d(rng):
    c, co = rng.integers(1, 4, size=2)
    stride, pad = (1, 1) if rng.random() < 0.5 else (2, 1)
    fn = lambda x, w, b: T.conv2d(x, w, b, stride=stride, pad=pad)
    return fn, [_t(rng, 2, c, 5, 5), _t(rng, co, c, 3, 3), _t(rng, co)]


def _case_maxpool2d(rng):
    k, stride, pad = (2, 2, 0) if rng.random() < 0.5 else (3, 2, 1)
    fn = lambda x: T.maxpool2d(x, k=k, stride=stride, pad=pad)
    return fn, [_distinct(rng, 2, 2, 6, 6)]


def _case_relu(rng):
    return T.relu, [_nz(rng, 3, 4)]


def _case_gelu(rng):
    return T.gelu, [_t(rng, 3, 4)]


def _case_softmax(rng):
    s = float(rng.uniform(0.2, 2.0))
    return (lambda x: T.softmax_rows(x, scale=s)), [_t(rng, 3, 5)]


def _case_layernorm(rng):
    d = int(rng.integers(3, 6))
    fn = lambda x, g, b: T.layernorm(x, g, b, eps=1e-5)
    return fn, [_t(rng, 2, 3, d), _t(rng, d), _t(rng, d)]


def _case_dropout(rng):
    seed = int(rng.integers(0, 2**31))
    fn = lambda x: T.dropout(x, 0.3, np.random.default_rng(seed))
    return fn, [_t(rng, 4, 5)]


def _case_cross_entropy(rng):
    b, c = int(rng.integers(2, 5)), int(rng.integers(3, 7))
    labels = rng.integers(0, c, size=b)
    return (lambda z: T.cross_entropy(z, labels)), [_t(rng, b, c)]


OP_CASES = {
    "add": _case_add,
    "reshape": _case_reshape,
    "transpose": _case_transpose,
    "matmul": _case_matmul,
    "linear": _case_linear,
    "conv2d": _case_conv2d,
    "maxpool2d": _case_maxpool2d,
    "relu": _case_relu,
    "gelu": _case_gelu,
    "softmax_rows": _case_softmax,
    "layernorm": _case_layernorm,
    "dropout": _case_dropout,
    "cross_entropy": _case_cross_entropy,
}


def _case_sdpa_forward(rng):
    from .attention import AttentionConfig, AttentionParams, sdpa_forward
    h = int(rng.integers(1, 3))
    d = h * int(rng.integers(2, 4))
    el = int(rng.integers(2, 5))
    cfg = AttentionConfig(kind="sdpa", d_model=d, n_heads=h, ctx_len=el)
    fn = lambda x, q, k, v, o: sdpa_forward(
        x, AttentionParams(w_q=q, w_k=k, w_o=o, w_v=v), cfg)
    return fn, [_t(rng, 1, el, d), _t(rng, d, d), _t(rng, d, d),
                _t(rng, d, d), _t(rng, d, d)]


def _case_super_forward(rng):
    from .attention import AttentionConfig, AttentionParams, super_forward
    h = int(rng.integers(1, 3))
    d = h * int(rng.integers(2, 4))
    el = int(rng.integers(2, 5))
    cfg = AttentionConfig(kind="super", d_model=d, n_heads=h, ctx_len=el)
    fn = lambda x, q, k, a, o: super_forward(
        x, AttentionParams(w_q=q, w_k=k, w_o=o, w_a=a), cfg)
    return fn, [_t(rng, 1, el, d), _t(rng, d, d), _t(rng, d, d),
                _t(rng, el, el), _t(rng, d, d)]


MECHANISM_CASES = {
    "sdpa_forward": _case_sdpa_forward,
    "super_forward": _case_super_forward,
}


@dataclass(frozen=True)
class OpReport:
    op: str
    instances: int
    max_rel_err: float
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_suite(instances: int = 100, tol: float = 1e-4, seed: int = 0,
              cases=None) -> list[OpReport]:
    """Gradient-check every case on `instances` random inputs each: by
    default every differentiable op and both attention mechanisms. A case's
    inputs are drawn from its name, so they stay the same whatever other
    cases run beside it."""
    if cases is None:
        cases = {**OP_CASES, **MECHANISM_CASES}
    reports = []
    for op, builder in sorted(cases.items()):
        worst, failures = 0.0, 0
        for i in range(instances):
            rng = np.random.default_rng([seed, zlib.crc32(op.encode()), i])
            fn, inputs = builder(rng)
            res = grad_check(fn, inputs, tol=tol, seed=seed)
            worst = max(worst, res.max_rel_err)
            failures += 0 if res.ok else 1
        reports.append(OpReport(op=op, instances=instances, max_rel_err=worst,
                                failures=failures))
    return reports
