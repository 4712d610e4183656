"""Reverse-mode autodiff over numpy arrays.

Ops record a graph as tensors are combined; backward() replays a
topologically ordered tape once and accumulates gradients into leaf
tensors. float32 is the working precision; float64 inputs stay float64
so the gradient checker can run the same kernels at high precision.
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np
from scipy.special import ndtr


class ShapeError(ValueError):
    pass


class ConfigError(ValueError):
    pass


class AutodiffError(RuntimeError):
    pass


_ids = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (eval / data paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "node_id", "_op", "_parents", "_rule")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, np.ndarray):
            arr = data if dtype is None else data.astype(dtype, copy=False)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float32)
        else:
            arr = np.asarray(data, dtype=dtype or np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self.node_id = next(_ids)
        self._op = None
        self._parents = ()
        self._rule = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, -_wrap(other, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _record(op: str, out_data: np.ndarray, parents, rule) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.node_id = next(_ids)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._op = op
        out._parents = tuple(parents)
        out._rule = rule
    else:
        out.requires_grad = False
        out._op = None
        out._parents = ()
        out._rule = None
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    # collapse axes that numpy broadcasting expanded in the forward pass
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

def tape(root: Tensor) -> list:
    """Recorded tensors reachable from root, parents before children."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.node_id in visited or node._op is None:
            continue
        visited.add(node.node_id)
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """One reverse sweep; leaf .grad accumulates additively across calls."""
    if loss.data.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad or loss._op is None:
        raise AutodiffError("backward: no recorded graph reaches this tensor")
    flow = {loss.node_id: np.ones_like(loss.data)}
    for t in reversed(tape(loss)):
        g = flow.pop(t.node_id, None)
        if g is None:
            continue
        for p, pg in zip(t._parents, t._rule(g)):
            if pg is None or not p.requires_grad:
                continue
            if p._op is None:  # leaf
                # copy on first write: rules may alias g across parents
                p.grad = np.array(pg, dtype=p.data.dtype) if p.grad is None else p.grad + pg
            else:
                pid = p.node_id
                flow[pid] = pg if pid not in flow else flow[pid] + pg


# ---------------------------------------------------------------------------
# elementwise / plumbing ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from e

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from e

    def rule(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", out, (a, b), rule)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _record("scale", a.data * s, (a,), lambda g: (g * s,))


def tensor_sum(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def rule(g):
        return (np.broadcast_to(g, a.shape),)

    return _record("sum", out, (a,), rule)


def reshape(a: Tensor, shape) -> Tensor:
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {a.shape} -> {shape}") from e

    def rule(g):
        return (g.reshape(a.shape),)

    return _record("reshape", out, (a,), rule)


def transpose(a: Tensor, axes=None) -> Tensor:
    inv = None if axes is None else tuple(int(i) for i in np.argsort(axes))
    out = np.transpose(a.data, axes)

    def rule(g):
        return (np.transpose(g, inv),)

    return _record("transpose", out, (a,), rule)


# ---------------------------------------------------------------------------
# matmul / linear
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible operands {a.shape} and {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError as e:
        raise ShapeError(f"matmul: incompatible operands {a.shape} and {b.shape}") from e

    def rule(g):
        da = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        db = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return da, db

    return _record("matmul", out, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) over the last axis; x may carry any leading dims."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: x {x.shape} does not match w {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias {b.shape} does not match w {w.shape}")
    out = x.data @ w.data
    if b is not None:
        out = out + b.data

    d_in, d_out = w.shape

    def rule(g):
        gf = g.reshape(-1, d_out)
        dw = x.data.reshape(-1, d_in).T @ gf
        dx = g @ w.data.T
        if b is None:
            return dx, dw
        return dx, dw, gf.sum(axis=0)

    return _record("linear", out, (x, w) if b is None else (x, w, b), rule)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def rule(g):
        return (g * (a.data > 0),)  # subgradient 0 at 0

    return _record("relu", out, (a,), rule)


_INV_SQRT_2PI = 0.3989422804014327


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    # d/dx [x * Phi(x)] = Phi(x) + x * phi(x)
    return ndtr(x) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def gelu(a: Tensor) -> Tensor:
    out = a.data * ndtr(a.data)  # exact x * Phi(x), no tanh fit

    def rule(g):
        return (g * _gelu_grad(a.data),)

    return _record("gelu", out, (a,), rule)


_ACTIVATIONS = {"relu": relu, "gelu": gelu}


def activation(kind: str, x: Tensor) -> Tensor:
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(f"unknown activation kind: {kind!r}") from None
    return fn(x)


# ---------------------------------------------------------------------------
# softmax / layernorm
# ---------------------------------------------------------------------------

def softmax_rows(x: Tensor, scale: float = 1.0) -> Tensor:
    """Softmax over the last axis of scale * x, max-shifted for stability."""
    z = x.data * scale if scale != 1.0 else x.data
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        dz = s * (g - dot)
        return (dz * scale if scale != 1.0 else dz,)

    return _record("softmax_rows", s, (x,), rule)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layernorm: gamma {gamma.shape} / beta {beta.shape} "
                         f"do not match feature dim {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def rule(g):
        gh = g * gamma.data
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (gh - m1 - xhat * m2)
        dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        return dx, dgamma, dbeta

    return _record("layernorm", out, (x, gamma, beta), rule)


# ---------------------------------------------------------------------------
# conv2d / maxpool2d
# ---------------------------------------------------------------------------

def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    b, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, shape=(b, ho, wo, c, k, k),
        strides=(s0, s2 * stride, s3 * stride, s1, s2, s3), writeable=False)
    return win.reshape(b, ho * wo, c * k * k)


def _col2im(dcols: np.ndarray, xpshape, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    b, c, hp, wp = xpshape
    dxp = np.zeros(xpshape, dtype=dcols.dtype)
    dc = dcols.reshape(b, ho, wo, c, k, k)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                dc[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dxp


def _out_dim(size: int, k: int, stride: int, pad: int, op: str) -> int:
    span = size + 2 * pad - k
    if span < 0 or span % stride:
        raise ConfigError(f"{op}: output size is not an integer for input size {size}, "
                          f"k={k}, stride={stride}, pad={pad}")
    return span // stride + 1


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation, NCHW layout, square kernel, zero padding."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d x and w, got {x.shape} and {w.shape}")
    bsz, cin, h, wdt = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin_w != cin:
        raise ShapeError(f"conv2d: x channels {cin} do not match w channels {cin_w}")
    if kh != kw:
        raise ConfigError(f"conv2d: kernel must be square, got {kh}x{kw}")
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias {b.shape} does not match {cout} filters")
    if stride < 1 or pad < 0:
        raise ConfigError(f"conv2d: bad stride={stride} or pad={pad}")
    k = kh
    ho = _out_dim(h, k, stride, pad, "conv2d")
    wo = _out_dim(wdt, k, stride, pad, "conv2d")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    cols = _im2col(xp, k, stride, ho, wo)        # (B, ho*wo, cin*k*k)
    wmat = w.data.reshape(cout, -1)
    out = cols @ wmat.T + b.data                 # (B, ho*wo, cout)
    out = out.transpose(0, 2, 1).reshape(bsz, cout, ho, wo)

    def rule(g):
        gf = g.reshape(bsz, cout, ho * wo).transpose(0, 2, 1)   # (B, P, cout)
        db = gf.sum(axis=(0, 1))
        dw = (gf.reshape(-1, cout).T @ cols.reshape(-1, cin * k * k)).reshape(w.shape)
        dcols = gf @ wmat                                       # (B, P, cin*k*k)
        dxp = _col2im(dcols, (bsz, cin, h + 2 * pad, wdt + 2 * pad), k, stride, ho, wo)
        dx = dxp[:, :, pad:pad + h, pad:pad + wdt] if pad else dxp
        return np.ascontiguousarray(dx), dw, db

    return _record("conv2d", out, (x, w, b), rule)


def maxpool2d(x: Tensor, k: int, stride: int, pad: int = 0) -> Tensor:
    """Max pooling with -inf padding; ties go to the first window element."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: need 4-d input, got {x.shape}")
    if k < 1 or stride < 1 or pad < 0:
        raise ConfigError(f"maxpool2d: bad k={k}, stride={stride}, pad={pad}")
    if pad >= k:
        raise ConfigError(f"maxpool2d: pad={pad} >= k={k} puts whole windows in padding")
    bsz, c, h, wdt = x.shape
    # floor semantics: trailing partial windows are dropped
    if h + 2 * pad < k or wdt + 2 * pad < k:
        raise ConfigError(f"maxpool2d: window k={k} larger than padded input {x.shape}")
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wdt + 2 * pad - k) // stride + 1
    hp, wp = h + 2 * pad, wdt + 2 * pad

    xp = (np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                 constant_values=-np.inf) if pad else x.data)
    best = np.full((bsz, c, ho, wo), -np.inf, dtype=x.dtype)
    arg = np.zeros((bsz, c, ho, wo), dtype=np.int32)
    for i in range(k):
        for j in range(k):
            cand = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
            better = cand > best  # strict: first occurrence keeps the max
            best = np.where(better, cand, best)
            if i or j:
                arg = np.where(better, np.int32(i * k + j), arg)

    def rule(g):
        ih, iw = np.divmod(arg.astype(np.int64), k)
        rows = ih + np.arange(ho, dtype=np.int64)[:, None] * stride
        cols_ = iw + np.arange(wo, dtype=np.int64)[None, :] * stride
        flat = ((np.arange(bsz, dtype=np.int64)[:, None, None, None] * c
                 + np.arange(c, dtype=np.int64)[None, :, None, None]) * hp + rows) * wp + cols_
        dxp = np.bincount(flat.ravel(), weights=g.ravel(),
                          minlength=bsz * c * hp * wp).reshape(bsz, c, hp, wp)
        dxp = dxp.astype(g.dtype, copy=False)
        dx = dxp[:, :, pad:pad + h, pad:pad + wdt] if pad else dxp
        return (np.ascontiguousarray(dx),)

    return _record("maxpool2d", best, (x,), rule)


# ---------------------------------------------------------------------------
# dropout / cross entropy
# ---------------------------------------------------------------------------

def dropout(x: Tensor, p: float, training: bool, seed: int) -> Tensor:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"dropout: p must be in [0, 1], got {p}")
    if not training or p == 0.0:
        return x
    if p == 1.0:
        return _record("dropout", np.zeros_like(x.data), (x,),
                       lambda g: (np.zeros_like(g),))
    r = np.random.default_rng(seed).random(x.shape)
    mask = (r >= p).astype(x.data.dtype) * (1.0 / (1.0 - p))

    def rule(g):
        return (g * mask,)

    return _record("dropout", x.data * mask, (x,), rule)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross entropy; labels are integer class ids."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
    labels = np.asarray(labels)
    bsz, ncls = logits.shape
    if labels.shape != (bsz,):
        raise ShapeError(f"cross_entropy: labels {labels.shape} do not match batch {bsz}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ConfigError(f"cross_entropy: labels must be integers, got {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= ncls):
        raise IndexError(f"cross_entropy: label out of range [0, {ncls})")

    z = logits.data
    zs = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(zs).sum(axis=-1, keepdims=True))
    picked = zs[np.arange(bsz), labels][:, None]
    out = np.asarray((lse - picked).mean(), dtype=z.dtype)
    soft = np.exp(zs - lse)

    def rule(g):
        grad = soft.copy()
        grad[np.arange(bsz), labels] -= 1.0
        return (grad * (g / bsz),)

    return _record("cross_entropy", out, (logits,), rule)
