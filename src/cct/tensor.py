"""Reverse-mode autodiff over numpy arrays.

Ops record a graph as tensors are combined; backward() replays a
topologically ordered tape once and accumulates gradients into leaf
tensors. float32 is the working precision; float64 inputs stay float64
so the gradient checker can run the same kernels at high precision.

Threads: one pool of as many workers as this process has cores runs every
large kernel, split over the leading (batch) axis; OpenBLAS is set to one
thread at import so that it does not compete with that pool. No part ever
splits a sum, so the bytes do not depend on the number of cores.
"""
from __future__ import annotations

import ctypes
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np
from scipy.special import ndtr


class ShapeError(ValueError):
    pass


class ConfigError(ValueError):
    pass


class AutodiffError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads")


def _pin_openblas() -> list:
    """Set every OpenBLAS mapped into this process to one thread.

    After each GEMM, OpenBLAS's own workers busy-wait on the cores that the
    pool below needs. Returns (library path, setter name) per pinned library.
    """
    try:
        with open("/proc/self/maps") as f:
            mapped = {line.split(maxsplit=5)[-1].strip() for line in f}
    except OSError:
        return []
    pinned = []
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned.append((path, name))
                break
    return pinned


_OPENBLAS = _pin_openblas()
# An unpinned BLAS keeps its own threads, and the pool then stays at one.
_WORKERS = len(os.sched_getaffinity(0)) if _OPENBLAS else 1
_pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1),
                           thread_name_prefix="cct-kernel")
_in_part = threading.local()
# Elements (or multiply-adds) one part must hold to be worth a thread handoff.
_GRAIN = 1 << 15


def _run_part(fn, rows) -> None:
    _in_part.active = True
    try:
        fn(rows)
    finally:
        _in_part.active = False


def _split(fn, n: int, row_work: int = 1, min_rows: int = 1) -> None:
    """Run fn(rows) over contiguous slices of range(n), one per worker.

    Each part has at least min_rows rows and _GRAIN work (row_work per row);
    the calling thread does the first part itself. A split called inside a
    part runs whole, so the pool cannot wait on itself.
    """
    parts = min(_WORKERS, n // max(1, min_rows), n * row_work // _GRAIN)
    if parts < 2 or getattr(_in_part, "active", False):
        fn(slice(0, n))
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    rest = [_pool.submit(_run_part, fn, slice(lo, hi))
            for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        _run_part(fn, slice(0, bounds[1]))
    finally:
        wait(rest)  # the other parts write into the caller's arrays
    for f in rest:
        f.result()


def _split_rows(fn, a: np.ndarray, sums: bool = False) -> None:
    """_split over the leading axis of a; a 0-d array is one part.

    A row sum adds in the order the row's memory layout sets, so a kernel
    that sums last-axis rows laid out like a (sums=True) splits only a
    C-contiguous a of two or more dims, whose parts lay out each row as the
    whole does. Otherwise fn(...) runs once over everything.
    """
    if a.ndim == 0 or (sums and (a.ndim < 2 or not a.flags.c_contiguous)):
        fn(...)
    else:
        n = a.shape[0]
        _split(fn, n, a.size // max(1, n))


def _empty_result(*operands, dtype=None) -> np.ndarray:
    """An empty array laid out as numpy lays out an elementwise result of the
    operands: in their shared axis order, or in C order where they differ."""
    it = np.nditer((*operands, None), flags=["zerosize_ok"],
                   op_flags=[["readonly"]] * len(operands) + [["writeonly", "allocate"]],
                   op_dtypes=[None] * len(operands) + [dtype])
    return it.operands[-1]


# OpenBLAS runs a GEMM of at most 100**3 multiply-adds through its
# small-matrix kernels, whose sums depend on the row count. A larger sgemm
# gives the same bits for any split of its rows; on OpenBLAS 0.3.31 a dgemm
# does not, so 2-D float64 products stay whole. tests/test_kernel_identity.py
# checks the model's GEMMs byte for byte against unsplit OpenBLAS.
_SMALL_GEMM = 100 ** 3


def _gemm(a: np.ndarray, b: np.ndarray, bias=None) -> np.ndarray:
    """a @ b (+ bias), each part of the output rows its own BLAS call.

    A stacked product is split over its leading batch axis, so every matrix
    is the same BLAS call as in one np.matmul. A 2-D one is split over rows
    only where each part stays above the small-matrix kernels.
    """
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    out = np.empty(shape, dtype=np.result_type(a, b))
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    if len(shape) == 2:
        # numpy computes a @ a.T as syrk and a one-row product as gemv
        splittable = (out.dtype == np.float32 and min(m, k, n) > 1
                      and not np.may_share_memory(a, b))
        min_rows = max(2, _SMALL_GEMM // max(1, k * n) + 1) if splittable else m
        split_a, split_b, row_work = True, False, k * n
    else:
        min_rows = 1
        split_a = a.ndim == len(shape) and a.shape[0] == shape[0]
        split_b = b.ndim == len(shape) and b.shape[0] == shape[0]
        row_work = m * k * n * math.prod(shape[1:-2])

    def part(rows):
        np.matmul(a[rows] if split_a else a, b[rows] if split_b else b, out=out[rows])
        if bias is not None:
            out[rows] += bias

    _split(part, shape[0], row_work, min_rows)
    return out


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


def _recording(parents) -> bool:
    """Whether an op on these parents records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _record(op: str, out_data: np.ndarray, parents, rule) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.node_id = next(_ids)
    if _recording(parents):
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
                flow[pid] = pg if pid not in flow else _add(flow[pid], pg)


# ---------------------------------------------------------------------------
# elementwise / plumbing ops
# ---------------------------------------------------------------------------

def _add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y; two C-contiguous arrays of one shape and dtype add in row parts."""
    if (x.shape != y.shape or x.dtype != y.dtype
            or not (x.flags.c_contiguous and y.flags.c_contiguous)):
        return x + y
    out = np.empty_like(x)
    _split_rows(lambda r: np.add(x[r], y[r], out=out[r]), x)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = _add(a.data, b.data)
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
        out = _gemm(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"matmul: incompatible operands {a.shape} and {b.shape}") from e

    def rule(g):
        da = _unbroadcast(_gemm(g, np.swapaxes(b.data, -1, -2)), a.shape)
        db = _unbroadcast(_gemm(np.swapaxes(a.data, -1, -2), g), b.shape)
        return da, db

    return _record("matmul", out, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) over the last axis; x may carry any leading dims."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: x {x.shape} does not match w {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias {b.shape} does not match w {w.shape}")
    d_in, d_out = w.shape
    # one (B*L, d_in) GEMM instead of one per leading index
    out = _gemm(x.data.reshape(-1, d_in), w.data, None if b is None else b.data)
    out = out.reshape(x.shape[:-1] + (d_out,))

    def rule(g):
        gf = g.reshape(-1, d_out)
        dw = _gemm(x.data.reshape(-1, d_in).T, gf)  # split over d_in
        dx = _gemm(gf, w.data.T).reshape(x.shape)
        if b is None:
            return dx, dw
        return dx, dw, gf.sum(axis=0)

    return _record("linear", out, (x, w) if b is None else (x, w, b), rule)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    _split_rows(lambda r: np.maximum(x[r], 0, out=out[r]), x)

    def rule(g):
        d = _empty_result(g, x, dtype=g.dtype)
        _split_rows(lambda r: np.multiply(g[r], x[r] > 0, out=d[r]), d)
        return (d,)  # subgradient 0 at 0

    return _record("relu", out, (a,), rule)


_INV_SQRT_2PI = 0.3989422804014327


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx [x * Phi(x)] = Phi(x) + x * phi(x), given cdf = Phi(x); a new array."""
    t = np.multiply(-0.5, x)
    t *= x
    np.exp(t, out=t)
    np.multiply(x, t, out=t)
    t *= _INV_SQRT_2PI
    np.add(cdf, t, out=t)
    return t


def gelu(a: Tensor) -> Tensor:
    x = a.data
    cdf = np.empty_like(x)  # kept for the backward: ndtr is the costly part
    out = np.empty_like(x)

    def forward(r):
        ndtr(x[r], out=cdf[r])
        np.multiply(x[r], cdf[r], out=out[r])  # exact x * Phi(x), no tanh fit

    _split_rows(forward, x)

    def rule(g):
        d = np.empty_like(x)
        _split_rows(lambda r: np.multiply(g[r], _gelu_grad(x[r], cdf[r]), out=d[r]), x)
        return (d,)

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
    xd = x.data
    s = np.empty_like(xd)

    def forward(r):
        # shift, exp and normalise in place on one buffer
        sr = s[r]
        if scale != 1.0:
            np.multiply(xd[r], scale, out=sr)
            sr -= sr.max(axis=-1, keepdims=True)
        else:
            np.subtract(xd[r], xd[r].max(axis=-1, keepdims=True), out=sr)
        np.exp(sr, out=sr)
        sr /= sr.sum(axis=-1, keepdims=True)

    _split_rows(forward, xd, sums=True)

    def rule(g):
        # one buffer, laid out like g, holds g * s, then g - dot, then
        # s * (g - dot), then * scale
        dz = _empty_result(g, s)

        def backward(r):
            dzr = dz[r]
            np.multiply(g[r], s[r], out=dzr)
            dot = dzr.sum(axis=-1, keepdims=True)
            np.subtract(g[r], dot, out=dzr)
            np.multiply(s[r], dzr, out=dzr)
            if scale != 1.0:
                dzr *= scale

        _split_rows(backward, dz, sums=True)
        return (dz,)

    return _record("softmax_rows", s, (x,), rule)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layernorm: gamma {gamma.shape} / beta {beta.shape} "
                         f"do not match feature dim {d}")
    xd, gd, bd = x.data, gamma.data, beta.data
    xhat = np.empty_like(xd)
    out = np.empty_like(xd)  # (x - mu)^2 first, the output after
    inv = np.empty(xd.shape[:-1] + (1,), dtype=np.result_type(xd, 1.0))

    def forward(r):
        xr, xhr, outr = xd[r], xhat[r], out[r]
        np.subtract(xr, xr.mean(axis=-1, keepdims=True), out=xhr)
        np.multiply(xhr, xhr, out=outr)
        var = outr.mean(axis=-1, keepdims=True)
        np.divide(1.0, np.sqrt(var + eps), out=inv[r])
        xhr *= inv[r]
        np.multiply(xhr, gd, out=outr)
        outr += bd

    _split_rows(forward, xd, sums=True)

    def rule(g):
        gh = _empty_result(g, gd)
        t = _empty_result(gh, xhat)

        def backward(r):
            ghr, tr, xhr = gh[r], t[r], xhat[r]
            np.multiply(g[r], gd, out=ghr)
            m1 = ghr.mean(axis=-1, keepdims=True)
            np.multiply(ghr, xhr, out=tr)
            m2 = tr.mean(axis=-1, keepdims=True)
            ghr -= m1
            np.multiply(xhr, m2, out=tr)
            ghr -= tr
            np.multiply(inv[r], ghr, out=ghr)  # dx = inv * (gh - m1 - xhat * m2)
            np.multiply(g[r], xhr, out=tr)

        _split_rows(backward, gh, sums=True)
        # the sums over rows stay whole, in their one order
        dgamma = t.reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        return gh, dgamma, dbeta

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
    out = _gemm(cols, wmat.T, b.data)            # (B, ho*wo, cout)
    out = out.transpose(0, 2, 1).reshape(bsz, cout, ho, wo)

    def rule(g):
        gf = g.reshape(bsz, cout, ho * wo).transpose(0, 2, 1)   # (B, P, cout)
        db = gf.sum(axis=(0, 1))
        gflat = np.empty((bsz, ho * wo, cout), dtype=g.dtype)  # gf, C-contiguous

        def copy(r):
            gflat[r] = gf[r]

        _split_rows(copy, gflat)
        dw = _gemm(gflat.reshape(-1, cout).T, cols.reshape(-1, cin * k * k)).reshape(w.shape)
        dcols = _gemm(gf, wmat)                                 # (B, P, cin*k*k)
        dx = np.empty(x.shape, dtype=dcols.dtype)

        def col2im(r):
            dxp = _col2im(dcols[r], (len(dx[r]), cin, h + 2 * pad, wdt + 2 * pad),
                          k, stride, ho, wo)
            dx[r] = dxp[:, :, pad:pad + h, pad:pad + wdt] if pad else dxp

        _split_rows(col2im, dx)
        return dx, dw, db

    return _record("conv2d", out, (x, w, b), rule)


def maxpool2d(x: Tensor, k: int, stride: int, pad: int = 0) -> Tensor:
    """Max pooling with -inf padding; ties go to the first window element
    (a tie of -0.0 with +0.0 may yield either zero as the value)."""
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

    recording = _recording((x,))
    best = np.empty((bsz, c, ho, wo), dtype=x.dtype)
    # arg is the first window slot (row-major) that holds the max; a window
    # whose max is -inf keeps slot 0
    arg = np.zeros((bsz, c, ho, wo), dtype=np.int32) if recording else None

    def forward(r):
        xp = (np.pad(x.data[r], ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                     constant_values=-np.inf) if pad else x.data[r])
        windows = [xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
                   for i in range(k) for j in range(k)]
        top = best[r]
        top.fill(-np.inf)
        for cand in windows:
            np.fmax(top, cand, out=top)  # skips NaN, as a strict > does
        if not recording:
            return
        slot = arg[r]
        todo = top > -np.inf
        for idx, cand in enumerate(windows):
            hit = cand == top
            hit &= todo
            todo ^= hit
            if idx:
                slot += hit * np.int32(idx)

    _split_rows(forward, best)
    if not recording:
        return _record("maxpool2d", best, (x,), None)

    def rule(g):
        dx = np.empty(x.shape, dtype=g.dtype)

        def backward(r):
            nb = len(dx[r])
            ih, iw = np.divmod(arg[r].astype(np.int64), k)
            rows = ih + np.arange(ho, dtype=np.int64)[:, None] * stride
            cols_ = iw + np.arange(wo, dtype=np.int64)[None, :] * stride
            flat = ((np.arange(nb, dtype=np.int64)[:, None, None, None] * c
                     + np.arange(c, dtype=np.int64)[None, :, None, None]) * hp + rows) * wp + cols_
            # bincount sums in float64, and holds the GIL while it does
            dxp = np.bincount(flat.ravel(), weights=g[r].ravel(),
                              minlength=nb * c * hp * wp).reshape(nb, c, hp, wp)
            dx[r] = dxp[:, :, pad:pad + h, pad:pad + wdt] if pad else dxp

        _split_rows(backward, dx)
        return (dx,)

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
