"""Reverse-mode autodiff over numpy arrays.

Ops record a graph as tensors are combined; backward() replays a
topologically ordered tape once and accumulates gradients into leaf
tensors. float32 is the working precision; float64 inputs stay float64
so the gradient checker can run the same kernels at high precision.

The graph holds nodes, not arrays. An op that records returns a Tensor,
the caller's handle, which holds the output array and a reference to the
op's node; the node holds the op's name, its rule and its parents' nodes (a
leaf parent is held as the leaf Tensor itself). Each op binds, when it runs,
every array and shape its backward rule will read; a rule never reads a
parent's .data or .shape. An output array therefore lives exactly as long as
the caller keeps its Tensor, or a rule binds it: a graph keeps alive only
what backward needs. A parameter's array is bound as it was at forward time,
so a graph's rules see the weights it was built with even after an
optimizer step.

No rule keeps an array it can rebuild exactly. layernorm and gelu record a
remake of their output from arrays their own rule holds (xhat * gamma + beta
and x * Phi(x), the same numpy steps as the forward), and linear, matmul
and mul bind that remake in place of such an operand's array; so no
layernorm or GELU output outlives its caller's Tensor. A sweep rebuilds such
an output once, when its first reader needs it, and frees it when it reaches
the producer's node. relu keeps a bool mask of its input and maxpool2d its
argmax in the smallest unsigned type. no_grad records no remake.

Threads: map_chunks runs a function over fixed slices of CHUNK samples, one
chunk per pool worker, and records the result as one op; its backward runs
each chunk's reverse sweep on the pool and adds the chunks' gradients in
chunk order (sum_chunks). A chunk graph lives from its forward to the end of
its own sweep, so such an op is swept once. Every kernel runs whole on the
thread that calls it, and OpenBLAS is set to one thread at import so that it
does not compete with the pool. Chunk boundaries and the order of the sum
depend only on the batch, so the bytes do not depend on the number of cores.
"""
from __future__ import annotations

import ctypes
import itertools
import os
import threading
from collections import deque
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


def _one_malloc_arena() -> bool:
    """Have glibc's malloc serve every thread from its main arena.

    A pool worker would otherwise get an arena of its own, which keeps much
    of the memory that the chunk graphs free. Must run before the pool's
    threads start; returns whether glibc took the setting.
    """
    try:
        return ctypes.CDLL(None).mallopt(-8, 1) == 1  # M_ARENA_MAX = 1
    except (OSError, AttributeError):  # not glibc
        return False


def _keep_freed_heap() -> bool:
    """Have glibc's malloc keep the memory that a step frees for the next.

    backward frees each chunk graph as its sweep ends. By default glibc then
    hands the free top of the heap back to the kernel and serves large
    arrays from mmap, so the next step page-faults the same memory in again,
    by an amount that differs from step to step and run to run. Freed memory
    now stays in the heap (M_TRIM_THRESHOLD 2**31 - 1), and arrays up to
    32 MiB, glibc's largest threshold, come from it (M_MMAP_THRESHOLD).
    Returns whether glibc took both settings.
    """
    try:
        libc = ctypes.CDLL(None)
        return (libc.mallopt(-1, 2**31 - 1) == 1      # M_TRIM_THRESHOLD
                and libc.mallopt(-3, 32 << 20) == 1)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):  # not glibc
        return False


_OPENBLAS = _pin_openblas()
_ONE_ARENA = _one_malloc_arena()
_KEEP_HEAP = _keep_freed_heap()
# An unpinned BLAS keeps its own threads, and the pool then stays at one.
_WORKERS = len(os.sched_getaffinity(0)) if _OPENBLAS else 1
_local = threading.local()
_pool = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="cct-chunk",
                           initializer=lambda: setattr(_local, "worker", True))
# Samples per chunk: the unit of parallel work and of the gradient sum.
CHUNK = 4
# Activation elements one chunk must hold to be worth a thread handoff. At
# about 2**13 two workers ran a step no faster than one; 2**15 also keeps
# d=16 models inline, whose spans perfbench's tracer can attribute only when
# one thread records them.
_GRAIN = 1 << 15


def run_chunks(fn, n: int, work: int, then=None) -> list:
    """[then(fn(0)), ..., then(fn(n - 1))], one call of fn per pool worker at a time.

    then (the identity by default) runs on the calling thread, in chunk
    order, as soon as fn's result and every earlier one are ready; no result
    is kept after then returns. The calls run inline when there is one chunk
    or one worker, when a chunk holds less than _GRAIN work, or on a pool
    worker, so that the pool never waits on itself. Every call ends before
    the first failure is raised.
    """
    then = then or (lambda r: r)
    if n < 2 or _WORKERS < 2 or work < _GRAIN or getattr(_local, "worker", False):
        return [then(fn(i)) for i in range(n)]
    pending = deque(_pool.submit(fn, i) for i in range(n))
    try:
        return [then(pending.popleft().result()) for _ in range(n)]
    finally:
        wait(pending)


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


class _Node:
    """A recorded op in the graph: its name, rule and parents, and no array."""
    __slots__ = ("node_id", "_op", "_parents", "_rule", "data")
    requires_grad = True

    def __init__(self, op: str, parents, rule):
        self.node_id = next(_ids)
        self._op = op
        # a leaf parent is its own entry in the graph
        self._parents = tuple(p if p._node is None else p._node for p in parents)
        self._rule = rule
        self.data = None


class Tensor:
    """An array and, for an op's recorded output, a reference to the op's
    node; _op, _parents and _rule read that node (a leaf has none)."""
    __slots__ = ("data", "grad", "requires_grad", "node_id", "_node", "_remake")

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
        self._node = None
        self._remake = None

    @property
    def _op(self):
        return None if self._node is None else self._node._op

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _rule(self):
        return None if self._node is None else self._node._rule

    @_rule.setter
    def _rule(self, rule):
        self._node._rule = rule

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


def _record(op: str, out_data: np.ndarray, parents, rule, remake=None) -> Tensor:
    """The output tensor of an op, with a node in the graph when the op
    records; remake, if given, rebuilds out_data exactly from arrays that
    rule already holds."""
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    if _recording(parents):
        out._node = _Node(op, parents, rule)
        out.node_id = out._node.node_id
        out.requires_grad = True
        out._remake = remake
    else:
        out._node = None
        out.node_id = next(_ids)
        out.requires_grad = False
        out._remake = None
    return out


def _kept(t: Tensor):
    """What a rule binds to read t's data: a function that returns the array
    t holds now or, when t's op recorded a remake, t's output rebuilt once
    per sweep (gradients keeps it until it reaches t's node)."""
    remake = t._remake
    if remake is None:
        data = t.data
        return lambda: data
    key = t.node_id

    def rebuilt():
        remade = getattr(_local, "remade", None)
        if remade is None:  # a rule called outside a sweep
            return remake()
        if key not in remade:
            remade[key] = remake()
        return remade[key]

    return rebuilt


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


def gradients(root: Tensor, g: np.ndarray, leaves) -> list:
    """One reverse sweep from root, seeded with g as d(loss)/d(root).

    Returns d(loss)/d(leaf) for each of `leaves` (None where no path leads),
    possibly as views of arrays a rule returned. It writes nothing into the
    graph, so sweeps may run at once and again on the same graph; only a
    chunks op's rule frees what it holds, and runs once (map_chunks).
    Outputs that rules rebuild are kept per sweep, on the calling thread,
    from their first reader to their producer's node, which comes after
    every reader.
    """
    flow = {root.node_id: g}
    outer, remade = getattr(_local, "remade", None), {}
    _local.remade = remade
    try:
        for t in reversed(tape(root)):
            remade.pop(t.node_id, None)
            gt = flow.pop(t.node_id, None)
            if gt is None:
                continue
            for p, pg in zip(t._parents, t._rule(gt)):
                if pg is not None and p.requires_grad:
                    pid = p.node_id
                    flow[pid] = pg if pid not in flow else flow[pid] + pg
    finally:
        _local.remade = outer
    return [flow.get(t.node_id) for t in leaves]


def backward(loss: Tensor) -> None:
    """One reverse sweep; leaf .grad accumulates additively across calls."""
    if loss.data.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad or loss._op is None:
        raise AutodiffError("backward: no recorded graph reaches this tensor")
    leaves = list({p.node_id: p for t in tape(loss) for p in t._parents
                   if p._op is None and p.requires_grad}.values())
    for p, pg in zip(leaves, gradients(loss, np.ones_like(loss.data), leaves)):
        if pg is not None:
            # copy on first write: rules may alias g across parents
            p.grad = np.array(pg, dtype=p.data.dtype) if p.grad is None else p.grad + pg


def _rows(c: int) -> slice:
    """Chunk c's samples."""
    return slice(c * CHUNK, (c + 1) * CHUNK)


def _n_chunks(n: int) -> int:
    return max(1, -(-n // CHUNK))


def sum_chunks(fn, n: int, work: int, k: int):
    """fn over the CHUNK-sample slices of n samples through run_chunks, with
    the chunks' gradients summed in chunk order.

    fn(c, rows) returns (result, grads), grads being k arrays or Nones. Each
    chunk's grads are added, as they arrive, into sums taken in chunk order
    (a copy of d0, then += d1, += d2, ...: the bytes of d0 + d1 + ...; None
    is skipped) and then dropped. Returns ([each chunk's result], sums).
    """
    sums = [None] * k

    def add(r):
        result, grads = r
        for i, pg in enumerate(grads):
            if pg is None:
                continue
            if sums[i] is None:
                sums[i] = np.array(pg)  # pg may be a view of a rule's array
            else:
                sums[i] += pg
        return result

    results = run_chunks(lambda c: fn(c, _rows(c)), _n_chunks(n), work, then=add)
    return results, sums


def map_chunks(fn, x: Tensor, params, work: int) -> Tensor:
    """fn over CHUNK-sample slices of x, concatenated, as one op on (x, *params).

    fn(x_chunk, c) builds chunk c's graph from x_chunk and params, which must
    be leaves; the chunks run through run_chunks (work: activation elements
    per chunk). A chunk graph keeps only its output's array and what its
    rules bind. The rule runs each chunk's sweep the same way and sums the
    parameter gradients with sum_chunks. It drops each chunk graph as that
    chunk's sweep starts, so the graph is freed by the end of the sweep and
    the op is swept once: a second backward raises AutodiffError.
    """
    n = len(x.data)
    params = tuple(params)
    need_dx = x.requires_grad

    def forward(c):
        xc = Tensor(x.data[_rows(c)], requires_grad=need_dx)
        return xc, fn(xc, c)

    chunks = run_chunks(forward, _n_chunks(n), work)
    out = np.concatenate([y.data for _, y in chunks])
    graphs = dict(enumerate(chunks))

    def rule(g):
        def sweep(c, rows):
            try:
                xc, y = graphs.pop(c)  # one step, so two sweeps cannot both take it
            except KeyError:
                raise AutodiffError("backward: a chunks op is swept once, and an "
                                    "earlier backward freed its chunk graphs") from None
            dx, *grads = gradients(y, g[rows], (xc, *params))
            return dx, grads

        dxs, sums = sum_chunks(sweep, n, work, len(params))
        return (np.concatenate(dxs) if need_dx else None, *sums)

    return _record("chunks", out, (x, *params), rule)


# ---------------------------------------------------------------------------
# elementwise / plumbing ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from e

    sa, sb = a.shape, b.shape

    def rule(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record("add", out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from e

    a_of, b_of, sa, sb = _kept(a), _kept(b), a.shape, b.shape

    def rule(g):
        return _unbroadcast(g * b_of(), sa), _unbroadcast(g * a_of(), sb)

    return _record("mul", out, (a, b), rule)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _record("scale", a.data * s, (a,), lambda g: (g * s,))


def tensor_sum(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())
    shape = a.shape

    def rule(g):
        return (np.broadcast_to(g, shape),)

    return _record("sum", out, (a,), rule)


def reshape(a: Tensor, shape) -> Tensor:
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {a.shape} -> {shape}") from e
    shape_in = a.shape

    def rule(g):
        return (g.reshape(shape_in),)

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

    a_of, b_of, sa, sb = _kept(a), _kept(b), a.shape, b.shape

    def rule(g):
        da = _unbroadcast(g @ np.swapaxes(b_of(), -1, -2), sa)
        db = _unbroadcast(np.swapaxes(a_of(), -1, -2) @ g, sb)
        return da, db

    return _record("matmul", out, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) over the last axis; x may carry any leading dims."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: x {x.shape} does not match w {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias {b.shape} does not match w {w.shape}")
    d_in, d_out = w.shape
    x_of, xshape, wd, has_b = _kept(x), x.shape, w.data, b is not None
    # one (B*L, d_in) GEMM instead of one per leading index
    out = x.data.reshape(-1, d_in) @ wd
    if b is not None:
        out += b.data
    out = out.reshape(xshape[:-1] + (d_out,))

    def rule(g):
        gf = g.reshape(-1, d_out)
        dw = x_of().reshape(-1, d_in).T @ gf
        dx = (gf @ wd.T).reshape(xshape)
        if not has_b:
            return dx, dw
        return dx, dw, gf.sum(axis=0)

    return _record("linear", out, (x, w) if b is None else (x, w, b), rule)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    if not _recording((a,)):
        return _record("relu", out, (a,), None)
    mask = a.data > 0  # subgradient 0 at 0

    def rule(g):
        return (g * mask,)

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
    ad = a.data
    cdf = ndtr(ad)  # kept for the backward: ndtr is the costly part
    out = ad * cdf  # exact x * Phi(x), no tanh fit

    def rule(g):
        d = _gelu_grad(ad, cdf)
        np.multiply(g, d, out=d)
        return (d,)

    return _record("gelu", out, (a,), rule, remake=lambda: ad * cdf)


# ---------------------------------------------------------------------------
# softmax / layernorm
# ---------------------------------------------------------------------------

def softmax_rows(x: Tensor, scale: float = 1.0) -> Tensor:
    """Softmax over the last axis of scale * x, max-shifted for stability."""
    # shift, exp and normalise in place on one buffer
    if scale != 1.0:
        s = x.data * scale
        s -= s.max(axis=-1, keepdims=True)
    else:
        s = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def rule(g):
        # one buffer holds g * s, then g - dot, then s * (g - dot), then * scale
        dz = g * s
        dot = dz.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=dz)
        np.multiply(s, dz, out=dz)
        if scale != 1.0:
            dz *= scale
        return (dz,)

    return _record("softmax_rows", s, (x,), rule)


def _affine(xhat: np.ndarray, gd: np.ndarray, bd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = xhat * gamma + beta, in two in-place steps; returns out."""
    np.multiply(xhat, gd, out=out)
    out += bd
    return out


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layernorm: gamma {gamma.shape} / beta {beta.shape} "
                         f"do not match feature dim {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    out = np.multiply(xhat, xhat)  # (x - mu)^2 first, the output after
    var = out.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    gd, bd = gamma.data, beta.data
    _affine(xhat, gd, bd, out)

    def rule(g):
        gh = g * gd
        m1 = gh.mean(axis=-1, keepdims=True)
        t = gh * xhat
        m2 = t.mean(axis=-1, keepdims=True)
        np.multiply(g, xhat, out=t)
        dgamma = t.reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        gh -= m1
        np.multiply(xhat, m2, out=t)
        gh -= t
        np.multiply(inv, gh, out=gh)  # dx = inv * (gh - m1 - xhat * m2)
        return gh, dgamma, dbeta

    return _record("layernorm", out, (x, gamma, beta), rule,
                   remake=lambda: _affine(xhat, gd, bd, np.empty_like(xhat)))


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
    out = np.ascontiguousarray(out.transpose(0, 2, 1)).reshape(bsz, cout, ho, wo)
    need_dx = x.requires_grad

    def rule(g):
        gf = g.reshape(bsz, cout, ho * wo).transpose(0, 2, 1)   # (B, P, cout)
        db = gf.sum(axis=(0, 1))
        # a C-ordered copy of gf: at batch 1 a reshape would keep its layout
        gflat = np.ascontiguousarray(gf).reshape(-1, cout)
        dw = (gflat.T @ cols.reshape(-1, cin * k * k)).reshape(cout, cin, k, k)
        if not need_dx:
            return None, dw, db
        dcols = gf @ wmat                                       # (B, P, cin*k*k)
        dxp = _col2im(dcols, (bsz, cin, h + 2 * pad, wdt + 2 * pad), k, stride, ho, wo)
        dx = dxp[:, :, pad:pad + h, pad:pad + wdt] if pad else dxp
        return np.ascontiguousarray(dx), dw, db

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

    xp = (np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                 constant_values=-np.inf) if pad else x.data)
    windows = [xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
               for i in range(k) for j in range(k)]
    best = np.full((bsz, c, ho, wo), -np.inf, dtype=x.dtype)
    for cand in windows:
        np.fmax(best, cand, out=best)  # skips NaN, as a strict > does
    if not _recording((x,)):
        return _record("maxpool2d", best, (x,), None)
    # arg is the first window slot (row-major) that holds the max; a window
    # whose max is -inf keeps slot 0
    arg = np.zeros((bsz, c, ho, wo), dtype=np.min_scalar_type(k * k - 1))
    todo = best > -np.inf
    for idx, cand in enumerate(windows):
        hit = cand == best
        hit &= todo
        todo ^= hit
        if idx:
            arg += hit * arg.dtype.type(idx)

    def rule(g):
        ih, iw = np.divmod(arg.astype(np.int64), k)
        rows = ih + np.arange(ho, dtype=np.int64)[:, None] * stride
        cols_ = iw + np.arange(wo, dtype=np.int64)[None, :] * stride
        flat = ((np.arange(bsz, dtype=np.int64)[:, None, None, None] * c
                 + np.arange(c, dtype=np.int64)[None, :, None, None]) * hp + rows) * wp + cols_
        # bincount sums in float64; only the cropped pixels are cast back
        dxp = np.bincount(flat.ravel(), weights=g.ravel(),
                          minlength=bsz * c * hp * wp).reshape(bsz, c, hp, wp)
        dx = dxp[:, :, pad:pad + h, pad:pad + wdt] if pad else dxp
        return (np.ascontiguousarray(dx, dtype=g.dtype),)

    return _record("maxpool2d", best, (x,), rule)


# ---------------------------------------------------------------------------
# dropout / cross entropy
# ---------------------------------------------------------------------------

def dropout(x: Tensor, p: float, training: bool, seed) -> Tensor:
    """Inverted dropout; seed is an int or a numpy Generator to draw from."""
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


def checked_labels(labels, shape) -> np.ndarray:
    """labels as an array of class ids for (batch, classes) logits of shape."""
    labels = np.asarray(labels)
    bsz, ncls = shape
    if labels.shape != (bsz,):
        raise ShapeError(f"cross_entropy: labels {labels.shape} do not match batch {bsz}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ConfigError(f"cross_entropy: labels must be integers, got {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= ncls):
        raise IndexError(f"cross_entropy: label out of range [0, {ncls})")
    return labels


def xent_rows(z: np.ndarray, labels: np.ndarray):
    """Softmax cross entropy of each row of logits z, max-shifted: (the
    per-row losses, shape (rows, 1), and the softmax)."""
    zs = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(zs).sum(axis=-1, keepdims=True))
    picked = zs[np.arange(len(z)), labels][:, None]
    return lse - picked, np.exp(zs - lse)


def xent_grad(soft: np.ndarray, labels: np.ndarray, scale) -> np.ndarray:
    """Rows of d(mean loss)/d(logits): (softmax - one-hot) * scale, where
    scale is d(loss) over the batch size."""
    grad = soft.copy()
    grad[np.arange(len(soft)), labels] -= 1.0
    return grad * scale


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross entropy; labels are integer class ids."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
    labels = checked_labels(labels, logits.shape)
    z = logits.data
    losses, soft = xent_rows(z, labels)
    out = np.asarray(losses.mean(), dtype=z.dtype)
    bsz = len(z)

    def rule(g):
        return (xent_grad(soft, labels, g / bsz),)

    return _record("cross_entropy", out, (logits,), rule)
