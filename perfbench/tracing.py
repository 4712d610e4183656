"""Span recording around the public functions of the cct stack.

A traced run patches the module attributes that `cct.model`, `cct.attention`,
`cct.train` and `cct.tensor` look their callees up by, so every call of a
wrapped function records one span: (name, start, end, parent, flops). Tensor
ops also swap in a timed copy of the backward rule they record on their
output, which is how per-op backward time is attributed without changing the
program. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# The op names the per-layer metrics report, in table order.
OPS = ("linear", "matmul", "gelu", "layernorm", "softmax_rows", "conv2d",
       "maxpool2d", "relu", "transpose", "reshape", "add", "cross_entropy")

# Layer functions, as (module, attribute, span name).
LAYERS = (
    ("model", "tokenize", "model.tokenize"),
    ("model", "encoder_block", "model.encoder_block"),
    ("model", "attention_forward", "attention.forward"),
    ("train", "forward", "model.forward"),
)


def _linear_flops(x, w, b=None) -> int:
    return 2 * (x.size // x.shape[-1]) * w.shape[0] * w.shape[1]


def _matmul_flops(a, b) -> int:
    batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
    return 2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _conv2d_flops(x, w, b, stride=1, pad=0) -> int:
    # the im2col GEMM: (B * ho * wo, cin * k * k) @ (cin * k * k, cout)
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    return 2 * bsz * ho * wo * cin * k * k * cout


# Analytic forward FLOPs of the GEMM ops, from the shapes of their arguments.
FORWARD_FLOPS = {"linear": _linear_flops, "matmul": _matmul_flops,
                 "conv2d": _conv2d_flops}


class Recorder:
    """In-memory span list; spans nest by call order on one thread. While
    disabled, a span costs one call and records nothing."""

    def __init__(self, enabled: bool = True):
        self.spans = []      # [name, start, end, parent index, flops]
        self._stack = []
        self.enabled = enabled

    @contextmanager
    def span(self, name: str, flops: float = 0.0):
        """Record the block as a span; yields the entry (None while disabled)
        so that the caller may rename it."""
        if not self.enabled:
            yield None
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        entry = [name, time.perf_counter(), None, parent, flops]
        self.spans.append(entry)
        self._stack.append(idx)
        try:
            yield entry
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def children(self) -> dict:
        kids = defaultdict(list)
        for i, s in enumerate(self.spans):
            kids[s[3]].append(i)
        return kids


def _wrap_op(rec: Recorder, op: str, fn):
    flops_of = FORWARD_FLOPS.get(op)

    def traced(*args, **kwargs):
        flops = flops_of(*args, **kwargs) if flops_of else 0
        with rec.span(f"tensor.{op}.fwd", flops):
            out = fn(*args, **kwargs)
        rule = getattr(out, "_rule", None)
        if rule is not None and not any(out is a for a in args):
            def traced_rule(g):
                # every GEMM backward is two GEMMs of the forward's size
                with rec.span(f"tensor.{op}.bwd", 2 * flops):
                    return rule(g)
            out._rule = traced_rule
        return out

    traced.__wrapped__ = fn
    return traced


def _wrap_layer(rec: Recorder, name: str, fn, flops_of=None):
    def traced(*args, **kwargs):
        with rec.span(name, flops_of(*args, **kwargs) if flops_of else 0):
            return fn(*args, **kwargs)

    traced.__wrapped__ = fn
    return traced


def next_batch(rec: Recorder, it):
    """The next batch from a `batch_iter` stream, or None at its end, timed
    as a data.batch span; the fetch that ends a stream is data.batch_end."""
    with rec.span("data.batch") as entry:
        batch = next(it, None)
    if batch is None and entry is not None:
        entry[0] = "data.batch_end"
    return batch


def _wrap_batches(rec: Recorder, fn):
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            batch = next_batch(rec, it)
            if batch is None:
                return
            yield batch

    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder, modules: dict):
    """Patch the stack's lookups; returns a function that undoes it.

    `modules` maps "tensor", "model", "attention" and "train" to the
    imported cct modules.
    """
    undo = []

    def patch(mod, attr, new):
        undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    for op in OPS:
        original = getattr(modules["tensor"], op)
        wrapped = _wrap_op(rec, op, original)
        for mod in modules.values():
            if getattr(mod, op, None) is original:
                patch(mod, op, wrapped)
    attention_flops = modules["attention"].attention_flops

    def analytic_attention_flops(x, p, cfg):
        return attention_flops(cfg).total * x.shape[0]

    for mod_key, attr, name in LAYERS:
        mod = modules[mod_key]
        flops_of = analytic_attention_flops if name == "attention.forward" else None
        patch(mod, attr, _wrap_layer(rec, name, getattr(mod, attr), flops_of))
    patch(modules["train"], "batch_iter",
          _wrap_batches(rec, modules["train"].batch_iter))

    def restore():
        for mod, attr, old in reversed(undo):
            setattr(mod, attr, old)

    return restore


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def summarize(rec: Recorder) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and flops."""
    own = rec.self_times()
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "flops": 0.0})
    for s, self_s in zip(rec.spans, own):
        row = out[s[0]]
        row["calls"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += self_s
        row["flops"] += s[4]
    return dict(out)


def subtree_flops(rec: Recorder, root_name: str, prefix: str) -> float:
    """Flops of spans named `prefix*` below every span called `root_name`."""
    kids = rec.children()
    total = 0.0
    stack = [i for i, s in enumerate(rec.spans) if s[0] == root_name]
    while stack:
        i = stack.pop()
        for c in kids.get(i, ()):
            if rec.spans[c][0].startswith(prefix):
                total += rec.spans[c][4]
            stack.append(c)
    return total


def step_accounting(rec: Recorder, step_name: str = "train.step") -> list:
    """For each step span: wall time and the self time of each child subtree.

    The subtree self times sum to the step's wall time minus the step's own
    self time, so they can never exceed it.
    """
    own = rec.self_times()
    kids = rec.children()
    rows = []
    for i, s in enumerate(rec.spans):
        if s[0] != step_name:
            continue
        parts = {}
        for c in kids.get(i, ()):
            stack, subtotal = [c], 0.0
            while stack:
                j = stack.pop()
                subtotal += own[j]
                stack.extend(kids.get(j, ()))
            name = rec.spans[c][0]
            parts[name] = parts.get(name, 0.0) + subtotal
        rows.append({"wall_s": s[2] - s[1], "parts": parts})
    return rows
