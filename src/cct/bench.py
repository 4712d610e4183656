"""Attention micro-benchmarks and parameter reports."""
from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .attention import (
    KINDS,
    AttentionConfig,
    attention_flops,
    attention_forward,
    init_attention_params,
)
from .model import ModelConfig, model_param_count
from .seeding import stream
from .tensor import ConfigError, Tensor, gradients, no_grad

BENCH_FIELDS = ("kind", "d", "ctx", "fwd_ms_median", "fwd_bwd_ms_median",
                "flops_model")


@dataclass(frozen=True)
class BenchRow:
    kind: str
    d: int
    ctx: int
    fwd_ms_median: float
    fwd_bwd_ms_median: float
    flops_model: int


def _bench_heads(d: int) -> int:
    # widest head count <= d/64 that divides d; single head for tiny dims
    for h in (8, 4, 2):
        if d % h == 0 and d // h >= 64:
            return h
    return 1


def _median_ms(fn, iters: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def bench_attention(dims, ctxs, iters: int = 20, warmup: int = 5, seed: int = 0):
    """Median wall time of one-sample forward and forward+backward passes
    for both mechanisms, next to the analytic FLOP totals. The backward is
    one reverse sweep seeded with ones, returning the gradients of the input
    and the attention weights; it writes no .grad."""
    if iters < 10:
        raise ConfigError(f"iters must be >= 10, got {iters}")
    if warmup < 5:
        raise ConfigError(f"warmup must be >= 5, got {warmup}")
    rows = []
    for d in dims:
        for ctx in ctxs:
            x_data = stream("init", seed, d, ctx).standard_normal(
                (1, ctx, d), dtype=np.float32)
            for kind in KINDS:
                cfg = AttentionConfig(kind=kind, d_model=d,
                                      n_heads=_bench_heads(d), ctx_len=ctx)
                params = init_attention_params(cfg, stream("init", seed, 1))
                weights = [w for w in vars(params).values() if w is not None]

                def fwd():
                    with no_grad():
                        attention_forward(Tensor(x_data), params, cfg)

                def fwd_bwd():
                    x = Tensor(x_data, requires_grad=True)
                    y = attention_forward(x, params, cfg)
                    gradients(y, np.ones_like(y.data), (x, *weights))

                rows.append(BenchRow(
                    kind=kind, d=d, ctx=ctx,
                    fwd_ms_median=_median_ms(fwd, iters, warmup),
                    fwd_bwd_ms_median=_median_ms(fwd_bwd, iters, warmup),
                    flops_model=attention_flops(cfg).total))
    return rows


def write_bench_csv(rows, f) -> None:
    w = csv.writer(f)
    w.writerow(BENCH_FIELDS)
    for r in rows:
        d = dataclasses.asdict(r)
        w.writerow([d[k] for k in BENCH_FIELDS])


def crossover_warnings(rows) -> list:
    """Forward-latency pairs where the FLOP model predicts the faster kind
    but measurement disagrees. Informational only: small kernels are memory
    bound and timer noise dominates, so this never fails a run."""
    by_key = {(r.kind, r.d, r.ctx): r for r in rows}
    warnings = []
    for (kind, d, ctx), r in by_key.items():
        if kind != "super" or ctx >= d:
            continue
        other = by_key.get(("sdpa", d, ctx))
        if other and r.fwd_ms_median > other.fwd_ms_median:
            warnings.append(
                f"warning: super fwd {r.fwd_ms_median:.3f} ms > sdpa "
                f"{other.fwd_ms_median:.3f} ms at d={d}, ctx={ctx} despite "
                f"smaller FLOP count (hardware-dependent, not a failure)")
    return warnings


# ---------------------------------------------------------------------------
# parameter report
# ---------------------------------------------------------------------------

def param_report(cfg: ModelConfig) -> str:
    """Component-wise parameter counts for both attention kinds at the same
    dims, plus super/sdpa ratios, as text."""
    counts = {kind: model_param_count(dataclasses.replace(cfg, attn_kind=kind))
              for kind in KINDS}
    attn_ratio = counts["super"]["per_layer_attention"] \
        / counts["sdpa"]["per_layer_attention"]
    total_ratio = counts["super"]["total"] / counts["sdpa"]["total"]

    lines = [f"model d={cfg.d_model} layers={cfg.n_layers} heads={cfg.n_heads} "
             f"ctx={cfg.ctx_len} classes={cfg.n_classes}",
             f"{'component':>20s} {'sdpa':>12s} {'super':>12s}"]
    for k in counts["sdpa"]:
        lines.append(f"{k:>20s} {counts['sdpa'][k]:>12d} {counts['super'][k]:>12d}")
    lines.append(f"{'attention ratio':>20s} {attn_ratio:>25.6f}")
    lines.append(f"{'total ratio':>20s} {total_ratio:>25.6f}")
    return "\n".join(lines)
