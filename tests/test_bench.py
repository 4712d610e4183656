"""Micro-benchmark output shape and parameter report cross-checks."""
import dataclasses
import io

import pytest

import cct.bench
from cct.attention import AttentionConfig, attention_flops
from cct.bench import (
    BENCH_FIELDS,
    bench_attention,
    crossover_warnings,
    param_report,
    write_bench_csv,
)
from cct.model import ModelConfig, model_param_count
from cct.tensor import ConfigError


def test_bench_row_count_and_flops():
    rows = bench_attention([8, 16], [4], iters=10, warmup=5)
    assert len(rows) == 2 * 1 * 2  # |dims| x |ctxs| x 2 kinds
    for r in rows:
        cfg = AttentionConfig(kind=r.kind, d_model=r.d, n_heads=1, ctx_len=r.ctx)
        assert r.flops_model == attention_flops(cfg).total
        assert r.fwd_ms_median > 0
        assert r.fwd_bwd_ms_median > r.fwd_ms_median


def test_bench_fwd_bwd_writes_no_grad(monkeypatch):
    """The timed backward returns its gradients: no weight's .grad grows
    over the timed iterations."""
    made, real = [], cct.bench.init_attention_params
    monkeypatch.setattr(cct.bench, "init_attention_params",
                        lambda *a, **k: made.append(real(*a, **k)) or made[-1])
    bench_attention([8], [4], iters=10, warmup=5)
    weights = [w for p in made for w in vars(p).values() if w is not None]
    assert len(made) == 2 and len(weights) == 8
    assert all(w.grad is None for w in weights)


def test_bench_rejects_too_few_iters():
    with pytest.raises(ConfigError):
        bench_attention([8], [4], iters=5)
    with pytest.raises(ConfigError):
        bench_attention([8], [4], iters=10, warmup=2)


def test_bench_csv_shape():
    rows = bench_attention([8], [4, 8], iters=10, warmup=5)
    buf = io.StringIO()
    write_bench_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(BENCH_FIELDS)
    assert len(lines) == 1 + 4


def test_crossover_warnings_only_flag_sub_d_contexts():
    # fabricate rows where super is slower everywhere: only ctx < d warns
    from cct.bench import BenchRow
    rows = [
        BenchRow("sdpa", 64, 32, 1.0, 2.0, 100),
        BenchRow("super", 64, 32, 2.0, 3.0, 90),   # ctx < d, slower: warn
        BenchRow("sdpa", 64, 128, 1.0, 2.0, 100),
        BenchRow("super", 64, 128, 2.0, 3.0, 190),  # ctx > d: no warning
    ]
    w = crossover_warnings(rows)
    assert len(w) == 1 and "d=64" in w[0] and "ctx=32" in w[0]
    assert crossover_warnings([
        BenchRow("sdpa", 64, 32, 2.0, 3.0, 100),
        BenchRow("super", 64, 32, 1.0, 2.0, 90),
    ]) == []


def _report_rows(text):
    """{label: the numbers after it} of the report's lines below its two
    header lines: two counts (sdpa, super) or one super/sdpa ratio."""
    rows = {}
    for line in text.splitlines()[2:]:
        words = line.split()
        n = 1 if "ratio" in line else 2
        rows[" ".join(words[:-n])] = words[-n:]
    return rows


def test_param_report_matches_model_counts():
    cfg = ModelConfig(d_model=512, n_layers=6, n_heads=8)
    rows = _report_rows(param_report(cfg))
    want = {kind: model_param_count(dataclasses.replace(cfg, attn_kind=kind))
            for kind in ("sdpa", "super")}
    for k in want["sdpa"]:
        assert rows[k] == [str(want["sdpa"][k]), str(want["super"][k])]
    # d=512, ctx=256: attention-only ratio is exactly 0.8125
    assert rows["attention ratio"] == ["0.812500"]
    assert len(rows) == len(want["sdpa"]) + 2


def test_param_report_ratio_one_at_equal_dims():
    # ctx == d: img 32 pools to 16x16 = 256 tokens at d_model 256
    cfg = ModelConfig(d_model=256, n_layers=2, n_heads=4)
    assert _report_rows(param_report(cfg))["attention ratio"] == ["1.000000"]
