"""Acceptance gate: ten checks covering gradients, attention equivalences,
parameter/FLOP accounting, training behavior, determinism, docs, and the
dataset loader. Each test prints one PASS/FAIL line.

The heavyweight checks (gradient suite, smoke training) run small models
sized for a desktop CPU; tolerances and instance counts are asserted at
full strength.
"""
import dataclasses
import os
import time

import numpy as np
import pytest

from cct.attention import (
    AttentionConfig,
    AttentionParams,
    attention_flops,
    attention_param_count,
    sdpa_forward,
    super_forward,
)
from cct.bench import bench_attention, crossover_warnings
from cct.checkpoint import load_checkpoint
from cct.data import (
    RECORD_BYTES,
    DataError,
    load_cifar100,
    load_records,
    synthetic_dataset,
    write_records,
)
from cct.gradcheck import MECHANISM_CASES, OP_CASES, run_suite
from cct.metrics import read_metrics
from cct.model import ModelConfig, forward_tokens, init_params, model_param_count
from cct.tensor import Tensor, no_grad
from cct.train import RunConfig, overfit, train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("tinydata")
    write_records(d / "train.bin", synthetic_dataset(64, 10, seed=0))
    write_records(d / "test.bin", synthetic_dataset(32, 10, seed=1))
    return d


def test_criterion_01_gradient_suite():
    t0 = time.time()
    reports = run_suite(instances=100, tol=1e-4, seed=0)
    elapsed = time.time() - t0
    names = [r.op for r in reports]
    ok = (len(names) == len(set(names))
          and set(names) == set(OP_CASES) | set(MECHANISM_CASES)
          and all(r.ok and r.instances == 100 for r in reports)
          and elapsed < 300)
    worst = max(r.max_rel_err for r in reports)
    _report(1, ok, f"{len(reports)} ops x 100 instances, max rel err "
                   f"{worst:.2e} < 1e-4, {elapsed:.1f}s")


def test_criterion_02_attention_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        h = int(rng.choice([1, 2, 4]))
        d = h * int(rng.integers(1, 64 // h + 1))
        ctx = int(rng.integers(1, 65))
        b = int(rng.integers(1, 3))
        x = Tensor(rng.standard_normal((b, ctx, d)).astype(np.float32))
        w_q = rng.standard_normal((d, d)).astype(np.float32) / np.sqrt(d)
        w_k = rng.standard_normal((d, d)).astype(np.float32) / np.sqrt(d)
        w_o = rng.standard_normal((d, d)).astype(np.float32) / np.sqrt(d)
        eye_d = np.eye(d, dtype=np.float32)
        eye_ctx = np.eye(ctx, dtype=np.float32)
        p_sup = AttentionParams(w_q=Tensor(w_q), w_k=Tensor(w_k),
                                w_o=Tensor(w_o), w_a=Tensor(eye_ctx))
        p_sdp = AttentionParams(w_q=Tensor(w_q), w_k=Tensor(w_k),
                                w_o=Tensor(w_o), w_v=Tensor(eye_d))
        with no_grad():
            y_sup = super_forward(x, p_sup, AttentionConfig("super", d, h, ctx))
            y_sdp = sdpa_forward(x, p_sdp, AttentionConfig("sdpa", d, h, ctx))
        worst = max(worst, float(np.max(np.abs(y_sup.data - y_sdp.data))))
    _report(2, worst < 1e-6,
            f"W_A=I vs W_V=I over 1000 instances (l,d <= 64), "
            f"max abs diff {worst:.2e} < 1e-6")


def test_criterion_03_permutation_properties():
    rng = np.random.default_rng(303)

    # (a) sdpa model logits are permutation invariant
    cfg = ModelConfig(attn_kind="sdpa", img_size=8, n_classes=10, d_model=32,
                      n_layers=2, n_heads=2)
    params = init_params(cfg, seed=0)
    tokens = rng.standard_normal((2, cfg.ctx_len, 32)).astype(np.float32)
    perm = rng.permutation(cfg.ctx_len)
    with no_grad():
        base = forward_tokens(Tensor(tokens), params, cfg).data
        permuted = forward_tokens(Tensor(tokens[:, perm, :]), params, cfg).data
    inv_diff = float(np.max(np.abs(base - permuted)))

    # (b) super conjugation identity super(Px; W_A) = P super(x; P^T W_A P)
    d, h, ctx = 32, 2, 12
    acfg = AttentionConfig("super", d, h, ctx)
    x = rng.standard_normal((2, ctx, d)).astype(np.float32)
    w = {k: Tensor(rng.standard_normal((d, d)).astype(np.float32) / np.sqrt(d))
         for k in ("q", "k", "o")}
    w_a = rng.standard_normal((ctx, ctx)).astype(np.float32) / np.sqrt(ctx)
    pm = np.eye(ctx, dtype=np.float32)[rng.permutation(ctx)]
    p1 = AttentionParams(w_q=w["q"], w_k=w["k"], w_o=w["o"], w_a=Tensor(w_a))
    p2 = AttentionParams(w_q=w["q"], w_k=w["k"], w_o=w["o"],
                         w_a=Tensor(pm.T @ w_a @ pm))
    with no_grad():
        lhs = super_forward(Tensor(np.einsum("ij,bjd->bid", pm, x)), p1, acfg).data
        rhs = np.einsum("ij,bjd->bid", pm, super_forward(Tensor(x), p2, acfg).data)
    conj_diff = float(np.max(np.abs(lhs - rhs)))

    # (c) trained W_A: concrete permutation counterexample
    r = overfit(n=16, steps=100, seed=0, attn_kind="super", target=100.0)
    tp, tcfg = r["params"], r["cfg"]
    w_a_dev = float(np.max(np.abs(
        tp["layer0.attn.w_a"].data - np.eye(tcfg.ctx_len, dtype=np.float32))))
    xt = rng.standard_normal((1, tcfg.ctx_len, tcfg.d_model)).astype(np.float32)
    perm_t = rng.permutation(tcfg.ctx_len)
    with no_grad():
        a = forward_tokens(Tensor(xt), tp, tcfg).data
        b = forward_tokens(Tensor(xt[:, perm_t, :]), tp, tcfg).data
    counter_diff = float(np.max(np.abs(a - b)))

    ok = inv_diff < 1e-5 and conj_diff < 1e-5 and w_a_dev > 1e-3 \
        and counter_diff > 1e-3
    _report(3, ok, f"sdpa invariance {inv_diff:.2e} < 1e-5, conjugation "
                   f"{conj_diff:.2e} < 1e-5, trained W_A counterexample "
                   f"logit diff {counter_diff:.2e} > 1e-3")


def test_criterion_04_parameter_accounting():
    rng = np.random.default_rng(404)
    enum_ok = True
    for _ in range(20):
        h = int(rng.choice([1, 2, 4]))
        cfg = ModelConfig(
            attn_kind=str(rng.choice(["sdpa", "super"])),
            img_size=int(rng.choice([8, 16, 32])),
            n_classes=int(rng.integers(2, 101)),
            d_model=h * int(rng.integers(2, 17)),
            n_layers=int(rng.integers(1, 4)),
            n_heads=h,
            mlp_ratio=int(rng.integers(1, 4)))
        counted = model_param_count(cfg)["total"]
        allocated = init_params(cfg, seed=0).n_scalars()
        enum_ok = enum_ok and counted == allocated

    a_super = attention_param_count(AttentionConfig("super", 512, 8, 256))
    a_sdpa = attention_param_count(AttentionConfig("sdpa", 512, 8, 256))
    ratio_512 = a_super / a_sdpa

    b_super = attention_param_count(AttentionConfig("super", 1024, 8, 32))
    b_sdpa = attention_param_count(AttentionConfig("sdpa", 1024, 8, 32))
    ratio_limit = b_super / b_sdpa

    ok = (enum_ok
          and a_super == 851_968 and a_sdpa == 1_048_576
          and ratio_512 == 0.8125
          and b_super == 3 * 1024 ** 2 + 32 ** 2
          and round(ratio_limit, 6) == 0.750244)
    _report(4, ok, f"20 configs enumerated exactly; d=512,l=256 ratio "
                   f"{ratio_512} == 0.8125; d=1024,l=32 ratio "
                   f"{ratio_limit:.6f} == 0.750244")


def test_criterion_05_efficiency_crossover():
    violations = 0
    for d in range(32, 1025):
        for ctx in range(32, 1025):
            s = attention_flops(AttentionConfig("sdpa", d, 1, ctx)).total
            u = attention_flops(AttentionConfig("super", d, 1, ctx)).total
            if (u < s) != (ctx < d):
                violations += 1
    ok = violations == 0

    # measured latency is hardware-dependent: report, never fail
    rows = bench_attention([512], [128], iters=10, warmup=5)
    for warning in crossover_warnings(rows):
        print(warning)

    _report(5, ok, f"super < sdpa FLOPs iff ctx < d over the full "
                   f"{{32..1024}}^2 grid ({violations} violations); "
                   f"latency check warn-only")


def test_criterion_06_overfit():
    t0 = time.time()
    result = overfit(n=64, steps=300, seed=0, attn_kind="super")
    elapsed = time.time() - t0
    ok = result["reached"] and result["top1"] >= 99.0 and elapsed < 300
    _report(6, ok, f"64 samples to {result['top1']:.1f}% train top-1 in "
                   f"{(result['steps'] or 300) + 1} steps (<= 300), "
                   f"{elapsed:.1f}s < 300s")


def test_criterion_07_smoke_training(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_records(data / "train.bin", synthetic_dataset(1000, 100, seed=0))
    write_records(data / "test.bin", synthetic_dataset(1000, 100, seed=1))
    run = RunConfig(attn_kind="super", d_model=128, n_layers=3, n_heads=4,
                    epochs=5, batch_size=125, seed=0, augment=True)
    t0 = time.time()
    result = train(run, data, tmp_path / "out")
    elapsed = time.time() - t0
    rows = read_metrics(result["metrics"])
    train_losses = [r.loss for r in rows if r.split == "train"]
    val_top1 = [r.top1 for r in rows if r.split == "val"][-1]
    decreasing = all(b < a for a, b in zip(train_losses, train_losses[1:]))
    ok = len(train_losses) == 5 and decreasing and val_top1 >= 5.0 \
        and elapsed < 1800
    _report(7, ok, f"5 epochs on 1000/1000 subset: val top-1 "
                   f"{val_top1:.1f}% >= 5%, train loss strictly decreasing "
                   f"({decreasing}), {elapsed:.0f}s < 1800s")


def test_criterion_08_determinism(tiny_data, tmp_path):
    run2 = RunConfig(d_model=32, n_layers=1, n_heads=2, epochs=2,
                     batch_size=32, seed=3, augment=True, dropout_p=0.1,
                     eval_batch_size=64)
    run1 = dataclasses.replace(run2, epochs=1)

    res_full = train(run2, tiny_data, tmp_path / "full")
    out = tmp_path / "resumed"
    res_short = train(run1, tiny_data, out)
    res_resumed = train(run2, tiny_data, out, resume_from=res_short["checkpoint"])

    a = load_checkpoint(res_full["checkpoint"])
    b = load_checkpoint(res_resumed["checkpoint"])
    bitwise = all(np.array_equal(a.params[n].data, b.params[n].data)
                  for n in a.params.names())
    bitwise = bitwise and a.opt_state.t == b.opt_state.t and all(
        np.array_equal(a.opt_state.m[n], b.opt_state.m[n])
        and np.array_equal(a.opt_state.v[n], b.opt_state.v[n])
        for n in a.opt_state.m)

    res_again = train(run2, tiny_data, tmp_path / "again")

    def rows_sans_wall(path):
        # wall_time_s is machine noise, every value column must match exactly
        return [",".join(line.split(",")[:-1])
                for line in open(path).read().splitlines()]

    csv_same = rows_sans_wall(res_full["metrics"]) == \
        rows_sans_wall(res_again["metrics"])
    _report(8, bitwise and csv_same,
            f"resume bitwise-identical ({bitwise}); same-seed metrics CSVs "
            f"identical up to wall time ({csv_same})")


def test_criterion_09_reference_targets_documented():
    readme = open(os.path.join(ROOT, "README.md")).read()
    numbers = ["46.29", "76.31", "36.50", "66.33", "17.7", "10.6"]
    documented = all(v in readme for v in numbers)

    script = os.path.join(ROOT, "scripts", "train_full.sh")
    cfg_path = os.path.join(ROOT, "scripts", "full.cfg")
    runnable = os.path.exists(script) and os.access(script, os.X_OK)
    cfg_text = open(cfg_path).read() if os.path.exists(cfg_path) else ""
    settings = all(s in cfg_text for s in
                   ("epochs = 75", "batch_size = 1024", "lr = 0.01",
                    "beta1 = 0.9", "beta2 = 0.999", "weight_decay = 0.01"))

    ok = documented and runnable and settings
    _report(9, ok, f"full-run targets recorded in README ({documented}); "
                   f"long-run script with 75-epoch/1024-batch settings "
                   f"present ({runnable and settings}); desk-scale suite "
                   f"does not attempt the full run")


def test_criterion_10_loader(tmp_path):
    # truncated file
    bad = tmp_path / "train.bin"
    bad.write_bytes(b"\x00" * (5 * RECORD_BYTES - 3))
    try:
        load_records(bad)
        truncated_rejected = False
    except DataError:
        truncated_rejected = True

    # whole-record file accepted
    ok_file = tmp_path / "ok.bin"
    write_records(ok_file, synthetic_dataset(5, 5, seed=0))
    whole_accepted = len(load_records(ok_file)) == 5

    # train split byte gate: exact size loads, off-by-one is named
    (tmp_path / "train.bin").write_bytes(b"\x00" * 153_700_000)
    (tmp_path / "test.bin").write_bytes(b"\x00" * 30_740_000)
    splits = load_cifar100(tmp_path)
    exact_ok = len(splits["train"]) == 50_000 and len(splits["test"]) == 10_000

    (tmp_path / "train.bin").write_bytes(b"\x00" * 153_699_999)
    try:
        load_cifar100(tmp_path)
        gate_ok = False
    except DataError as e:
        gate_ok = "153700000" in str(e)

    ok = truncated_rejected and whole_accepted and exact_ok and gate_ok
    _report(10, ok, f"truncation rejected ({truncated_rejected}); "
                    f"3074-byte records accepted ({whole_accepted}); "
                    f"153,700,000-byte train gate enforced ({gate_ok})")
