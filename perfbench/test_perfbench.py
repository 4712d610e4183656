"""The benchmark's own tests: a tiny-config smoke run, failure accounting,
trace accounting and the BENCHMARK.json contract.

    python3 -m pytest perfbench -q
"""
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen_data  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from cct import checkpoint as ck  # noqa: E402
from cct import data as cd  # noqa: E402
from cct import tensor as ct  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = harness.Workload(
    "super", n_train=64, n_test=16, main="train", unit_s=1.0, eval_batch=8,
    min_units=2, train_batch=8, load_reps=2,
    model=(("d_model", 16), ("n_layers", 1), ("n_heads", 2), ("mlp_ratio", 1)))


def tiny_run(state_dir, trace=False, seed=3, wl=TINY):
    lines = []
    result = harness.run("tiny", wl, seed, 0, trace, time.perf_counter(),
                         state_dir=state_dir, out=lines.append)
    return result, lines


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_run_emits_exactly_the_declared_metrics(tmp_path, trace, section):
    result, _ = tiny_run(tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared(section)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert not list(tmp_path.glob("work-*")), "the run must remove its data"


def test_end_to_end_metrics_are_never_zero(tmp_path):
    result, _ = tiny_run(tmp_path)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["success_rate"]["value"] == 1.0


def test_injected_nan_loss_counts_as_failures(tmp_path, monkeypatch):
    real = ct.cross_entropy

    def nan_loss(logits, labels):
        out = real(logits, labels)
        out.data = np.full_like(out.data, np.nan)
        return out

    monkeypatch.setattr(ct, "cross_entropy", nan_loss)
    result, lines = tiny_run(tmp_path)
    steps = harness.WARMUP_STEPS + TINY.min_units
    assert result["failed"] == steps
    assert not result["correct"]
    rate = result["metrics"]["success_rate"]["value"]
    assert rate == pytest.approx(1 - steps / result["attempted"]) and rate < 1
    assert result["metrics"]["train_loss_final"]["value"] is None
    assert any("train step" in line for line in lines)


def test_raising_and_inexact_checkpoints_count_as_failures(tmp_path, monkeypatch):
    real = ck.load_checkpoint
    calls = []

    def flaky(path):
        calls.append(path)
        if len(calls) == 1:
            raise OSError("disk went away")
        back = real(path)
        name = back.params.names()[0]
        back.params[name].data = np.nextafter(back.params[name].data, np.inf)
        return back

    monkeypatch.setattr(ck, "load_checkpoint", flaky)
    result, _ = tiny_run(tmp_path)
    assert result["failed"] == harness.CHECKPOINT_ROUND_TRIPS
    assert not result["correct"]


def test_train_loss_final_repeats_bitwise_and_a_mismatch_is_caught(tmp_path):
    first, _ = tiny_run(tmp_path)
    second, _ = tiny_run(tmp_path)
    assert second["correct"]
    loss = first["metrics"]["train_loss_final"]["value"]
    assert loss == second["metrics"]["train_loss_final"]["value"]
    (ledger,) = (tmp_path / "runs").iterdir()
    record = json.loads(ledger.read_text())
    assert record["train_loss_final"] == float(loss).hex()
    ledger.write_text(json.dumps({**record, "train_loss_final": float(loss + 1).hex()}))
    third, lines = tiny_run(tmp_path)
    assert not third["correct"]
    assert any("differs" in line for line in lines)


def test_traced_self_times_never_exceed_step_wall_time(tmp_path):
    result, lines = tiny_run(tmp_path, trace=True)
    trace = json.loads((tmp_path / "traces" / "tiny-seed3.json").read_text())
    rec = tracing.Recorder()
    rec.spans = trace["spans"]
    steps = tracing.step_accounting(rec)
    assert len(steps) == TINY.min_units
    for step in steps:
        parts = step["parts"]
        assert {"data.batch", "model.forward", "tensor.backward",
                "optim.adamw_step"} <= set(parts)
        assert sum(parts.values()) <= step["wall_s"] + 1e-9
    covered = result["metrics"]["trace.step_covered"]["value"]
    assert 0.5 < covered <= 1.0
    assert any(line.startswith("per-op table") for line in lines)


def test_traced_run_reports_overhead_against_an_untraced_run(tmp_path):
    tiny_run(tmp_path)
    _, lines = tiny_run(tmp_path, trace=True)
    assert any(line.startswith("tracing overhead:") for line in lines)


def test_traced_gemm_flops_match_the_attention_model(tmp_path):
    result, _ = tiny_run(tmp_path, trace=True)
    trace = json.loads((tmp_path / "traces" / "tiny-seed3.json").read_text())
    rec = tracing.Recorder()
    rec.spans = trace["spans"]
    analytic = trace["summary"]["attention.forward"]["flops"]
    assert analytic > 0
    assert tracing.subtree_flops(rec, "attention.forward", "tensor.") == analytic
    m = result["metrics"]
    ingest_batches = TINY.ingest_passes * math.ceil(TINY.n_train / harness.INGEST_BATCH)
    assert m["data.batches"]["value"] == TINY.min_units + TINY.eval_reps + ingest_batches
    assert m["tensor.tape_nodes"]["value"] > 0
    assert m["tensor.linear.calls"]["value"] > 0
    assert m["checkpoint.bytes"]["value"] > 0


def test_tracing_is_removed_after_a_run(tmp_path):
    from cct import model as cm
    before = (ct.linear, cm.linear, cm.tokenize, cd.batch_iter)
    tiny_run(tmp_path, trace=True)
    assert (ct.linear, cm.linear, cm.tokenize, cd.batch_iter) == before


def test_generator_bytes_depend_only_on_seed(tmp_path):
    whole, halves = tmp_path / "whole.bin", tmp_path / "half"
    gen_data.main([str(whole), "7", "0", "0", str(2 * gen_data.CHUNK)])
    gen_data.main([str(halves) + "0", "7", "0", "0", str(gen_data.CHUNK)])
    gen_data.main([str(halves) + "1", "7", "0", str(gen_data.CHUNK),
                   str(2 * gen_data.CHUNK)])
    joined = Path(str(halves) + "0").read_bytes() + Path(str(halves) + "1").read_bytes()
    assert whole.read_bytes() == joined
    assert len(joined) == 2 * gen_data.CHUNK * cd.RECORD_BYTES
    other = tmp_path / "other.bin"
    gen_data.main([str(other), "8", "0", "0", "10"])
    assert other.read_bytes() != whole.read_bytes()[:10 * cd.RECORD_BYTES]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "train_super", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(w["name"] for w in SPEC["workloads"]) == set(harness.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(harness.unit_of(n) == u for n, u in
               {**declared("end_to_end"), **declared("per_layer")}.items())
    assert math.isclose(harness.WORKLOADS["eval_ingest"].n_train * cd.RECORD_BYTES,
                        harness.OFFICIAL_BYTES[cd.TRAIN_FILE])


def test_workload_units_follow_seconds():
    wl = harness.WORKLOADS["train_super"]
    assert wl.units(0) == wl.min_units
    assert wl.units(10 * wl.unit_s) == 10
    assert replace(wl, min_units=1).units(wl.unit_s * 0.5) == 1
