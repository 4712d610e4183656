"""Training driver, config files, resume, evaluation, overfit probe."""
import dataclasses
import os

import numpy as np
import pytest

from cct.checkpoint import load_checkpoint
from cct.data import synthetic_dataset, write_records
from cct.metrics import read_metrics
from cct.tensor import ConfigError
from cct.train import (
    RunConfig,
    evaluate,
    load_run_config,
    overfit,
    parse_config_file,
    train,
)

TINY = dict(d_model=32, n_layers=1, n_heads=2, epochs=1, batch_size=32,
            seed=3, augment=False, eval_batch_size=64)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    write_records(d / "train.bin", synthetic_dataset(64, 10, seed=0))
    write_records(d / "test.bin", synthetic_dataset(32, 10, seed=1))
    return d


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "attn_kind = sdpa\n"
        "d_model = 128   # inline comment\n"
        "lr = 0.005\n"
        "augment = false\n"
        "\n")
    got = parse_config_file(path)
    assert got == {"attn_kind": "sdpa", "d_model": 128, "lr": 0.005,
                   "augment": False}
    run = load_run_config(path)
    assert run.d_model == 128 and run.lr == 0.005 and not run.augment


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config_file(path)


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d_model = twelve\n")
    with pytest.raises(ConfigError, match="twelve"):
        parse_config_file(path)


def test_config_rejects_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d_model 12\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_cli_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nepochs = 3\n")
    run = load_run_config(path, seed=9, epochs=None)
    assert run.seed == 9 and run.epochs == 3


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_one_epoch_emits_exactly_two_rows(data_dir, tmp_path):
    run = RunConfig(**TINY)
    result = train(run, data_dir, tmp_path / "out")
    rows = read_metrics(result["metrics"])
    assert [(r.epoch, r.split) for r in rows] == [(0, "train"), (0, "val")]
    assert rows[0].step == 2  # 64 samples / batch 32
    assert os.path.exists(result["checkpoint"])


def test_checkpoint_cadence(data_dir, tmp_path):
    run = RunConfig(**{**TINY, "epochs": 4, "checkpoint_every": 2})
    out = tmp_path / "out"
    train(run, data_dir, out)
    assert sorted(p for p in os.listdir(out) if p.startswith("checkpoint")) == \
        ["checkpoint_epoch2.bin", "checkpoint_final.bin"]


def test_resume_matches_uninterrupted_run_bitwise(data_dir, tmp_path):
    full = RunConfig(**{**TINY, "epochs": 2})
    res_full = train(full, data_dir, tmp_path / "full")

    short = RunConfig(**{**TINY, "epochs": 1})
    out = tmp_path / "resumed"
    res_short = train(short, data_dir, out)
    res_resumed = train(full, data_dir, out, resume_from=res_short["checkpoint"])

    a = load_checkpoint(res_full["checkpoint"])
    b = load_checkpoint(res_resumed["checkpoint"])
    for name in a.params.names():
        assert np.array_equal(a.params[name].data, b.params[name].data)
    for name in a.opt_state.m:
        assert np.array_equal(a.opt_state.m[name], b.opt_state.m[name])
        assert np.array_equal(a.opt_state.v[name], b.opt_state.v[name])
    assert a.opt_state.t == b.opt_state.t
    ra, rb = read_metrics(res_full["metrics"]), read_metrics(res_resumed["metrics"])
    assert ra[-1].loss == rb[-1].loss  # bitwise: same float, same CSV repr


def test_same_seed_runs_identical_metrics(data_dir, tmp_path):
    run = RunConfig(**{**TINY, "epochs": 2, "augment": True, "dropout_p": 0.1})
    r1 = train(run, data_dir, tmp_path / "a")
    r2 = train(run, data_dir, tmp_path / "b")
    rows1, rows2 = read_metrics(r1["metrics"]), read_metrics(r2["metrics"])
    assert [dataclasses.replace(r, wall_time_s=0.0) for r in rows1] == \
        [dataclasses.replace(r, wall_time_s=0.0) for r in rows2]


def test_different_seed_changes_trajectory(data_dir, tmp_path):
    r1 = train(RunConfig(**TINY), data_dir, tmp_path / "a")
    r2 = train(RunConfig(**{**TINY, "seed": 4}), data_dir, tmp_path / "b")
    assert read_metrics(r1["metrics"])[0].loss != read_metrics(r2["metrics"])[0].loss


def test_resume_rejects_config_mismatch(data_dir, tmp_path):
    run = RunConfig(**TINY)
    result = train(run, data_dir, tmp_path / "out")
    other = RunConfig(**{**TINY, "d_model": 64})
    with pytest.raises(ConfigError):
        train(other, data_dir, tmp_path / "out2", resume_from=result["checkpoint"])
    reseeded = RunConfig(**{**TINY, "seed": 8})
    with pytest.raises(ConfigError):
        train(reseeded, data_dir, tmp_path / "out3", resume_from=result["checkpoint"])


def test_resume_rejects_optimizer_mismatch(data_dir, tmp_path):
    result = train(RunConfig(**TINY), data_dir, tmp_path / "out")
    for change in ({"lr": 0.02}, {"weight_decay": 0.0}):
        other = RunConfig(**{**TINY, **change})
        with pytest.raises(ConfigError, match="hyperparameters"):
            train(other, data_dir, tmp_path / "out2", resume_from=result["checkpoint"])


def test_resume_of_a_finished_run_is_refused_before_touching_metrics(data_dir, tmp_path):
    run = RunConfig(**{**TINY, "epochs": 2})
    result = train(run, data_dir, tmp_path / "out")
    before = open(result["metrics"], "rb").read()
    with pytest.raises(ConfigError, match=r"epoch 2\b.*\b2 epochs"):
        train(run, data_dir, tmp_path / "out", resume_from=result["checkpoint"])
    assert open(result["metrics"], "rb").read() == before


def test_resume_over_later_rows_keeps_one_pair_per_epoch(data_dir, tmp_path):
    run = RunConfig(**{**TINY, "epochs": 4, "checkpoint_every": 2})
    full = train(run, data_dir, tmp_path / "full")
    out = tmp_path / "rerun"
    train(run, data_dir, out)
    resumed = train(run, data_dir, out, resume_from=out / "checkpoint_epoch2.bin")
    rows = read_metrics(resumed["metrics"])
    assert [(r.epoch, r.split) for r in rows] == \
        [(e, s) for e in range(4) for s in ("train", "val")]
    assert [dataclasses.replace(r, wall_time_s=0.0) for r in rows] == \
        [dataclasses.replace(r, wall_time_s=0.0) for r in read_metrics(full["metrics"])]


def test_missing_dataset_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        train(RunConfig(**TINY), tmp_path / "nowhere", tmp_path / "out")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_checkpoint_deterministic(data_dir, tmp_path):
    result = train(RunConfig(**TINY), data_dir, tmp_path / "out")
    m1 = evaluate(result["checkpoint"], data_dir, "test")
    m2 = evaluate(result["checkpoint"], data_dir, "test")
    assert m1 == m2
    assert m1["top5"] >= m1["top1"]
    mtr = evaluate(result["checkpoint"], data_dir, "train")
    assert mtr["top5"] >= mtr["top1"]


def test_evaluate_rejects_bad_split(data_dir, tmp_path):
    result = train(RunConfig(**TINY), data_dir, tmp_path / "out")
    with pytest.raises(ConfigError):
        evaluate(result["checkpoint"], data_dir, "dev")


def test_fresh_model_is_at_chance():
    # 100-class balanced synthetic data, untrained model: top1 near 1%
    from cct.data import compute_norm_stats
    from cct.model import init_params
    from cct.train import evaluate_params

    run = RunConfig(d_model=32, n_layers=1, n_heads=2, seed=0)
    cfg = run.model_config()
    params = init_params(cfg, seed=0)
    records = synthetic_dataset(800, 100, seed=2)
    m = evaluate_params(params, cfg, records, compute_norm_stats(records))
    assert m["top1"] < 5.0  # chance is 1%, loose statistical bound
    assert m["top5"] >= m["top1"]


# ---------------------------------------------------------------------------
# overfit probe
# ---------------------------------------------------------------------------

def test_overfit_reaches_target_quickly():
    result = overfit(n=64, steps=300, seed=0)
    assert result["reached"]
    assert result["steps"] <= 300
    assert result["top1"] >= 99.0


def test_overfit_uses_dataset_when_present(data_dir):
    result = overfit(n=16, steps=120, seed=0, data_dir=data_dir)
    assert result["reached"]
