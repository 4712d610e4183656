"""Training driver, config files, resume, evaluation, overfit probe."""
import builtins
import csv
import dataclasses
import importlib.util
import itertools
import os
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from cct.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from cct.data import (
    DataError,
    batch_iter,
    compute_norm_stats,
    synthetic_dataset,
    write_records,
)
from cct.metrics import read_metrics
from cct.model import init_params, model_param_count
from cct.optim import init_adamw_state
import cct.metrics
import cct.train
from cct.tensor import CHUNK, ConfigError
from cct.train import (
    RunConfig,
    evaluate,
    load_run_config,
    overfit,
    parse_config_file,
    train,
)

ROOT = Path(__file__).resolve().parents[1]

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


def test_config_rejects_a_setting_given_twice(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.1\n# the same key again\nlr = 0.2\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:3: 'lr' is already set on line 1"):
        parse_config_file(path)


def test_config_rejects_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d_model 12\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


@pytest.mark.parametrize("key", ["lr", "eps", "weight_decay"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_refuses_an_optimizer_setting_that_is_not_finite(tmp_path, key, value):
    """float() reads both words; a NaN fails every comparison and eps = inf
    zeroes every update, so each is refused as the file is read."""
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    assert repr(parse_config_file(path)) == repr({key: float(value)})
    with pytest.raises(ConfigError, match=rf"\b{key}\b.*finite"):
        load_run_config(path)


def test_cli_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nepochs = 3\n")
    run = load_run_config(path, seed=9, epochs=None)
    assert run.seed == 9 and run.epochs == 3


@pytest.mark.parametrize("key", ["epochs", "batch_size", "checkpoint_every",
                                 "eval_batch_size"])
def test_run_setting_below_one_is_refused_before_anything_is_written(
        key, data_dir, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**TINY, key: 0}.items()))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"^{key} must be >= 1"):
        train(load_run_config(path), data_dir, out)
    assert not out.exists()


def test_run_config_refuses_a_negative_seed():
    """RunConfig inherits ModelConfig's check, so a negative seed stops at
    the config rather than in SeedSequence when the parameters are made."""
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -3$"):
        RunConfig(seed=-3)


def test_readme_config_block_lists_every_key_at_its_default(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Config file", 1)[1].split("```ini\n", 1)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block.split("```", 1)[0])
    assert parse_config_file(path) == \
        {f.name: f.default for f in dataclasses.fields(RunConfig)}


def test_readme_states_the_default_parameter_count():
    readme = (ROOT / "README.md").read_text()
    sentence = readme.split("The default configuration in this package", 1)[1]
    found = re.search(r"(\d[\d,]*) parameters", sentence)
    assert found, "the README states no parameter count for the default model"
    stated = int(found.group(1).replace(",", ""))
    full = load_run_config(ROOT / "scripts" / "full.cfg")
    for kind in ("super", "sdpa"):
        for run in (RunConfig(attn_kind=kind), dataclasses.replace(full, attn_kind=kind)):
            assert model_param_count(run.model_config())["total"] == stated, kind


def test_full_step_script_runs_one_step():
    """scripts/full_step.py's step, at the TINY config and batch 8."""
    spec = importlib.util.spec_from_file_location(
        "full_step", ROOT / "scripts" / "full_step.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    got = script.full_step(RunConfig(**{**TINY, "batch_size": 8}))
    assert set(got) == {"loss", "s_per_step", "img_per_s", "max_rss_mb"}
    assert all(np.isfinite(v) and v > 0 for v in got.values())
    assert got["img_per_s"] == pytest.approx(8 / got["s_per_step"])


def test_shipped_full_config_is_the_paper_run():
    run = load_run_config(ROOT / "scripts" / "full.cfg")
    assert (run.epochs, run.batch_size) == (75, 1024)
    assert (run.lr, run.beta1, run.beta2, run.weight_decay) == (0.01, 0.9, 0.999, 0.01)


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
    run = RunConfig(**{**TINY, "epochs": 2, "augment": True})
    r1 = train(run, data_dir, tmp_path / "a")
    r2 = train(run, data_dir, tmp_path / "b")
    rows1, rows2 = read_metrics(r1["metrics"]), read_metrics(r2["metrics"])
    assert [dataclasses.replace(r, wall_time_s=0.0) for r in rows1] == \
        [dataclasses.replace(r, wall_time_s=0.0) for r in rows2]


def test_different_seed_changes_trajectory(data_dir, tmp_path):
    r1 = train(RunConfig(**TINY), data_dir, tmp_path / "a")
    r2 = train(RunConfig(**{**TINY, "seed": 4}), data_dir, tmp_path / "b")
    assert read_metrics(r1["metrics"])[0].loss != read_metrics(r2["metrics"])[0].loss


@pytest.fixture
def train_step_calls(monkeypatch):
    real, calls = cct.train.train_step, []

    def spy(params, cfg, batch):
        calls.append(len(batch.labels))
        return real(params, cfg, batch)

    monkeypatch.setattr(cct.train, "train_step", spy)
    return calls


def test_train_runs_every_step_through_train_step(data_dir, tmp_path, train_step_calls):
    train(RunConfig(**{**TINY, "epochs": 2}), data_dir, tmp_path / "out")
    assert train_step_calls == [32] * 4  # 2 epochs x 2 steps of 32


def test_overfit_runs_every_step_through_train_step(train_step_calls):
    overfit(n=8, steps=3, seed=0, target=101.0)
    assert train_step_calls == [8] * 3


def test_train_step_returns_plain_values_in_canonical_order():
    run = RunConfig(**TINY)
    cfg = run.model_config()
    params = init_params(cfg, run.seed)
    records = synthetic_dataset(8, 10, seed=0)
    batch = next(iter(batch_iter(records, 8, 0, compute_norm_stats(records), False)))
    loss, logits, grads = cct.train.train_step(params, cfg, batch)
    assert type(loss) is float and np.isfinite(loss)
    assert type(logits) is np.ndarray and logits.shape == (8, cfg.n_classes)
    assert list(grads) == list(params.names())
    for name, t in params.items():
        assert t.grad is None and grads[name].shape == t.shape


def _spoiled_run(data_dir, out, monkeypatch, spoil_logits=None, spoil_grads=None):
    """A two-epoch TINY run (two steps per epoch, a checkpoint after each
    epoch) whose step 2, the first of epoch 1, gets the logits of its first
    chunk forward to finish passed to spoil_logits and the gradients
    train_step returned to spoil_grads. Returns the NonFiniteError message,
    and the run's params and AdamW state as they were when it was raised."""
    seen = {}
    real_forward_tokens, real_step = cct.train.forward_tokens, cct.train.train_step
    real_adamw = cct.train.adamw_step
    chunk_calls, step_calls = itertools.count(), itertools.count()
    chunks_per_step = TINY["batch_size"] // CHUNK

    def forward_tokens(tokens, params, cfg):
        logits = real_forward_tokens(tokens, params, cfg)
        if next(chunk_calls) == 2 * chunks_per_step and spoil_logits:
            spoil_logits(logits)
        return logits

    def train_step(params, cfg, batch):
        seen["params"] = params
        result = real_step(params, cfg, batch)
        if next(step_calls) == 2 and spoil_grads:
            spoil_grads(result[2])
        return result

    def adamw_step(params, grads, state, hp):
        seen["state"] = state
        real_adamw(params, grads, state, hp)

    monkeypatch.setattr(cct.train, "forward_tokens", forward_tokens)
    monkeypatch.setattr(cct.train, "train_step", train_step)
    monkeypatch.setattr(cct.train, "adamw_step", adamw_step)
    run = RunConfig(**{**TINY, "epochs": 2, "checkpoint_every": 1})
    with pytest.raises(cct.train.NonFiniteError) as err:
        train(run, data_dir, out)
    return str(err.value), seen["params"], seen["state"]


def _assert_untouched_since_checkpoint(out, params, state):
    assert sorted(p.name for p in out.iterdir() if p.name.startswith("checkpoint")) \
        == ["checkpoint_epoch1.bin", "checkpoint_nonfinite.bin"]
    ck = load_checkpoint(out / "checkpoint_epoch1.bin")
    assert ck.opt_state.t == state.t == 2
    for name in params.names():
        assert params[name].data.tobytes() == ck.params[name].data.tobytes(), name
        assert state.m[name].tobytes() == ck.opt_state.m[name].tobytes(), name
        assert state.v[name].tobytes() == ck.opt_state.v[name].tobytes(), name


def test_a_nan_loss_stops_the_run_before_the_update(data_dir, tmp_path, monkeypatch):
    def spoil(logits):
        logits.data[1, 3] = np.nan

    out = tmp_path / "out"
    msg, params, state = _spoiled_run(data_dir, out, monkeypatch, spoil_logits=spoil)
    assert msg == "epoch 1, step 2: the loss is nan"
    _assert_untouched_since_checkpoint(out, params, state)
    # the diagnostic checkpoint holds what step 2 started from
    ck = load_checkpoint(out / "checkpoint_nonfinite.bin")
    assert (ck.epoch, ck.opt_state.t) == (1, 2)
    for name in params.names():
        assert ck.params[name].data.tobytes() == params[name].data.tobytes(), name
        assert ck.opt_state.m[name].tobytes() == state.m[name].tobytes(), name
        assert ck.opt_state.v[name].tobytes() == state.v[name].tobytes(), name
    assert len(read_metrics(out / "metrics.csv")) == 2


def test_a_non_finite_gradient_names_the_first_parameter(data_dir, tmp_path, monkeypatch):
    names = []

    def spoil(grads):
        names[:] = grads
        grads[names[7]][0] = np.inf
        grads[names[3]][..., -1] = np.nan

    out = tmp_path / "out"
    msg, params, state = _spoiled_run(data_dir, out, monkeypatch, spoil_grads=spoil)
    assert msg == f"epoch 1, step 2: the gradient of {names[3]} is not finite"
    _assert_untouched_since_checkpoint(out, params, state)


def test_resume_rejects_config_mismatch(data_dir, tmp_path):
    run = RunConfig(**TINY)
    result = train(run, data_dir, tmp_path / "out")
    other = RunConfig(**{**TINY, "d_model": 64})
    with pytest.raises(ConfigError):
        train(other, data_dir, tmp_path / "out2", resume_from=result["checkpoint"])
    reseeded = RunConfig(**{**TINY, "seed": 8})
    with pytest.raises(ConfigError):
        train(reseeded, data_dir, tmp_path / "out3", resume_from=result["checkpoint"])


def test_refused_resume_creates_and_reads_nothing(data_dir, tmp_path, monkeypatch):
    result = train(RunConfig(**TINY), data_dir, tmp_path / "out")
    reads = []
    real_load = cct.train.load_cifar100
    monkeypatch.setattr(cct.train, "load_cifar100",
                        lambda *a, **k: reads.append(a) or real_load(*a, **k))
    out = tmp_path / "new"
    with pytest.raises(ConfigError, match="model config"):
        train(RunConfig(**{**TINY, "d_model": 64}), data_dir, out,
              resume_from=result["checkpoint"])
    assert not out.exists()
    assert reads == []


@pytest.fixture
def mixed_dir(data_dir, tmp_path):
    """The 64-record train split beside an official-size test split."""
    d = tmp_path / "mixed"
    d.mkdir()
    (d / "train.bin").write_bytes((data_dir / "train.bin").read_bytes())
    with open(d / "test.bin", "wb") as f:  # sparse all-zero records
        os.truncate(f.fileno(), 30_740_000)
    return d


def test_a_refused_data_dir_creates_nothing(mixed_dir, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(DataError, match="train.bin: expected 153700000"):
        train(RunConfig(**TINY), mixed_dir, out)
    assert not out.exists()


def test_a_refused_data_dir_leaves_a_resumed_run_untouched(data_dir, mixed_dir, tmp_path):
    run = RunConfig(**{**TINY, "epochs": 2, "checkpoint_every": 1})
    out = tmp_path / "out"
    result = train(run, data_dir, out)
    before = open(result["metrics"], "rb").read()
    with pytest.raises(DataError, match="train.bin: expected 153700000"):
        train(run, mixed_dir, out, resume_from=out / "checkpoint_epoch1.bin")
    assert open(result["metrics"], "rb").read() == before


def test_evaluate_and_overfit_refuse_a_mixed_data_dir(data_dir, mixed_dir, tmp_path):
    result = train(RunConfig(**TINY), data_dir, tmp_path / "out")
    for split in ("train", "test"):
        with pytest.raises(DataError, match="train.bin: expected 153700000"):
            evaluate(result["checkpoint"], mixed_dir, split)
    with pytest.raises(DataError, match="train.bin: expected 153700000"):
        overfit(n=8, steps=1, seed=0, data_dir=mixed_dir)


def _hundred_class_dir(tmp_path, train_classes=100):
    """Splits with fine labels up to 63 (train) and 31 (test)."""
    d = tmp_path / "data100"
    d.mkdir()
    write_records(d / "train.bin", synthetic_dataset(64, train_classes, seed=0))
    write_records(d / "test.bin", synthetic_dataset(32, 100, seed=1))
    return d


def _dir_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("split,train_classes", [("train", 100), ("test", 10)])
def test_labels_past_n_classes_are_refused_before_anything_is_touched(
        tmp_path, split, train_classes):
    """A 10-class run on a split with labels past 9 stops before the
    norm-stats cache is written or the rows of metrics.csv are dropped."""
    data = _hundred_class_dir(tmp_path, train_classes)
    out = tmp_path / "out"
    out.mkdir()
    for epoch in (0, 1):
        cct.metrics.append_row(out / "metrics.csv", cct.metrics.MetricsRow(
            epoch=epoch, step=2, split="train", loss=1.0, top1=0.0, top5=0.0,
            lr=0.01, wall_time_s=1.0))
    before_data, before_out = _dir_bytes(data), _dir_bytes(out)
    run = RunConfig(**{**TINY, "n_classes": 10})
    with pytest.raises(ConfigError, match=rf"^the {split} split has fine label \d+, "
                                          rf"but the model has n_classes = 10$"):
        train(run, data, out)
    assert _dir_bytes(data) == before_data
    assert _dir_bytes(out) == before_out


def test_evaluate_refuses_labels_past_the_checkpoints_n_classes(tmp_path):
    data = _hundred_class_dir(tmp_path)
    run = RunConfig(**{**TINY, "n_classes": 10})
    cfg = run.model_config()
    params = init_params(cfg, run.seed)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, cfg, params, run.seed, 1, run.hyperparams(),
                    init_adamw_state(params))
    before = _dir_bytes(data)
    for split in ("train", "test"):
        with pytest.raises(ConfigError, match=rf"^the {split} split has fine label"):
            evaluate(path, data, split)
    assert _dir_bytes(data) == before


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
    # a negative epoch is refused as the checkpoint loads, before the rows
    # from that epoch on would be dropped; save_checkpoint refuses to write
    # one, so the header bytes are edited
    raw = open(result["checkpoint"], "rb").read()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = raw[12:12 + hlen].replace(b'"epoch": 2,', b'"epoch": -1,')
    assert len(header) != hlen  # sanity: the substitution happened
    negative = tmp_path / "negative.bin"
    negative.write_bytes(raw[:8] + struct.pack("<I", len(header)) + header
                         + raw[12 + hlen:])
    with pytest.raises(CheckpointError, match=r"header epoch is not an integer >= 0"):
        train(run, data_dir, tmp_path / "out", resume_from=negative)
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


def test_a_fresh_run_into_a_used_out_dir_starts_the_csv_over(data_dir, tmp_path):
    run = RunConfig(**{**TINY, "epochs": 2})
    once = train(run, data_dir, tmp_path / "once")
    out = tmp_path / "twice"
    train(run, data_dir, out)
    twice = train(run, data_dir, out)
    assert [dataclasses.replace(r, wall_time_s=0.0) for r in read_metrics(twice["metrics"])] == \
        [dataclasses.replace(r, wall_time_s=0.0) for r in read_metrics(once["metrics"])]


def test_a_row_write_that_raises_part_way_leaves_metrics_csv_as_it_was(
        data_dir, tmp_path, monkeypatch):
    """The epoch-0 val row writes half its text, then raises: the CSV holds
    exactly what it held before that write, and no temporary file is left."""
    out = tmp_path / "out"
    path = out / "metrics.csv"
    real_writer, before = csv.writer, []

    class TornWriter:
        def __init__(self, f):
            self.f, self.w = f, real_writer(f)

        def writerow(self, values):
            if values[2] == "val":
                before.append(path.read_bytes())
                self.f.write(",".join(map(str, values))[:20])
                raise OSError("no space left")
            self.w.writerow(values)

    monkeypatch.setattr(cct.metrics.csv, "writer", TornWriter)
    with pytest.raises(OSError, match="no space left"):
        train(RunConfig(**TINY), data_dir, out)
    assert path.read_bytes() == before[0]
    assert [r.split for r in read_metrics(path)] == ["train"]
    assert not (out / "metrics.csv.tmp").exists()


def test_every_file_a_run_writes_is_opened_as_a_temporary(data_dir, tmp_path, monkeypatch):
    """Each file train() opens for writing or appending, with open or
    os.open, is a `.tmp` that replacing renames over its target."""
    written = []
    real_open, real_os_open = builtins.open, os.open
    write_flags = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_TRUNC

    def spy_open(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            written.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    def spy_os_open(path, flags, *args, **kwargs):
        if flags & write_flags:
            written.append(os.fspath(path))
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(os, "open", spy_os_open)
    out = tmp_path / "out"
    train(RunConfig(**{**TINY, "epochs": 2, "checkpoint_every": 1}), data_dir, out)
    monkeypatch.undo()
    assert [p for p in written if not p.endswith(".tmp")] == []
    assert {"metrics.csv.tmp", "checkpoint_epoch1.bin.tmp",
            "checkpoint_final.bin.tmp"} <= {os.path.basename(p) for p in written}


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


def test_overfit_refuses_a_data_dir_without_splits(tmp_path):
    with pytest.raises(FileNotFoundError, match="train.bin"):
        overfit(n=8, steps=1, seed=0, data_dir=tmp_path)


def test_overfit_stops_on_a_nan_loss(monkeypatch):
    real, calls = cct.train.forward_tokens, itertools.count()

    def forward_tokens(tokens, params, cfg):
        logits = real(tokens, params, cfg)
        if next(calls) == 8 // CHUNK:  # the first of step 1's to finish
            logits.data[0, 2] = np.nan
        return logits

    monkeypatch.setattr(cct.train, "forward_tokens", forward_tokens)
    with pytest.raises(cct.train.NonFiniteError, match="^epoch 0, step 1: the loss is nan$"):
        overfit(n=8, steps=3, seed=0, target=101.0)


# ---------------------------------------------------------------------------
# graph lifetime
# ---------------------------------------------------------------------------

@pytest.fixture
def graphs_alive_at_forward(monkeypatch):
    """For each chunk forward of a train step and each eval forward, whether
    anything of an earlier step is still alive: a chunk's logits, which its
    graph's root held, or the batch's logits or a gradient array, which
    train_step returned."""
    real_forward, real_forward_tokens = cct.train.forward, cct.train.forward_tokens
    real_step = cct.train.train_step
    earlier, alive = [], []
    step = [-1]  # the train_step call under way, counted from 0

    def forward(images, params, cfg):
        alive.append(any(ref() is not None for _, ref in earlier))
        return real_forward(images, params, cfg)

    def forward_tokens(tokens, params, cfg):
        alive.append(any(ref() is not None for s, ref in earlier if s < step[0]))
        logits = real_forward_tokens(tokens, params, cfg)
        earlier.append((step[0], weakref.ref(logits.data)))
        return logits

    def train_step(params, cfg, batch):
        step[0] += 1
        loss, logits, grads = real_step(params, cfg, batch)
        earlier.extend((step[0], weakref.ref(a)) for a in (logits, *grads.values()))
        return loss, logits, grads

    monkeypatch.setattr(cct.train, "forward", forward)
    monkeypatch.setattr(cct.train, "forward_tokens", forward_tokens)
    monkeypatch.setattr(cct.train, "train_step", train_step)
    return alive


def test_train_drops_each_step_graph_before_the_next_forward(
        data_dir, tmp_path, graphs_alive_at_forward):
    train(RunConfig(**{**TINY, "batch_size": 16}), data_dir, tmp_path / "run")
    assert len(graphs_alive_at_forward) == 4 * 4 + 1  # four steps of four chunks, one eval batch
    assert not any(graphs_alive_at_forward)


def test_overfit_drops_each_step_graph_before_the_next_forward(graphs_alive_at_forward):
    overfit(n=8, steps=3, seed=0, target=101.0)
    assert len(graphs_alive_at_forward) == 3 * 2
    assert not any(graphs_alive_at_forward)


# Resident-set growth allowed from the end of epoch 1 to the end of the run
# below. Over 10 runs of it the growth was 0.6 to 2.9 MB (a step of about
# 2 MB in some runs, a creep of under 1 MB in all); a step that keeps its
# gradients adds about 0.29 MB a step, 58 to 60 MB over the run.
_RSS_MARGIN_MB = 8.0


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_a_long_run_does_not_grow_its_resident_set(tmp_path):
    """200 TINY steps over 100 epochs, each with an augmented pass, an eval
    and a checkpoint: the resident set after the last epoch stays within
    _RSS_MARGIN_MB of its value after epoch 1."""
    data = tmp_path / "data"
    data.mkdir()
    write_records(data / "train.bin", synthetic_dataset(16, 10, seed=0))
    write_records(data / "test.bin", synthetic_dataset(8, 10, seed=1))
    page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
    rss_mb = []

    def after_epoch(msg):
        with open("/proc/self/statm") as f:
            rss_mb.append(int(f.read().split()[1]) * page_mb)

    run = RunConfig(**{**TINY, "epochs": 100, "batch_size": 8, "eval_batch_size": 8,
                       "augment": True, "checkpoint_every": 1})
    train(run, data, tmp_path / "out", log=after_epoch)
    assert len(rss_mb) == 100
    assert rss_mb[-1] - rss_mb[1] <= _RSS_MARGIN_MB, rss_mb
