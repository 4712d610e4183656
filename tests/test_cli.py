"""End-to-end runs of every CLI subcommand."""
import argparse
import builtins
import errno
import os
import re
import subprocess
from pathlib import Path

import pytest

import cct.tensor
import cct.train
from cct.cli import build_parser, main
from cct.data import synthetic_dataset, write_records
from cct.metrics import read_metrics

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    write_records(d / "train.bin", synthetic_dataset(64, 10, seed=0))
    write_records(d / "test.bin", synthetic_dataset(32, 10, seed=1))
    return d


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text("d_model = 32\nn_layers = 1\nn_heads = 2\n"
                    "batch_size = 32\neval_batch_size = 64\n"
                    "epochs = 1\naugment = false\n")
    return path


def test_train_then_eval(data_dir, tiny_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--config", str(tiny_cfg), "--data-dir", str(data_dir),
               "--out-dir", str(out), "--seed", "3", "--attn", "super"])
    assert rc == 0
    rows = read_metrics(out / "metrics.csv")
    assert [(r.epoch, r.split) for r in rows] == [(0, "train"), (0, "val")]

    rc = main(["eval", "--checkpoint", str(out / "checkpoint_final.bin"),
               "--data-dir", str(data_dir), "--split", "test"])
    assert rc == 0
    assert "top1" in capsys.readouterr().out


def test_data_dir_env_fallback(data_dir, tiny_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("CCT_DATA_DIR", str(data_dir))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(tiny_cfg), "--out-dir", str(out),
               "--seed", "0"])
    assert rc == 0


def test_missing_data_dir_is_an_error(tiny_cfg, tmp_path, monkeypatch):
    monkeypatch.delenv("CCT_DATA_DIR", raising=False)
    with pytest.raises(SystemExit, match="CCT_DATA_DIR"):
        main(["train", "--config", str(tiny_cfg),
              "--out-dir", str(tmp_path / "o"), "--seed", "0"])


def _refusal(argv) -> str:
    """The one line a refused command ends with."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    return exc.value.code


def test_a_missing_config_file_is_one_line_naming_it(data_dir, tmp_path):
    missing = tmp_path / "nonexistent.cfg"
    line = _refusal(["train", "--config", str(missing), "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path / "o")])
    assert str(missing) in line


def test_a_bad_config_value_is_one_line_naming_the_setting(data_dir, tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("lr = fast\n")
    line = _refusal(["train", "--config", str(cfg), "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path / "o")])
    assert str(cfg) in line and "'lr'" in line and "'fast'" in line


def test_a_missing_checkpoint_is_one_line_naming_it(data_dir, tmp_path):
    missing = tmp_path / "nonexistent.bin"
    line = _refusal(["eval", "--checkpoint", str(missing), "--data-dir", str(data_dir)])
    assert str(missing) in line


def test_a_directory_given_as_an_input_file_is_one_line_naming_it(data_dir, tmp_path):
    line = _refusal(["train", "--config", str(tmp_path), "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path / "o")])
    assert str(tmp_path) in line
    line = _refusal(["eval", "--checkpoint", str(tmp_path), "--data-dir", str(data_dir)])
    assert str(tmp_path) in line


def test_an_unreadable_config_is_one_line_naming_it(data_dir, tiny_cfg, tmp_path,
                                                    monkeypatch):
    # root reads a chmod 000 file, so the denial comes from open itself
    real_open = builtins.open

    def denying_open(file, *args, **kwargs):
        if str(file) == str(tiny_cfg):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", denying_open)
    line = _refusal(["train", "--config", str(tiny_cfg), "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path / "o")])
    assert str(tiny_cfg) in line


def test_a_bad_checkpoint_is_one_line_naming_it(data_dir, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a checkpoint")
    line = _refusal(["eval", "--checkpoint", str(bad), "--data-dir", str(data_dir)])
    assert str(bad) in line


def test_a_data_dir_without_train_bin_is_one_line_naming_it(tiny_cfg, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    line = _refusal(["train", "--config", str(tiny_cfg), "--data-dir", str(empty),
                     "--out-dir", str(tmp_path / "o")])
    assert str(empty / "train.bin") in line


def test_a_refused_data_split_is_one_line_naming_it(data_dir, tiny_cfg, tmp_path):
    cut = tmp_path / "cut"
    cut.mkdir()
    (cut / "train.bin").write_bytes((data_dir / "train.bin").read_bytes()[:-1])
    (cut / "test.bin").write_bytes((data_dir / "test.bin").read_bytes())
    line = _refusal(["train", "--config", str(tiny_cfg), "--data-dir", str(cut),
                     "--out-dir", str(tmp_path / "o")])
    assert str(cut / "train.bin") in line


def test_an_error_inside_a_run_keeps_its_traceback(data_dir, tiny_cfg, tmp_path,
                                                   monkeypatch):
    def nan_step(params, cfg, batch, step):
        raise cct.train.NonFiniteError("epoch 0, step 0: the loss is nan")

    monkeypatch.setattr(cct.train, "train_step", nan_step)
    with pytest.raises(cct.train.NonFiniteError):
        main(["train", "--config", str(tiny_cfg), "--data-dir", str(data_dir),
              "--out-dir", str(tmp_path / "o")])


def test_params_command(tiny_cfg, capsys):
    rc = main(["params", "--config", str(tiny_cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sdpa" in out and "super" in out and "ratio" in out


def test_params_command_reads_the_shipped_full_config(capsys):
    rc = main(["params", "--config", str(SCRIPTS / "full.cfg")])
    assert rc == 0
    # at d=256 and l=256, W_A has as many entries as the W_V it replaces
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["total", "3190116", "3190116"] in rows


def test_shipped_launch_script_parses():
    subprocess.run(["bash", "-n", str(SCRIPTS / "train_full.sh")], check=True)


def test_bench_command(capsys):
    rc = main(["bench", "--dims", "8", "--ctx", "4,8", "--iters", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 4
    assert lines[0].startswith("kind,d,ctx")


def test_gradcheck_command_passes(capsys):
    rc = main(["gradcheck", "--instances", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gelu" in out and "super_forward" in out
    assert "FAIL" not in out


def test_gradcheck_command_detects_broken_backward(monkeypatch, capsys):
    import numpy as np
    monkeypatch.setattr(cct.tensor, "_gelu_grad",
                        lambda x, cdf: np.ones_like(x) * 0.123)
    rc = main(["gradcheck", "--instances", "2"])
    assert rc == 1
    out = capsys.readouterr().out
    assert any("gelu" in line and "FAIL" in line for line in out.splitlines())


def test_overfit_command(capsys):
    rc = main(["overfit", "--n", "16", "--steps", "150", "--seed", "0"])
    assert rc == 0
    assert "reached" in capsys.readouterr().out


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_overfit_without_a_step_is_one_line(monkeypatch, steps):
    monkeypatch.delenv("CCT_DATA_DIR", raising=False)
    line = _refusal(["overfit", "--n", "4", "--steps", steps])
    assert line == f"cct overfit: steps must be >= 1, got {steps}"


def _readme_cli_flags():
    """{subcommand: flags} of the `cct ...` lines of README's ## CLI block."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = {}
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("cct "):
            commands[line.split()[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    return commands


def test_readme_cli_block_names_exactly_the_parsers_commands_and_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parser = {name: {o for a in p._actions for o in a.option_strings
                     if o.startswith("--") and o != "--help"}
              for name, p in sub.choices.items()}
    assert _readme_cli_flags() == parser
