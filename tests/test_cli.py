"""End-to-end runs of every CLI subcommand."""
import pytest

import cct.tensor
from cct.cli import main
from cct.data import synthetic_dataset, write_records
from cct.metrics import read_metrics


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
                    "batch_size = 32\neval_batch_size = 64\n")
    return path


def test_train_then_eval(data_dir, tiny_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--config", str(tiny_cfg), "--data-dir", str(data_dir),
               "--out-dir", str(out), "--seed", "3", "--attn", "super",
               "--epochs", "1", "--no-augment"])
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
               "--seed", "0", "--epochs", "1", "--no-augment"])
    assert rc == 0


def test_missing_data_dir_is_an_error(tiny_cfg, tmp_path, monkeypatch):
    monkeypatch.delenv("CCT_DATA_DIR", raising=False)
    with pytest.raises(SystemExit, match="CCT_DATA_DIR"):
        main(["train", "--config", str(tiny_cfg),
              "--out-dir", str(tmp_path / "o"), "--seed", "0"])


def test_params_command(tiny_cfg, tmp_path, capsys):
    csv_path = tmp_path / "params.csv"
    rc = main(["params", "--config", str(tiny_cfg), "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sdpa" in out and "super" in out and "ratio" in out
    assert csv_path.exists()


def test_bench_command(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--dims", "8", "--ctx", "4,8", "--iters", "10",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
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
