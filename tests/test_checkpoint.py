import dataclasses
import os
import struct
import threading

import numpy as np
import pytest

from cct import checkpoint
from cct.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from cct.model import ModelConfig, init_params
from cct.optim import AdamWHyperParams, init_adamw_state

CFG = ModelConfig(d_model=16, n_layers=2, n_heads=2, n_classes=7, img_size=8)


def _params():
    return init_params(CFG, seed=3)


def test_roundtrip_is_bit_exact(tmp_path):
    params = _params()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, CFG, params, seed=3, epoch=4)
    back = load_checkpoint(path)
    assert back.cfg == CFG
    assert back.seed == 3 and back.epoch == 4
    assert back.hp is None and back.opt_state is None
    assert list(back.params.names()) == list(params.names())
    for name in params.names():
        a, b = params[name].data, back.params[name].data
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_roundtrip_with_optimizer_state(tmp_path):
    params = _params()
    hp = AdamWHyperParams(lr=0.005)
    state = init_adamw_state(params)
    state.t = 17
    rng = np.random.default_rng(0)
    for n in state.m:
        state.m[n] = rng.normal(size=state.m[n].shape).astype(np.float32)
        state.v[n] = rng.random(state.v[n].shape).astype(np.float32)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, CFG, params, seed=1, epoch=9, hp=hp, opt_state=state)
    back = load_checkpoint(path)
    assert back.hp == hp
    assert back.opt_state.t == 17
    for n in state.m:
        assert np.array_equal(back.opt_state.m[n], state.m[n])
        assert np.array_equal(back.opt_state.v[n], state.v[n])


def test_save_is_deterministic(tmp_path):
    params = _params()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, CFG, params, seed=3, epoch=0)
    save_checkpoint(p2, CFG, params, seed=3, epoch=0)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_rejects_unknown_version(tmp_path):
    params = _params()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, CFG, params, seed=0, epoch=0)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_rejects_truncated_file(tmp_path):
    params = _params()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, CFG, params, seed=0, epoch=0)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_rejects_name_config_mismatch(tmp_path):
    # tensors saved for an sdpa model, header edited to claim super
    cfg = dataclasses.replace(CFG, attn_kind="sdpa")
    path = tmp_path / "ck.bin"
    save_checkpoint(path, cfg, init_params(cfg, seed=0), seed=0, epoch=0)
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = raw[12:12 + hlen].replace(b'"sdpa"', b'"super"')
    assert len(header) != hlen  # sanity: the substitution happened
    patched = raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + hlen:]
    path.write_bytes(patched)
    with pytest.raises(CheckpointError, match="names"):
        load_checkpoint(path)


def test_magic_constant():
    assert MAGIC == b"CCTS"


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ck.bin"
    params = _params()
    save_checkpoint(path, CFG, params, seed=3, epoch=1)
    before = path.read_bytes()
    real, written = checkpoint._write_tensor, []

    def failing(f, name, arr):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(name)
        real(f, name, arr)

    monkeypatch.setattr(checkpoint, "_write_tensor", failing)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, CFG, init_params(CFG, seed=4), seed=4, epoch=2)
    assert path.read_bytes() == before
    back = load_checkpoint(path)
    assert back.epoch == 1 and back.seed == 3
    for name in params.names():
        assert np.array_equal(back.params[name].data, params[name].data)
    assert os.listdir(tmp_path) == ["ck.bin"]
    monkeypatch.setattr(checkpoint, "_write_tensor", real)
    save_checkpoint(path, CFG, init_params(CFG, seed=4), seed=4, epoch=2)
    assert load_checkpoint(path).epoch == 2
    assert os.listdir(tmp_path) == ["ck.bin"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_save_over_a_checkpoint_closes_the_replaced_file(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, CFG, _params(), seed=3, epoch=1)
    before = len(os.listdir("/proc/self/fd"))
    for epoch in range(2, 5):
        save_checkpoint(path, CFG, _params(), seed=3, epoch=epoch)
    for t in threading.enumerate():
        # the chunk pool's idle workers live as long as the process
        if t is not threading.current_thread() and not t.name.startswith("cct-chunk"):
            t.join(timeout=10)
    assert len(os.listdir("/proc/self/fd")) == before
    assert load_checkpoint(path).epoch == 4
    assert os.listdir(tmp_path) == ["ck.bin"]
