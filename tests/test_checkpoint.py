import dataclasses
import json
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from cct import checkpoint
from cct.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from cct.model import ModelConfig, ParameterSet, init_params, param_shapes
from cct.optim import AdamWHyperParams, init_adamw_state

CFG = ModelConfig(d_model=16, n_layers=2, n_heads=2, n_classes=7, img_size=8)
HP = AdamWHyperParams()


def _params():
    return init_params(CFG, seed=3)


def test_roundtrip_is_bit_exact(tmp_path):
    params = _params()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, CFG, params, seed=3, epoch=4, hp=HP,
                    opt_state=init_adamw_state(params))
    back = load_checkpoint(path)
    assert back.cfg == CFG and back.hp == HP
    assert back.seed == 3 and back.epoch == 4
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
    save_checkpoint(p1, CFG, params, seed=3, epoch=0, hp=HP,
                    opt_state=init_adamw_state(params))
    save_checkpoint(p2, CFG, params, seed=3, epoch=0, hp=HP,
                    opt_state=init_adamw_state(params))
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_rejects_unknown_version(tmp_path):
    params = _params()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, CFG, params, seed=0, epoch=0, hp=HP,
                    opt_state=init_adamw_state(params))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def _put_header_bytes(path, hbytes):
    """Replace the file's header bytes with `hbytes`."""
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    path.write_bytes(raw[:8] + struct.pack("<I", len(hbytes)) + hbytes
                     + raw[12 + hlen:])


def _put_header(path, header):
    """Replace the file's JSON header with `header`, dumped as saves do."""
    _put_header_bytes(path, json.dumps(header, sort_keys=True).encode("utf-8"))


def _rewrite_header(path, edit):
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    _put_header(path, header)


def _save_with_optimizer(path):
    cfg = dataclasses.replace(CFG, dropout_p=0.25)
    params = init_params(cfg, seed=3)
    save_checkpoint(path, cfg, params, seed=3, epoch=1,
                    hp=AdamWHyperParams(lr=0.005), opt_state=init_adamw_state(params))


@pytest.mark.parametrize("section,key", [("model", "dropout_p"),
                                         ("optimizer", "lr")])
def test_rejects_header_missing_a_key(tmp_path, section, key):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h[section].pop(key))
    with pytest.raises(CheckpointError, match=rf"missing \['{key}'\], extra \[\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("section,key", [("model", "pool_pad"),
                                         ("optimizer", "momentum")])
def test_rejects_header_with_an_unknown_key(tmp_path, section, key):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h[section].update({key: 1}))
    with pytest.raises(CheckpointError, match=rf"missing \[\], extra \['{key}'\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["model", "optimizer", "seed", "epoch", "opt_t"])
def test_rejects_header_without_a_top_level_key(tmp_path, key):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h.pop(key))
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(path))}: header keys .*missing \['{key}'\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["optimizer", "opt_t"])
def test_rejects_header_without_optimizer_state(tmp_path, key):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h.update({key: None}))
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(path))}: header {key} is null"):
        load_checkpoint(path)


def test_rejects_header_with_an_unknown_top_level_key(tmp_path):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h.update(step=3))
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(path))}: header keys .*extra \['step'\]"):
        load_checkpoint(path)


def test_rejects_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _put_header(path, ["model", "optimizer", "seed", "epoch", "opt_t"])
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(path))}: header is not a JSON object"):
        load_checkpoint(path)


@pytest.mark.parametrize("hbytes", [b"\xff\xfe{}", b'{"model": '],
                         ids=["not-utf8", "not-json"])
def test_rejects_header_that_is_not_utf8_json(tmp_path, hbytes):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _put_header_bytes(path, hbytes)
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(path))}: header is not UTF-8 JSON"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", ["10_bytes_short", "inside_the_header"])
def test_a_truncated_checkpoint_is_refused_by_name(tmp_path, cut):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    raw = path.read_bytes()
    end = len(raw) - 10 if cut == "10_bytes_short" else 20
    path.write_bytes(raw[:end])
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: truncated checkpoint"):
        load_checkpoint(path)


def test_trailing_bytes_are_refused_by_name(tmp_path):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: trailing bytes"):
        load_checkpoint(path)


def test_a_header_that_needs_more_than_the_file_holds_is_refused_before_allocating(tmp_path):
    """A header whose model config and tensors list agree on d_model 4096
    asks for 2.8 GB of tensors; the size check refuses it before any tensor
    is allocated."""
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)

    def grow(header):
        header["model"]["d_model"] = 4096
        cfg = ModelConfig(**header["model"])
        header["tensors"] = [[name, list(shape)] for name, shape in param_shapes(cfg).items()]

    _rewrite_header(path, grow)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: truncated "
                                                  rf"checkpoint: the tensors take 2821134420 bytes"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_tensor_dims_that_do_not_match_the_config_are_refused(tmp_path):
    """(16, 32) -> (32, 16) keeps the file's size, so only the check against
    the model config sees it."""
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)

    def swap(header):
        entry = next(t for t in header["tensors"] if t[0] == "layer0.mlp.w1")
        assert entry[1] == [16, 32]
        entry[1] = [32, 16]

    _rewrite_header(path, swap)
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: header tensor "
                                              rf"names and shapes do not match"):
        load_checkpoint(path)


@pytest.mark.parametrize("key,value", [("epoch", 2.5), ("seed", True),
                                       ("opt_t", 3.0), ("epoch", "1"),
                                       ("seed", -1), ("epoch", -1), ("opt_t", -1)])
def test_rejects_top_level_count_that_is_not_an_integer(tmp_path, key, value):
    """A float or a bool would load truncated or as 0/1 (epoch 2.5 as 2,
    seed true as 1), and a negative count has no meaning, so each is
    refused."""
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h.update({key: value}))
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(path))}: header {key} is not an integer"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["n_layers", "d_model", "seed"])
@pytest.mark.parametrize("value", [2.0, True])
def test_rejects_header_config_int_field_that_is_not_an_integer(tmp_path, key, value):
    """n_layers 2.0 would fail in range() without naming the file, d_model
    16.0 would load a float config that compares equal to the int one, and
    a bool would load as 0 or 1."""
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h["model"].update({key: value}))
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: header "
                                              rf"ModelConfig {key} is not an integer"):
        load_checkpoint(path)


def test_rejects_header_config_that_fails_validation(tmp_path):
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h["model"].update(n_heads=3))
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: header "
                                              rf"ModelConfig is not valid: .*n_heads=3"):
        load_checkpoint(path)


def test_rejects_version_1(tmp_path):
    # a version-1 header also carried in_channels, conv_kernel, pool_kernel,
    # pool_stride, pool_pad and layernorm_eps
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h["model"].update(
        in_channels=3, conv_kernel=3, pool_kernel=3, pool_stride=2, pool_pad=1,
        layernorm_eps=1e-5))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path)


def test_rejects_version_2(tmp_path):
    # a version-2 header's optimizer object also carried exempt_norms_biases
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h["optimizer"].update(exempt_norms_biases=False))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 2"):
        load_checkpoint(path)


def test_rejects_version_3(tmp_path):
    # a version-3 header had no tensors list: a name, dtype code and dims
    # came before each tensor instead
    path = tmp_path / "ck.bin"
    _save_with_optimizer(path)
    _rewrite_header(path, lambda h: h.pop("tensors"))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 3)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 3"):
        load_checkpoint(path)


def test_rejects_truncated_file(tmp_path):
    params = _params()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, CFG, params, seed=0, epoch=0, hp=HP,
                    opt_state=init_adamw_state(params))
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_rejects_name_config_mismatch(tmp_path):
    # tensors saved for an sdpa model, header edited to claim super
    cfg = dataclasses.replace(CFG, attn_kind="sdpa")
    path = tmp_path / "ck.bin"
    params = init_params(cfg, seed=0)
    save_checkpoint(path, cfg, params, seed=0, epoch=0, hp=HP,
                    opt_state=init_adamw_state(params))
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


def test_failed_save_keeps_previous_checkpoint(tmp_path):
    """A float64 AdamW v of the first parameter, the third tensor written,
    is refused, not cast, after the header and two tensors went out."""
    path = tmp_path / "ck.bin"
    params = _params()
    save_checkpoint(path, CFG, params, seed=3, epoch=1, hp=HP,
                    opt_state=init_adamw_state(params))
    before = path.read_bytes()
    other = init_params(CFG, seed=4)
    state = init_adamw_state(other)
    first = other.names()[0]
    state.v[first] = state.v[first].astype(np.float64)
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: tensor "
                                              rf"'adamw.v.{re.escape(first)}' is float64"):
        save_checkpoint(path, CFG, other, seed=4, epoch=2, hp=HP, opt_state=state)
    assert path.read_bytes() == before
    back = load_checkpoint(path)
    assert back.epoch == 1 and back.seed == 3
    for name in params.names():
        assert np.array_equal(back.params[name].data, params[name].data)
    assert os.listdir(tmp_path) == ["ck.bin"]
    save_checkpoint(path, CFG, other, seed=4, epoch=2, hp=HP,
                    opt_state=init_adamw_state(other))
    assert load_checkpoint(path).epoch == 2
    assert os.listdir(tmp_path) == ["ck.bin"]


def _save_args(params=None, **counts):
    """save_checkpoint's arguments besides path, config and hp, with
    `counts` (seed, epoch, opt_t) in place of the defaults."""
    params = params or init_params(CFG, seed=4)
    state = init_adamw_state(params)
    state.t = counts.pop("opt_t", 0)
    return {"params": params, "opt_state": state, "seed": 4, "epoch": 2, **counts}


def _moment_of_another_shape():
    args = _save_args()
    args["opt_state"].m["tokenizer.conv0.w"] = np.zeros(3, dtype=np.float32)
    return args


@pytest.mark.parametrize("make_args,what", [
    (lambda: _save_args(init_params(dataclasses.replace(CFG, d_model=8), seed=4)),
     "parameter names and shapes do not match"),
    (lambda: _save_args(ParameterSet(reversed(list(_params().items())))),
     "parameter names and shapes do not match"),
    (lambda: _save_args(ParameterSet(list(_params().items())[:-1])),
     "parameter names and shapes do not match"),
    (_moment_of_another_shape, "AdamW m names and shapes do not match"),
    (lambda: _save_args(epoch=-1), "header epoch is not an integer >= 0"),
    (lambda: _save_args(seed=-1), "header seed is not an integer >= 0"),
    (lambda: _save_args(opt_t=-1), "header opt_t is not an integer >= 0"),
    (lambda: _save_args(epoch=2.5), "header epoch is not an integer >= 0"),
    (lambda: _save_args(seed=True), "header seed is not an integer >= 0"),
], ids=["other_config", "reordered", "missing_one", "moment_shape", "epoch_-1",
        "seed_-1", "opt_t_-1", "epoch_2.5", "seed_true"])
def test_a_save_that_load_would_refuse_is_refused_before_writing(tmp_path, make_args, what):
    """Params or AdamW moments that are not param_shapes(cfg), or a count
    that is not an integer >= 0, are refused before the temporary file is
    opened, so the previous checkpoint stays as it was."""
    path = tmp_path / "ck.bin"
    params = _params()
    save_checkpoint(path, CFG, params, seed=3, epoch=1, hp=HP,
                    opt_state=init_adamw_state(params))
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: {what}"):
        save_checkpoint(path, CFG, hp=HP, **make_args())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ck.bin"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_save_over_a_checkpoint_closes_the_replaced_file(tmp_path):
    path = tmp_path / "ck.bin"
    params = _params()
    state = init_adamw_state(params)
    save_checkpoint(path, CFG, params, seed=3, epoch=1, hp=HP, opt_state=state)
    before = len(os.listdir("/proc/self/fd"))
    for epoch in range(2, 5):
        save_checkpoint(path, CFG, params, seed=3, epoch=epoch, hp=HP,
                        opt_state=state)
    for t in threading.enumerate():
        # the chunk pool's idle workers live as long as the process
        if t is not threading.current_thread() and not t.name.startswith("cct-chunk"):
            t.join(timeout=10)
    assert len(os.listdir("/proc/self/fd")) == before
    assert load_checkpoint(path).epoch == 4
    assert os.listdir(tmp_path) == ["ck.bin"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_rename_closes_the_old_file_and_removes_the_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "f.bin"
    path.write_bytes(b"old")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        with checkpoint.replacing(path) as f:
            f.write(b"new")
    assert len(os.listdir("/proc/self/fd")) == before
    assert os.listdir(tmp_path) == ["f.bin"]
    assert path.read_bytes() == b"old"
