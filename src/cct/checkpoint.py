"""Binary checkpoint format.

Layout (all integers little-endian):
    magic   4 bytes  b"CCTS"
    version u32      currently 4; others are refused (1 had six more model
                     keys, 2 one more optimizer key, 3 a name, dtype code
                     and dims before each tensor)
    hlen    u32      length of the JSON header
    header  hlen bytes of UTF-8 JSON: an object of exactly six keys, the
                     model config, optimizer hyperparameters, seed, epoch,
                     optimizer step count (the last three JSON integers
                     >= 0) and `tensors`, the [name, shape] list of the
                     parameters in canonical order, which must equal
                     param_shapes of the model config; the two config
                     objects carry exactly their class's fields, none null
                     and each int field a JSON integer
    data    for each parameter in that order, the raw little-endian float32
            values of the parameter, its AdamW m and its AdamW v; nothing
            follows, so the header fixes the file's size

Round-trips are bit-exact; a failed save leaves the previous file intact.
"""
from __future__ import annotations

import json
import math
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .model import ModelConfig, ParameterSet, param_shapes
from .optim import AdamWHyperParams, AdamWState
from .tensor import Tensor

MAGIC = b"CCTS"
VERSION = 4


class CheckpointError(ValueError):
    pass


@dataclass
class CheckpointData:
    cfg: ModelConfig
    params: ParameterSet
    seed: int
    epoch: int
    hp: AdamWHyperParams
    opt_state: AdamWState


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(f"{f.name}: truncated checkpoint: wanted {n} "
                              f"bytes, got {len(buf)}")
    return buf


@contextmanager
def replacing(path, mode="wb", **open_kwargs):
    """Open a temporary file beside `path` and move it over `path` with
    os.replace when the block ends; if the block or the move raises, remove
    it instead. `path` so holds either its previous contents or the whole
    new file. Every file cct writes goes through here: checkpoints, record
    files, the norm-stats cache and each row of the metrics CSV."""
    tmp = os.fspath(path) + ".tmp"
    held = None
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        # Freeing the replaced file's blocks inside the rename waits for the
        # writeback of the new file that ext4 starts there (auto_da_alloc);
        # on a 38 MB checkpoint that made the save 45 % slower. Holding the
        # old file open moves that free to a close on another thread.
        try:
            held = os.open(path, os.O_RDONLY) if os.name == "posix" else None
        except OSError:  # no previous file to hold
            pass
        os.replace(tmp, path)
    except BaseException:
        if held is not None:
            os.close(held)
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    if held is not None:
        threading.Thread(target=os.close, args=(held,)).start()


# The header's top-level keys, all required.
_HEADER_KEYS = ("model", "optimizer", "seed", "epoch", "opt_t", "tensors")


def _check_keys(path, what: str, values, names) -> None:
    """Refuse a header object that is not a JSON object or whose keys are not
    exactly `names`, so that no setting falls back to a default or is
    dropped unread."""
    if not isinstance(values, dict):
        raise CheckpointError(f"{path}: {what} is not a JSON object "
                              f"(got {type(values).__name__})")
    missing, extra = sorted(set(names) - set(values)), sorted(set(values) - set(names))
    if missing or extra:
        raise CheckpointError(f"{path}: {what} keys do not match "
                              f"(missing {missing}, extra {extra})")


def _config_from_header(path, cls, values):
    """cls built from a header object that carries exactly its fields, each
    int field a JSON integer."""
    _check_keys(path, f"header {cls.__name__}", values, [f.name for f in fields(cls)])
    for f in fields(cls):
        if f.type == "int" and type(values[f.name]) is not int:  # nor a bool
            raise CheckpointError(f"{path}: header {cls.__name__} {f.name} is not "
                                  f"an integer (got {values[f.name]!r})")
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:  # ConfigError is a ValueError
        raise CheckpointError(f"{path}: header {cls.__name__} is not valid: {e}") from None


def _check_count(path, key: str, value) -> None:
    if type(value) is not int or value < 0:  # nor a bool
        raise CheckpointError(f"{path}: header {key} is not an integer "
                              f">= 0 (got {value!r})")


def _tensor_list(shapes: dict) -> list:
    """The header's `tensors`: [name, shape] of each parameter in order."""
    return [[name, list(shape)] for name, shape in shapes.items()]


def save_checkpoint(path, cfg: ModelConfig, params: ParameterSet, seed: int,
                    epoch: int, hp: AdamWHyperParams,
                    opt_state: AdamWState) -> None:
    """Refuses, before `path` is touched, what load_checkpoint would refuse:
    parameters or AdamW moments that are not param_shapes(cfg), and counts
    that are not integers >= 0."""
    tensors = _tensor_list(param_shapes(cfg))
    for what, arrays in (("parameter", dict(params.items())),
                         ("AdamW m", opt_state.m), ("AdamW v", opt_state.v)):
        if [[name, list(a.shape)] for name, a in arrays.items()] != tensors:
            raise CheckpointError(f"{path}: {what} names and shapes do not "
                                  f"match the model config")
    for key, value in (("seed", seed), ("epoch", epoch), ("opt_t", opt_state.t)):
        _check_count(path, key, value)
    header = {
        "model": asdict(cfg),
        "optimizer": asdict(hp),
        "seed": seed,
        "epoch": epoch,
        "opt_t": opt_state.t,
        "tensors": tensors,
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(hbytes)))
        f.write(hbytes)
        for name in params:
            for key, arr in ((name, params[name].data),
                             (f"adamw.m.{name}", opt_state.m[name]),
                             (f"adamw.v.{name}", opt_state.v[name])):
                if arr.dtype != np.float32:
                    raise CheckpointError(f"{path}: tensor {key!r} is {arr.dtype}, "
                                          f"not float32")
                f.write(np.ascontiguousarray(arr, dtype="<f4"))  # no bytes copy


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
        version, hlen = struct.unpack("<II", _read_exact(f, 8))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version "
                                  f"{version} (expected {VERSION})")
        hbytes = _read_exact(f, hlen)
        try:
            header = json.loads(hbytes.decode("utf-8"))
        except ValueError as e:  # UnicodeDecodeError, JSONDecodeError
            raise CheckpointError(f"{path}: header is not UTF-8 JSON: {e}") from None
        _check_keys(path, "header", header, _HEADER_KEYS)
        for key in ("optimizer", "opt_t"):
            if header[key] is None:
                raise CheckpointError(f"{path}: header {key} is null: the checkpoint "
                                      f"carries no optimizer state to resume from")
        for key in ("seed", "epoch", "opt_t"):
            _check_count(path, key, header[key])
        cfg = _config_from_header(path, ModelConfig, header["model"])
        hp = _config_from_header(path, AdamWHyperParams, header["optimizer"])
        shapes = param_shapes(cfg)
        if header["tensors"] != _tensor_list(shapes):
            raise CheckpointError(f"{path}: header tensor names and shapes do not "
                                  f"match the model config")
        # Checked before anything is allocated, so a corrupt header cannot
        # ask for more memory than the file holds.
        need = 3 * 4 * sum(math.prod(shape) for shape in shapes.values())
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left != need:
            what = "truncated checkpoint" if left < need else "trailing bytes in checkpoint"
            raise CheckpointError(f"{path}: {what}: the tensors take {need} "
                                  f"bytes, {left} follow the header")
        arrays = ({}, {}, {})  # the parameters, AdamW m, AdamW v
        for name, shape in shapes.items():
            for into in arrays:
                into[name] = data = np.empty(shape, dtype="<f4")
                if f.readinto(data) != data.nbytes:  # straight in: no bytes copy
                    raise CheckpointError(f"{path}: checkpoint shrank while it was read")

    values, m, v = arrays
    params = ParameterSet((name, Tensor(values[name], requires_grad=True))
                          for name in shapes)
    return CheckpointData(cfg=cfg, params=params, seed=header["seed"],
                          epoch=header["epoch"], hp=hp,
                          opt_state=AdamWState(t=header["opt_t"], m=m, v=v))
