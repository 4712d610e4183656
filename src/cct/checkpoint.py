"""Binary checkpoint format.

Layout (all integers little-endian):
    magic   4 bytes  b"CCTS"
    version u32      currently 3; others are refused (1 had six more model
                     keys, 2 one more optimizer key)
    hlen    u32      length of the JSON header
    header  hlen bytes of UTF-8 JSON: an object of exactly five keys, the
                     model config, optimizer hyperparameters, seed, epoch and
                     optimizer step count (the last three JSON integers);
                     the two config objects carry exactly their class's
                     fields, none null and each int field a JSON integer
    count   u32      number of named tensors
    per tensor:
        nlen  u16, name nlen bytes UTF-8
        dtype u8     0 = float32, 1 = float64
        rank  u8
        dims  rank * u32
        data  raw little-endian values

Parameters appear in canonical order, each followed by its AdamW moments
adamw.m.<name> and adamw.v.<name>.
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

from .model import ModelConfig, ParameterSet, canonical_param_names
from .optim import AdamWHyperParams, AdamWState
from .tensor import Tensor

MAGIC = b"CCTS"
VERSION = 3
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


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


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
    nb = name.encode("utf-8")
    f.write(struct.pack("<H", len(nb)))
    f.write(nb)
    f.write(struct.pack("<BB", code, arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code]))  # no bytes copy


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(f"{f.name}: truncated checkpoint: wanted {n} "
                              f"bytes, got {len(buf)}")
    return buf


def _read_tensor(f, size: int):
    """One tensor from f, an open checkpoint file of size bytes, whose name
    is its path."""
    (nlen,) = struct.unpack("<H", _read_exact(f, 2))
    name = _read_exact(f, nlen).decode("utf-8")
    code, rank = struct.unpack("<BB", _read_exact(f, 2))
    if code not in _CODE_DTYPES:
        raise CheckpointError(f"{f.name}: tensor {name!r} has unknown dtype code {code}")
    dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
    dtype = _CODE_DTYPES[code]
    nbytes, left = math.prod(dims) * dtype.itemsize, size - f.tell()
    if nbytes > left:  # refused before corrupt dims can allocate anything
        raise CheckpointError(f"{f.name}: truncated checkpoint: tensor {name!r} "
                              f"of shape {dims} needs {nbytes} bytes, {left} left")
    data = np.empty(dims, dtype=dtype)
    if f.readinto(data) != nbytes:  # straight into the array: no bytes copy
        raise CheckpointError(f"{f.name}: checkpoint shrank while it was read")
    return name, data


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
_HEADER_KEYS = ("model", "optimizer", "seed", "epoch", "opt_t")


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


def save_checkpoint(path, cfg: ModelConfig, params: ParameterSet, seed: int,
                    epoch: int, hp: AdamWHyperParams,
                    opt_state: AdamWState) -> None:
    header = {
        "model": asdict(cfg),
        "optimizer": asdict(hp),
        "seed": int(seed),
        "epoch": int(epoch),
        "opt_t": int(opt_state.t),
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    names = list(params.names())
    count = len(names) * 3
    with replacing(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(hbytes)))
        f.write(hbytes)
        f.write(struct.pack("<I", count))
        for name in names:
            _write_tensor(f, name, params[name].data)
            _write_tensor(f, f"adamw.m.{name}", opt_state.m[name])
            _write_tensor(f, f"adamw.v.{name}", opt_state.v[name])


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
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        size = os.fstat(f.fileno()).st_size
        try:
            tensors = dict(_read_tensor(f, size) for _ in range(count))
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: tensor name is not UTF-8: {e}") from None
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensor table")

    _check_keys(path, "header", header, _HEADER_KEYS)
    for key in ("optimizer", "opt_t"):
        if header[key] is None:
            raise CheckpointError(f"{path}: header {key} is null: the checkpoint "
                                  f"carries no optimizer state to resume from")
    for key in ("seed", "epoch", "opt_t"):
        if type(header[key]) is not int:  # bool is an int subclass
            raise CheckpointError(f"{path}: header {key} is not an integer "
                                  f"(got {header[key]!r})")
    cfg = _config_from_header(path, ModelConfig, header["model"])
    hp = _config_from_header(path, AdamWHyperParams, header["optimizer"])
    expected = canonical_param_names(cfg)
    want = expected + [f"adamw.{s}.{n}" for n in expected for s in ("m", "v")]
    if sorted(tensors) != sorted(want):
        missing = sorted(set(want) - set(tensors))
        extra = sorted(set(tensors) - set(want))
        raise CheckpointError(f"{path}: tensor names do not match the model "
                              f"config (missing {missing[:3]}, extra {extra[:3]})")

    params = ParameterSet((name, Tensor(tensors[name], requires_grad=True))
                          for name in expected)
    opt_state = AdamWState(t=header["opt_t"],
                           m={n: tensors[f"adamw.m.{n}"] for n in expected},
                           v={n: tensors[f"adamw.v.{n}"] for n in expected})
    return CheckpointData(cfg=cfg, params=params, seed=header["seed"],
                          epoch=header["epoch"], hp=hp, opt_state=opt_state)
