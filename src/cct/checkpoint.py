"""Binary checkpoint format.

Layout (all integers little-endian):
    magic   4 bytes  b"CCTS"
    version u32      currently 1
    hlen    u32      length of the JSON header
    header  hlen bytes of UTF-8 JSON: model config, optimizer hyperparameters
                     (or null), seed, epoch, optimizer step count (or null)
    count   u32      number of named tensors
    per tensor:
        nlen  u16, name nlen bytes UTF-8
        dtype u8     0 = float32, 1 = float64
        rank  u8
        dims  rank * u32
        data  raw little-endian values

Model parameters appear first in canonical order; if optimizer state is
stored, each parameter is followed by adamw.m.<name> and adamw.v.<name>.
Round-trips are bit-exact; a failed save leaves the previous file intact.
"""
from __future__ import annotations

import json
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .model import ModelConfig, ParameterSet, canonical_param_names
from .optim import AdamWHyperParams, AdamWState
from .tensor import Tensor

MAGIC = b"CCTS"
VERSION = 1
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
    hp: AdamWHyperParams | None
    opt_state: AdamWState | None


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
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, "
                              f"got {len(buf)}")
    return buf


def _read_tensor(f):
    (nlen,) = struct.unpack("<H", _read_exact(f, 2))
    name = _read_exact(f, nlen).decode("utf-8")
    code, rank = struct.unpack("<BB", _read_exact(f, 2))
    if code not in _CODE_DTYPES:
        raise CheckpointError(f"tensor {name!r} has unknown dtype code {code}")
    dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
    data = np.empty(dims, dtype=_CODE_DTYPES[code])
    got = f.readinto(data)  # straight into the array: no bytes copy
    if got != data.nbytes:
        raise CheckpointError(f"truncated checkpoint: wanted {data.nbytes} "
                              f"bytes, got {got}")
    return name, data


@contextmanager
def replacing(path, mode="wb", **open_kwargs):
    """Open a temporary file beside `path` and move it over `path` with
    os.replace when the block ends; if the block raises, remove it instead.
    `path` so holds either its previous contents or the whole new file."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    # Freeing the replaced file's blocks inside the rename waits for the
    # writeback of the new file that ext4 starts there (auto_da_alloc); on a
    # 38 MB checkpoint that made the save 45 % slower. Holding the old file
    # open moves that free to a close on another thread.
    try:
        held = os.open(path, os.O_RDONLY) if os.name == "posix" else None
    except OSError:  # no previous file to hold
        held = None
    os.replace(tmp, path)
    if held is not None:
        threading.Thread(target=os.close, args=(held,)).start()


def save_checkpoint(path, cfg: ModelConfig, params: ParameterSet, seed: int,
                    epoch: int, hp: AdamWHyperParams | None = None,
                    opt_state: AdamWState | None = None) -> None:
    header = {
        "model": asdict(cfg),
        "optimizer": asdict(hp) if hp is not None else None,
        "seed": int(seed),
        "epoch": int(epoch),
        "opt_t": int(opt_state.t) if opt_state is not None else None,
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    names = list(params.names())
    count = len(names) * (3 if opt_state is not None else 1)
    with replacing(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(hbytes)))
        f.write(hbytes)
        f.write(struct.pack("<I", count))
        for name in names:
            _write_tensor(f, name, params[name].data)
            if opt_state is not None:
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
        header = json.loads(_read_exact(f, hlen).decode("utf-8"))
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        tensors = dict(_read_tensor(f) for _ in range(count))
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensor table")

    cfg = ModelConfig(**header["model"])
    expected = canonical_param_names(cfg)
    has_opt = header["opt_t"] is not None
    want = list(expected)
    if has_opt:
        want += [f"adamw.{s}.{n}" for n in expected for s in ("m", "v")]
    if sorted(tensors) != sorted(want):
        missing = sorted(set(want) - set(tensors))
        extra = sorted(set(tensors) - set(want))
        raise CheckpointError(f"{path}: tensor names do not match the model "
                              f"config (missing {missing[:3]}, extra {extra[:3]})")

    params = ParameterSet((name, Tensor(tensors[name], requires_grad=True))
                          for name in expected)

    hp = AdamWHyperParams(**header["optimizer"]) if header["optimizer"] else None
    opt_state = None
    if has_opt:
        opt_state = AdamWState(
            t=int(header["opt_t"]),
            m={n: tensors[f"adamw.m.{n}"] for n in expected},
            v={n: tensors[f"adamw.v.{n}"] for n in expected})
    return CheckpointData(cfg=cfg, params=params, seed=int(header["seed"]),
                          epoch=int(header["epoch"]), hp=hp, opt_state=opt_state)
