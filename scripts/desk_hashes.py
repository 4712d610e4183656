#!/usr/bin/env python3
"""Same-seed desk hashes: a fingerprint of a short training run's metrics.

Trains each attention kind for 2 epochs at the desk config (d_model 256,
6 layers, 4 heads, batch 32, seed 3, augmentation on) on 128 synthetic train
and 64 synthetic test records, and prints, per kind, the first 16 hex digits
of the sha256 of its metrics.csv lines with the wall_time_s column dropped,
joined by newlines. A change that keeps the trajectory bit-identical keeps
these hashes.

`ingest` is the same for the data path alone: the sha256 of one augmented
`batch_iter` epoch's image and label bytes over 2,048 synthetic records at
batch 1000 (seed 3, epoch 0), so that the last batch is a short one.

`norm` pins the normalization stats: the sha256 of `compute_norm_stats`'s
mean and std bytes over the same 2,048 synthetic records, then over 2,048
records of random pixels (numpy Generator seed 3) followed by one all-255
and one all-0 record.

`init` pins the initial parameters: the sha256 of each tensor's name and
bytes from `init_params` at the desk config with seed 3, in canonical order,
for super then sdpa, each at conv_blocks 1 then 2.

Each hash is printed with `ok` or `differs` against EXPECTED, the values
the current trajectory gives; the script exits 1 if any differs.

Usage: python3 scripts/desk_hashes.py [NAME ...]   (default: super sdpa ingest norm init)
"""
import hashlib
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from cct.data import (RECORD, TEST_FILE, TRAIN_FILE, Records, batch_iter,  # noqa: E402
                      compute_norm_stats, synthetic_dataset, write_records)
from cct.model import ModelConfig, init_params  # noqa: E402
from cct.train import RunConfig, train  # noqa: E402

EXPECTED = {"super": "4220e93647e2cb96", "sdpa": "820fccec300ef762",
            "ingest": "34cc2f956bc0e2fa", "norm": "4c4e917c40915fca",
            "init": "cebbf081e9098558"}


def desk_hash(attn_kind: str, work: str) -> str:
    data_dir = os.path.join(work, "data")
    os.makedirs(data_dir, exist_ok=True)
    write_records(os.path.join(data_dir, TRAIN_FILE), synthetic_dataset(128, 100, seed=0))
    write_records(os.path.join(data_dir, TEST_FILE), synthetic_dataset(64, 100, seed=1))
    run = RunConfig(attn_kind=attn_kind, d_model=256, n_layers=6, n_heads=4,
                    epochs=2, batch_size=32, seed=3, augment=True,
                    eval_batch_size=64)
    result = train(run, data_dir, os.path.join(work, attn_kind))
    with open(result["metrics"]) as f:
        # wall_time_s is the last column
        lines = [line.rstrip("\r\n").rsplit(",", 1)[0] for line in f]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def ingest_hash() -> str:
    records = synthetic_dataset(2048, 100, seed=0)
    h = hashlib.sha256()
    for batch in batch_iter(records, 1000, 3, compute_norm_stats(records), True):
        h.update(batch.images.data.tobytes())
        h.update(batch.labels.tobytes())
    return h.hexdigest()[:16]


def norm_hash() -> str:
    pixels = np.random.default_rng(3).integers(0, 256, (2050, 3072), dtype=np.uint8)
    pixels[-2], pixels[-1] = 255, 0
    labels = np.zeros(len(pixels), dtype=np.uint8)
    h = hashlib.sha256()
    for records in (synthetic_dataset(2048, 100, seed=0),
                    Records(np.rec.fromarrays([labels, labels, pixels], dtype=RECORD))):
        norm = compute_norm_stats(records)
        h.update(norm.mean.tobytes())
        h.update(norm.std.tobytes())
    return h.hexdigest()[:16]


def init_hash() -> str:
    h = hashlib.sha256()
    for attn_kind in ("super", "sdpa"):
        for conv_blocks in (1, 2):
            params = init_params(ModelConfig(attn_kind=attn_kind,
                                             conv_blocks=conv_blocks), 3)
            for name, t in params.items():
                h.update(name.encode())
                h.update(t.data.tobytes())
    return h.hexdigest()[:16]


def main(names) -> int:
    """Prints each name's hash and whether it is EXPECTED's; 1 if any differs."""
    data_hashes = {"ingest": ingest_hash, "norm": norm_hash, "init": init_hash}
    differs = False
    with tempfile.TemporaryDirectory() as work:
        for name in names:
            got = data_hashes[name]() if name in data_hashes else desk_hash(name, work)
            ok = got == EXPECTED[name]
            differs |= not ok
            print(name, got, "ok" if ok else "differs", flush=True)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(EXPECTED)))
