"""CIFAR-100 binary ingestion, normalization, augmentation, batching, and
synthetic data for tests.

A split is one array of `RECORD`, the official binary record: 3074 bytes =
coarse label byte, fine label byte, 3072 pixel bytes channel-planar (1024
red, 1024 green, 1024 blue), each plane row-major 32x32.
"""
from __future__ import annotations

import math
import mmap
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .checkpoint import replacing
from .seeding import stream
from .tensor import ConfigError, Tensor

RECORD = np.dtype((np.record, [("coarse_label", "u1"), ("fine_label", "u1"),
                               ("pixels", "u1", (3072,))]))
RECORD_BYTES = RECORD.itemsize
IMG_SHAPE = (3, 32, 32)
TRAIN_RECORDS = 50_000
TEST_RECORDS = 10_000
TRAIN_FILE = "train.bin"
TEST_FILE = "test.bin"


class DataError(ValueError):
    pass


class Records:
    """A split held as one `RECORD` array whose labels are in range.

    An integer index gives a numpy record (`.coarse_label`, `.fine_label`,
    `.pixels`), a slice gives a Records. Not an ndarray, so that
    `list += records` extends the list instead of broadcasting an add.
    """

    def __init__(self, records):
        try:
            self.array = np.asarray(records, dtype=RECORD)
        except (ValueError, OverflowError) as e:
            raise DataError(f"not {RECORD_BYTES}-byte records: {e}") from None
        for field, top in (("coarse_label", 19), ("fine_label", 99)):
            labels = self.array[field]
            if labels.size and labels.max() > top:
                raise DataError(f"{field} {int(labels.max())} outside [0, {top}]")

    def __array__(self, dtype=None, copy=None):
        return self.array.copy() if copy else self.array

    def __len__(self):
        return len(self.array)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Records(self.array[key])
        return self.array[key]

    def __iter__(self):
        return iter(self.array)


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray  # (3,), [0,1] scale
    std: np.ndarray   # (3,), > 0


@dataclass
class Batch:
    images: Tensor        # (B, 3, 32, 32) normalized float32
    labels: np.ndarray    # (B,) int64 fine labels


# ---------------------------------------------------------------------------
# loading / writing
# ---------------------------------------------------------------------------

def load_records(path) -> Records:
    """Map one record file of any length (must be whole records), read-only.

    The records are the file's own page-cache pages, so a load copies
    nothing and needs no fresh memory, whatever the heap holds. Replace a
    split file by renaming a new one over it, as write_records does: a file
    rewritten in place changes the records of every process that maps it,
    and one truncated in place kills them (SIGBUS).
    """
    size = os.path.getsize(path)
    if size == 0 or size % RECORD_BYTES:
        raise DataError(f"{path}: size {size} bytes is not a positive "
                        f"multiple of the {RECORD_BYTES}-byte record size")
    with open(path, "rb") as f:
        mapped = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ)
    try:
        return Records(np.frombuffer(mapped, dtype=RECORD))
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def load_cifar100(data_dir):
    """{"train": Records, "test": Records} of data_dir's two split files: the
    only reader of a data directory.

    The files form the official pair or a subset pair: if either has its
    official size, the other must have its own, byte-exactly; if neither
    does, each may hold any whole number of records.
    """
    splits = {}
    for split, fname, n in (("train", TRAIN_FILE, TRAIN_RECORDS),
                            ("test", TEST_FILE, TEST_RECORDS)):
        path = os.path.join(os.fspath(data_dir), fname)
        if not os.path.exists(path):
            raise FileNotFoundError(f"expected dataset file {path}")
        splits[split] = (path, n, os.path.getsize(path))
    if any(size == n * RECORD_BYTES for _, n, size in splits.values()):
        for path, n, size in splits.values():
            if size != n * RECORD_BYTES:
                raise DataError(f"{path}: expected {n * RECORD_BYTES} bytes "
                                f"({n} records) beside an official-size "
                                f"split, got {size}")
    return {split: load_records(path) for split, (path, _, _) in splits.items()}


def write_records(path, records) -> None:
    """Write a Records, or any sequence of records, in the file layout, to a
    temporary file renamed over `path`, so that a process that maps the old
    file keeps its records."""
    array = Records(records).array
    with replacing(path) as f:
        array.tofile(f)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

# Records per block of the per-channel value counts: a block's temporaries
# (one channel's pixels and bincount's int64 copy) stay far below the split.
_STATS_BLOCK = 128


def compute_norm_stats(records) -> NormStats:
    """Per-channel mean/std of pixel values scaled to [0,1]; zero std is
    clamped to 1 so constant channels stay finite.

    Both come from exact per-channel counts of the 256 pixel values, so no
    float copy of the split is made. The mean is the exact sum over the
    count, rounded once, as numpy's float64 mean gives it; the variance is
    exact before its one rounding.
    """
    if not len(records):
        raise DataError("compute_norm_stats: no records")
    pixels = records.array["pixels"].reshape(len(records), 3, -1)
    counts = np.zeros((3, 256), dtype=np.int64)
    for lo in range(0, len(pixels), _STATS_BLOCK):
        for c in range(3):
            counts[c] += np.bincount(pixels[lo:lo + _STATS_BLOCK, c].ravel(),
                                     minlength=256)
    mean, std = [], []
    for per_value in counts.tolist():  # Python ints: no overflow below
        n = sum(per_value)
        s = sum(v * k for v, k in enumerate(per_value))
        sq = sum(v * v * k for v, k in enumerate(per_value))
        mean.append(s / n)
        std.append(math.sqrt((n * sq - s * s) / (n * n)))
    mean = np.array(mean) / 255.0
    std = np.array(std) / 255.0
    std = np.where(std < 1e-8, 1.0, std)
    return NormStats(mean=mean, std=std)


def normalize(images, norm: NormStats):
    """(x/255 - mean) / std over (..., 3, 32, 32); uint8 in, float32 out
    (float inputs keep their dtype)."""
    x = np.asarray(images)
    dtype = np.float32 if x.dtype == np.uint8 else x.dtype
    x = x.astype(dtype)
    shape = (3, 1, 1)
    return (x / 255.0 - norm.mean.reshape(shape).astype(dtype)) \
        / norm.std.reshape(shape).astype(dtype)


def denormalize(images, norm: NormStats):
    x = np.asarray(images)
    shape = (3, 1, 1)
    return (x * norm.std.reshape(shape).astype(x.dtype)
            + norm.mean.reshape(shape).astype(x.dtype)) * 255.0


def _split_key(records) -> tuple:
    """(record count, crc32 of the coarse then the fine label column): what
    a stats file records of the split it came from. The pixels are left
    out, as hashing them would read the whole split."""
    labels = np.concatenate([records.array["coarse_label"], records.array["fine_label"]])
    return len(records), zlib.crc32(labels)


def save_norm_stats(path, norm: NormStats, key) -> None:
    """Write norm to path, with its split's key (see _split_key)."""
    with open(path, "w") as f:
        f.write("records " + " ".join(str(k) for k in key) + "\n")
        f.write("mean " + " ".join(repr(float(v)) for v in norm.mean) + "\n")
        f.write("std " + " ".join(repr(float(v)) for v in norm.std) + "\n")


def _stats_fields(path) -> dict:
    with open(path) as f:
        rows = [line.split() for line in f]
    return {row[0]: row[1:] for row in rows if row}


def load_norm_stats(path) -> NormStats:
    fields = _stats_fields(path)
    fields.pop("records", None)
    vals = {key: np.array([float(v) for v in nums], dtype=np.float64)
            for key, nums in fields.items()}
    if set(vals) != {"mean", "std"} or vals["mean"].shape != (3,) or vals["std"].shape != (3,):
        raise DataError(f"{path}: malformed normalization stats")
    return NormStats(mean=vals["mean"], std=vals["std"])


def cached_norm_stats(records, cache_path) -> NormStats:
    """Load stats from cache_path if it was written for a split with the
    same key (see _split_key), else compute them and try to cache them with
    the key. A split with the same labels but other pixels reads the file."""
    key = _split_key(records)
    if (cache_path is not None and os.path.exists(cache_path)
            and _stats_fields(cache_path).get("records") == [str(k) for k in key]):
        return load_norm_stats(cache_path)
    norm = compute_norm_stats(records)
    if cache_path is not None:
        try:
            save_norm_stats(cache_path, norm, key)
        except OSError:
            pass  # read-only data dir: stats are cheap to recompute
    return norm


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def hflip(image: np.ndarray) -> np.ndarray:
    return image[:, :, ::-1]


def reflect_crop(image: np.ndarray, oy: int, ox: int) -> np.ndarray:
    """Reflect-pad 4 then take the 32x32 window at (oy, ox); (4,4) is the
    identity crop."""
    padded = np.pad(image, ((0, 0), (4, 4), (4, 4)), mode="reflect")
    return padded[:, oy:oy + 32, ox:ox + 32]


def augment(image: np.ndarray, seed, enabled: bool) -> np.ndarray:
    """Random crop from reflect-pad 4 plus 50% horizontal flip."""
    if not enabled:
        return image
    rng = np.random.default_rng(seed)
    oy, ox = rng.integers(0, 9, size=2)
    out = reflect_crop(image, int(oy), int(ox))
    if rng.random() < 0.5:
        out = hflip(out)
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def batch_iter(records, batch_size: int, shuffle_seed: int, norm: NormStats,
               augment_enabled: bool, epoch: int = 0):
    """Deterministic epoch stream; order is a pure function of
    (shuffle_seed, epoch), augmentation of (shuffle_seed, epoch, index)."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = len(records)
    perm = stream("shuffle", shuffle_seed, epoch).permutation(n)
    for start in range(0, n, batch_size):
        idxs = perm[start:start + batch_size]
        imgs = records.array["pixels"][idxs].reshape(-1, *IMG_SHAPE)
        if augment_enabled:  # imgs is a fresh copy: augment it in place
            for row, i in enumerate(idxs):
                seed = stream("augment", shuffle_seed, epoch, int(i))
                imgs[row] = augment(imgs[row], seed, enabled=True)
        labels = records.array["fine_label"][idxs].astype(np.int64)
        yield Batch(images=Tensor(normalize(imgs, norm)), labels=labels)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def _class_palette(n_classes: int) -> np.ndarray:
    # distinct mean colors on a lattice inside the RGB cube
    levels = 1
    while levels ** 3 < n_classes:
        levels += 1
    axis = np.linspace(30.0, 225.0, levels)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)[:n_classes]


def synthetic_dataset(n: int, n_classes: int, seed: int):
    """Class-conditional color-blob images in real record format: per-class
    mean color plus pixel noise. Learnable by a tiny model, deterministic."""
    if n < 1:
        raise DataError(f"synthetic_dataset: n must be >= 1, got {n}")
    if not 1 <= n_classes <= 100:
        raise DataError(f"synthetic_dataset: n_classes must be in [1, 100], "
                        f"got {n_classes}")
    rng = stream("synthetic", seed)
    palette = _class_palette(n_classes)
    fine = np.arange(n) % n_classes
    rng.shuffle(fine)
    noise = rng.normal(0.0, 20.0, size=(n, 3, 1024))
    base = palette[fine][:, :, None]  # (n, 3, 1)
    pixels = np.clip(base + noise, 0, 255).astype(np.uint8).reshape(n, -1)
    return Records(np.rec.fromarrays([fine // 5, fine, pixels], dtype=RECORD))
