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
from .tensor import ConfigError, Tensor, run_chunks

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

# Each channel is summed in segments of 256 pixels. 256 squares of at most
# 255**2 sum to 16,646,400 < 2**24, so every partial sum of a segment's
# values or squares is an integer that float32 holds exactly, in whatever
# order BLAS adds, and the totals depend on neither the block, the span nor
# the worker count. A 64-record block is about 786 KB of float32, so the
# blocks the workers hold stay far below the split. A pool call sums a span
# of 1024 records block by block: calls of one block each spent more in
# thread handoffs than the pool gained (2 cores, 50,000 records: 0.091 s
# against 0.086 s inline and 0.072 s in spans, medians of 15).
_SEGMENT_ONES = np.ones(256, dtype=np.float32)
_STATS_BLOCK = 64
_STATS_SPAN = 1024


def _span_sums(pixels) -> np.ndarray:
    """(sums, sums of squares) per channel of pixels (N, 3072) uint8, as a
    (2, 3) int64 array."""
    totals = np.zeros((2, 3), dtype=np.int64)
    for lo in range(0, len(pixels), _STATS_BLOCK):
        block = pixels[lo:lo + _STATS_BLOCK]
        x = block.astype(np.float32).reshape(len(block), 3, -1, _SEGMENT_ONES.size)
        totals[0] += (x @ _SEGMENT_ONES).astype(np.int64).sum(axis=(0, 2))
        x *= x
        totals[1] += (x @ _SEGMENT_ONES).astype(np.int64).sum(axis=(0, 2))
    return totals


def compute_norm_stats(records) -> NormStats:
    """Per-channel mean/std of pixel values scaled to [0,1]; zero std is
    clamped to 1 so constant channels stay finite.

    Each channel's sum and sum of squares are exact integers, made from
    float32 row sums of 256-pixel segments (see _SEGMENT_ONES), one block
    of records at a time on the chunk pool, so no copy of the split is
    made. The mean is the exact sum over the count, rounded once, as
    numpy's float64 mean gives it; the variance is exact before its one
    rounding.
    """
    if not len(records):
        raise DataError("compute_norm_stats: no records")
    pixels = records.array["pixels"]
    parts = run_chunks(lambda i: _span_sums(pixels[i * _STATS_SPAN:(i + 1) * _STATS_SPAN]),
                       -(-len(pixels) // _STATS_SPAN), _STATS_SPAN * pixels.shape[1])
    # Python ints: no overflow below
    totals = [sum(t) for t in zip(*(part.ravel().tolist() for part in parts))]
    n = len(records) * IMG_SHAPE[1] * IMG_SHAPE[2]
    mean, std = [], []
    for s, sq in zip(totals[:3], totals[3:]):
        mean.append(s / n)
        std.append(math.sqrt((n * sq - s * s) / (n * n)))
    mean = np.array(mean) / 255.0
    std = np.array(std) / 255.0
    std = np.where(std < 1e-8, 1.0, std)
    return NormStats(mean=mean, std=std)


def normalize(images, norm: NormStats, out) -> None:
    """Write (x/255 - mean) / std of uint8 images (..., 3, 32, 32) into out,
    a float32 array of their shape, in place on out."""
    out[...] = images
    shape = (3, 1, 1)
    out /= 255.0
    out -= norm.mean.reshape(shape).astype(np.float32)
    out /= norm.std.reshape(shape).astype(np.float32)


def _split_key(records) -> tuple:
    """(record count, crc32 of the coarse then the fine label column): what
    a stats file records of the split it came from. The pixels are left
    out, as hashing them would read the whole split."""
    labels = np.concatenate([records.array["coarse_label"], records.array["fine_label"]])
    return len(records), zlib.crc32(labels)


def save_norm_stats(path, norm: NormStats, key) -> None:
    """Write norm to path, with its split's key (see _split_key), through a
    temporary file renamed over path: a write that fails part way leaves no
    file whose key matches and whose stats are cut short."""
    with replacing(path, "w") as f:
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
    try:
        vals = {key: np.array([float(v) for v in nums], dtype=np.float64)
                for key, nums in fields.items()}
    except ValueError:  # a number that does not parse
        vals = {}
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

def crop_flip(images: np.ndarray, offsets, flip) -> np.ndarray:
    """Crop from reflect-pad 4 plus horizontal flip, for a whole batch.

    images (N, 3, 32, 32); offsets (N, 2) gives each image's window (oy, ox)
    in [0, 8] of its padded image, (4, 4) being the identity; flip (N,) bool
    mirrors the window left to right. Returns a new array, made by one pad,
    one gather of every window and one flip.
    """
    offsets, flip = np.asarray(offsets), np.asarray(flip, dtype=bool)
    padded = np.pad(images, ((0, 0), (0, 0), (4, 4), (4, 4)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (32, 32), axis=(2, 3))
    out = windows[np.arange(len(images)), :, offsets[:, 0], offsets[:, 1]]
    out[flip] = out[flip, :, :, ::-1]
    return out


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

# Rows of a batch one pool call gathers, crops, flips and normalizes: about
# 3 MiB of float32. An augmented pass over 50,000 records at batch 1024 took
# about 0.30 s in spans of 256 or 512 rows and 0.32 s in spans of 128 (2
# cores, medians of 8).
_BATCH_SPAN = 256


def batch_iter(records, batch_size: int, shuffle_seed: int, norm: NormStats,
               augment_enabled: bool, epoch: int = 0):
    """Deterministic epoch stream; order is a pure function of
    (shuffle_seed, epoch), augmentation of (shuffle_seed, epoch, index).

    An augmented epoch draws one value v in [0, 162) per record of the
    split, in index order, from stream("augment", shuffle_seed, epoch):
    record i's window is (oy, ox) = (v // 18, v // 2 % 9) and it is flipped
    if v is odd. Each batch's rows are gathered, cropped and flipped
    (crop_flip) and normalized into one float32 array, a span of rows per
    call on the chunk pool. Every row is computed on its own, so the bytes
    depend on neither the batch size, the span nor the worker count.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = len(records)
    pixels, fine = records.array["pixels"], records.array["fine_label"]
    perm = stream("shuffle", shuffle_seed, epoch).permutation(n)
    if augment_enabled:
        v = stream("augment", shuffle_seed, epoch).integers(0, 162, size=n)
        offsets, flip = np.stack([v // 18, v // 2 % 9], axis=1), v % 2 == 1
    for start in range(0, n, batch_size):
        idxs = perm[start:start + batch_size]
        images = np.empty((len(idxs), *IMG_SHAPE), dtype=np.float32)

        def build(part):
            rows = slice(part * _BATCH_SPAN, (part + 1) * _BATCH_SPAN)
            span = idxs[rows]
            x = pixels[span].reshape(-1, *IMG_SHAPE)
            if augment_enabled:
                x = crop_flip(x, offsets[span], flip[span])
            normalize(x, norm, images[rows])

        run_chunks(build, -(-len(idxs) // _BATCH_SPAN), _BATCH_SPAN * pixels.shape[1])
        yield Batch(images=Tensor(images), labels=fine[idxs].astype(np.int64))


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
