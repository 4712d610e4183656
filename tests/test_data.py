"""Dataset loading, normalization, augmentation, batching, synthetic data."""
import errno
import importlib.util
import math
import os
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cct.data
import cct.tensor
import cct.train
from cct.data import (
    IMG_SHAPE,
    RECORD,
    RECORD_BYTES,
    DataError,
    NormStats,
    Records,
    batch_iter,
    cached_norm_stats,
    compute_norm_stats,
    crop_flip,
    load_cifar100,
    load_norm_stats,
    load_records,
    normalize,
    synthetic_dataset,
    write_records,
)
from cct.seeding import stream
from cct.tensor import ConfigError
from oracles import ref_norm_stats, ref_normalize, ref_window


def _filled(*fills, fine=0):
    """One record per fill value, every pixel byte set to it."""
    return Records([(fine // 5, fine, np.full(3072, v, dtype=np.uint8)) for v in fills])


# ---------------------------------------------------------------------------
# records and files
# ---------------------------------------------------------------------------

def test_record_dtype_is_the_file_layout():
    assert RECORD.itemsize == RECORD_BYTES == 3074
    assert RECORD.names == ("coarse_label", "fine_label", "pixels")
    assert [RECORD.fields[n][1] for n in RECORD.names] == [0, 1, 2]


def test_record_rejects_out_of_range_labels():
    px = np.zeros(3072, dtype=np.uint8)
    with pytest.raises(DataError, match="fine_label 120"):
        Records([(0, 120, px)])
    with pytest.raises(DataError, match="coarse_label 20"):
        Records([(20, 0, px)])
    with pytest.raises(DataError):
        Records([(0, -1, px)])
    with pytest.raises(DataError, match="fine_label 100"):
        Records([(0, 0, px), (0, 100, px)])
    arr = np.zeros(3, dtype=RECORD)
    arr["coarse_label"][2] = 20
    with pytest.raises(DataError, match="coarse_label 20"):
        Records(arr)


def test_record_rejects_wrong_pixel_count():
    with pytest.raises(DataError):
        Records([(0, 0, np.zeros(3071, dtype=np.uint8))])


def test_records_sequence_protocol():
    recs = synthetic_dataset(6, 3, seed=0)
    assert len(recs) == 6
    r = recs[4]
    assert (r.coarse_label, r.fine_label) == (recs.array["coarse_label"][4],
                                              recs.array["fine_label"][4])
    assert r.pixels.shape == (3072,) and r.pixels.dtype == np.uint8
    assert np.array_equal(recs[-1].pixels, recs.array["pixels"][5])
    part = recs[1:4]
    assert isinstance(part, Records) and len(part) == 3
    assert np.array_equal(part.array, recs.array[1:4])
    assert [x.fine_label for x in recs] == list(recs.array["fine_label"])
    # not an ndarray: list += records extends the list with records
    out = []
    out += recs
    assert len(out) == 6 and out[4].fine_label == r.fine_label


def test_write_then_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    recs = Records([(i // 5, i, rng.integers(0, 256, 3072, dtype=np.uint8))
                    for i in range(7)])
    path = tmp_path / "r.bin"
    write_records(path, recs)
    assert path.stat().st_size == 7 * RECORD_BYTES
    back = load_records(path)
    assert len(back) == 7
    for a, b in zip(recs, back):
        assert a.coarse_label == b.coarse_label
        assert a.fine_label == b.fine_label
        assert np.array_equal(a.pixels, b.pixels)
    raw = path.read_bytes()
    assert raw[:2] == bytes((0, 0)) and raw[RECORD_BYTES + 1] == 1
    assert raw[2:RECORD_BYTES] == recs[0].pixels.tobytes()
    # a plain list of records writes the same bytes
    listed = tmp_path / "l.bin"
    write_records(listed, list(recs))
    assert listed.read_bytes() == raw


def test_load_maps_the_file_instead_of_copying_it(tmp_path):
    path = tmp_path / "r.bin"
    write_records(path, synthetic_dataset(2000, 10, seed=0))  # 6.1 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recs = load_records(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(recs) == 2000 and not recs.array.flags.writeable
    assert held < 2000 * RECORD_BYTES // 10, held


def test_rewriting_a_split_keeps_the_records_already_loaded(tmp_path):
    path = tmp_path / "r.bin"
    first, second = synthetic_dataset(9, 5, seed=0), synthetic_dataset(4, 5, seed=1)
    write_records(path, first)
    loaded = load_records(path)
    write_records(path, second)
    assert loaded.array.tobytes() == first.array.tobytes()
    write_records(path, loaded)  # a split written back over its own file
    assert load_records(path).array.tobytes() == first.array.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.bin"]


def test_load_records_rejects_truncated_file(tmp_path):
    path = tmp_path / "r.bin"
    path.write_bytes(b"\x00" * (2 * RECORD_BYTES + 7))
    with pytest.raises(DataError, match="3074"):
        load_records(path)


def test_load_records_rejects_empty_file(tmp_path):
    path = tmp_path / "r.bin"
    path.write_bytes(b"")
    with pytest.raises(DataError):
        load_records(path)


@settings(max_examples=30, deadline=None)
@given(cut=st.integers(min_value=1, max_value=RECORD_BYTES - 1))
def test_any_truncation_is_rejected(tmp_path_factory, cut):
    path = tmp_path_factory.mktemp("d") / "r.bin"
    path.write_bytes(b"\x00" * (3 * RECORD_BYTES - cut))
    with pytest.raises(DataError):
        load_records(path)


def test_load_records_rejects_bad_labels(tmp_path):
    raw = bytearray(RECORD_BYTES)
    raw[1] = 150  # fine label out of range
    path = tmp_path / "r.bin"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="150"):
        load_records(path)


def test_load_cifar100_size_gate(tmp_path):
    # all-zero bytes form valid records (labels 0), so exact-size files load
    (tmp_path / "train.bin").write_bytes(b"\x00" * (50_000 * RECORD_BYTES))
    (tmp_path / "test.bin").write_bytes(b"\x00" * (10_000 * RECORD_BYTES))
    splits = load_cifar100(tmp_path)
    assert len(splits["train"]) == 50_000
    assert len(splits["test"]) == 10_000


def test_load_cifar100_rejects_wrong_size(tmp_path):
    (tmp_path / "train.bin").write_bytes(b"\x00" * (50_000 * RECORD_BYTES - 1))
    (tmp_path / "test.bin").write_bytes(b"\x00" * (10_000 * RECORD_BYTES))
    with pytest.raises(DataError, match="153700000"):
        load_cifar100(tmp_path)


def test_load_cifar100_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="train.bin"):
        load_cifar100(tmp_path)


def _split_files(data_dir, train_records, test_records):
    """All-zero split files (valid records, labels 0), written sparse so that
    an official-size file costs no disk."""
    for name, n in (("train.bin", train_records), ("test.bin", test_records)):
        with open(data_dir / name, "wb") as f:
            os.truncate(f.fileno(), n * RECORD_BYTES)


def test_load_cifar100_refuses_official_train_beside_subset_test(tmp_path):
    _split_files(tmp_path, 50_000, 32)
    with pytest.raises(DataError, match=r"test\.bin: expected 30740000 bytes.*got 98368"):
        load_cifar100(tmp_path)


def test_load_cifar100_refuses_official_test_beside_subset_train(tmp_path):
    _split_files(tmp_path, 64, 10_000)
    with pytest.raises(DataError, match=r"train\.bin: expected 153700000 bytes.*got 196736"):
        load_cifar100(tmp_path)


@pytest.mark.parametrize("n_train,n_test", [(64, 32), (128, 64), (1000, 1000),
                                            (2048, 512)])
def test_load_cifar100_loads_a_subset_pair(tmp_path, n_train, n_test):
    _split_files(tmp_path, n_train, n_test)
    splits = load_cifar100(tmp_path)
    assert (len(splits["train"]), len(splits["test"])) == (n_train, n_test)


def test_only_load_cifar100_opens_a_data_directory():
    # a second, ungated loader path would have to name the split files
    src = Path(cct.data.__file__).parent
    naming = sorted(p.name for p in src.glob("*.py")
                    if re.search(r"\b(TRAIN|TEST)_FILE\b", p.read_text()))
    assert naming == ["data.py"]
    assert not hasattr(cct.train, "load_records")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_norm_stats_constant_image():
    stats = compute_norm_stats(_filled(128, 128, 128))
    assert np.allclose(stats.mean, 128 / 255)
    assert np.array_equal(stats.std, np.ones(3))  # zero std clamped


def test_norm_stats_two_value_channel():
    # half pixels 0, half 255 in every channel: mean .5, std .5
    px = np.zeros(3072, dtype=np.uint8)
    px[::2] = 255
    stats = compute_norm_stats(Records([(0, 0, px)]))
    assert np.allclose(stats.mean, 0.5)
    assert np.allclose(stats.std, 0.5)


def test_norm_stats_requires_records():
    with pytest.raises(DataError):
        compute_norm_stats([])
    with pytest.raises(DataError):
        compute_norm_stats(Records(np.empty(0, dtype=RECORD)))
    with pytest.raises(DataError):
        compute_norm_stats(synthetic_dataset(3, 3, seed=0)[3:])


def test_norm_stats_match_stacked_rows_oracle():
    recs = synthetic_dataset(300, 10, seed=4)
    rows = np.stack([np.frombuffer(r.tobytes()[2:], dtype=np.uint8) for r in recs])
    arr = rows.reshape(len(rows), 3, -1)
    stats = compute_norm_stats(recs)
    assert stats.mean.tobytes() == (arr.mean(axis=(0, 2), dtype=np.float64) / 255.0).tobytes()
    # the variance in exact rational arithmetic, rounded once
    exact = []
    for ch in arr.transpose(1, 0, 2).reshape(3, -1):
        vals, n = ch.tolist(), ch.size
        s = sum(vals)
        # sum((v - s/n)^2) / n, scaled by n^2 to stay in integers
        var = Fraction(sum((n * v - s) ** 2 for v in vals), n ** 3)
        exact.append(math.sqrt(float(var)))
    assert stats.std.tobytes() == (np.array(exact) / 255.0).tobytes()
    # numpy's float64 std sums its squares in another order: last bits only
    np.testing.assert_allclose(stats.std, arr.std(axis=(0, 2), dtype=np.float64) / 255.0,
                               rtol=5e-15, atol=0)


def test_norm_stats_make_no_copy_of_the_split():
    """Peak allocation stays below the split's own pixel bytes; a float64
    copy of the pixels would be eight times as large."""
    recs = synthetic_dataset(1000, 10, seed=4)
    tracemalloc.start()
    try:
        compute_norm_stats(recs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < recs.array["pixels"].nbytes


def _pixel_split(pixels):
    """A split of label-0 records holding pixels (N, 3072) uint8."""
    n = len(pixels)
    return Records(np.rec.fromarrays([np.zeros(n, np.uint8), np.zeros(n, np.uint8), pixels],
                                     dtype=RECORD))


def _random_split(n, seed=0):
    return _pixel_split(np.random.default_rng(seed).integers(0, 256, (n, 3072), dtype=np.uint8))


_BINCOUNT_SPLITS = {
    "random_2048": lambda: _random_split(2048),
    # every segment sums 256 * 255**2 = 16,646,400 squares, the most below 2**24
    "all_255": lambda: _pixel_split(np.full((2048, 3072), 255, dtype=np.uint8)),
    "all_0": lambda: _pixel_split(np.zeros((2048, 3072), dtype=np.uint8)),
    "not_a_block_multiple": lambda: _random_split(1013, seed=1),
    "one_span_and_a_bit": lambda: _random_split(1030, seed=2),
    "one_record": lambda: _random_split(1, seed=3),
    "full_train_split": lambda: _random_split(50_000, seed=4),
}


@pytest.mark.parametrize("workers", [None, 1])
@pytest.mark.parametrize("split", sorted(_BINCOUNT_SPLITS))
def test_norm_stats_have_the_bytes_of_the_bincount_oracle(split, workers, monkeypatch):
    """The float32 segment sums give the exact per-channel totals of the
    value counts, on the pool and inline."""
    if workers is not None:
        monkeypatch.setattr(cct.tensor, "_WORKERS", workers)
    recs = _BINCOUNT_SPLITS[split]()
    stats = compute_norm_stats(recs)
    mean, std = ref_norm_stats(recs.array["pixels"])
    assert stats.mean.tobytes() == mean.tobytes()
    assert stats.std.tobytes() == std.tobytes()


def test_norm_stats_do_not_depend_on_block_or_span(monkeypatch):
    recs = _random_split(700, seed=5)
    want = _stats_bits(compute_norm_stats(recs))
    monkeypatch.setattr(cct.data, "_STATS_BLOCK", 3)
    monkeypatch.setattr(cct.data, "_STATS_SPAN", 40)
    assert _stats_bits(compute_norm_stats(recs)) == want


def test_normalize_uint8_gives_float32():
    """A uint8 image of one value per channel becomes float32 values of
    (x / 255 - mean) / std, the same at every pixel of a channel."""
    stats = compute_norm_stats(_filled(100, 200))
    out = np.empty(IMG_SHAPE, dtype=np.float32)
    normalize(np.full(IMG_SHAPE, 100, dtype=np.uint8), stats, out)
    assert out.dtype == np.float32
    want = (100 / 255.0 - stats.mean) / stats.std
    np.testing.assert_allclose(out, np.broadcast_to(want.reshape(3, 1, 1), IMG_SHAPE),
                               rtol=1e-6)


@pytest.mark.parametrize("dtype, out_dtype", [(np.uint8, np.float32)])
def test_normalize_in_place_keeps_the_bytes_and_its_argument(dtype, out_dtype):
    """normalize writes into the out its caller passes: the argument is
    unchanged and the bytes are those of (x / 255 - mean) / std in one
    expression."""
    rng = np.random.default_rng(8)
    recs = Records([(0, i, rng.integers(0, 256, 3072, dtype=np.uint8)) for i in range(6)])
    stats = compute_norm_stats(recs)
    x = recs.array["pixels"].reshape(-1, *IMG_SHAPE).astype(dtype)
    before = x.copy()
    out = np.empty(x.shape, dtype=out_dtype)
    normalize(x, stats, out)
    assert np.array_equal(x, before) and x.dtype == dtype
    want = ref_normalize(before, stats)
    assert want.dtype == out_dtype
    assert out.tobytes() == want.tobytes()


def test_norm_stats_cache_roundtrip(tmp_path, monkeypatch):
    recs = synthetic_dataset(20, 10, seed=0)
    path = tmp_path / "norm_stats.txt"
    stats = cached_norm_stats(recs, path)
    assert path.exists()
    loaded = load_norm_stats(path)
    assert np.array_equal(loaded.mean, stats.mean)
    assert np.array_equal(loaded.std, stats.std)
    # second call for the same split must read the cache, not recompute
    monkeypatch.setattr(cct.data, "compute_norm_stats", None)
    again = cached_norm_stats(recs, path)
    assert np.array_equal(again.mean, stats.mean)
    assert np.array_equal(again.std, stats.std)


def _stats_bits(stats):
    return stats.mean.tobytes() + stats.std.tobytes()


@pytest.mark.parametrize("n, classes", [(128, 100), (64, 7)])
def test_norm_stats_cache_of_another_split_is_recomputed(tmp_path, n, classes):
    """A data directory whose 64-record train split is replaced, by one of
    another record count or by one of the same count with other labels,
    reads the new split's stats, not the cached ones."""
    write_records(tmp_path / "train.bin", synthetic_dataset(64, 10, seed=0))
    write_records(tmp_path / "test.bin", synthetic_dataset(32, 10, seed=1))
    path = tmp_path / "norm_stats.txt"
    first = cached_norm_stats(load_cifar100(tmp_path)["train"], path)
    assert _stats_bits(first) == _stats_bits(compute_norm_stats(synthetic_dataset(64, 10, seed=0)))
    write_records(tmp_path / "train.bin", synthetic_dataset(n, classes, seed=5))
    train = load_cifar100(tmp_path)["train"]
    assert _stats_bits(cached_norm_stats(train, path)) == _stats_bits(compute_norm_stats(train))
    assert _stats_bits(cached_norm_stats(train, path)) != _stats_bits(first)


def test_norm_stats_file_without_a_split_key_is_recomputed_and_rewritten(tmp_path, monkeypatch):
    recs = synthetic_dataset(20, 10, seed=0)
    path = tmp_path / "norm_stats.txt"
    stale = compute_norm_stats(synthetic_dataset(20, 10, seed=9))
    path.write_text("mean " + " ".join(repr(float(v)) for v in stale.mean) + "\n"
                    "std " + " ".join(repr(float(v)) for v in stale.std) + "\n")
    got = cached_norm_stats(recs, path)
    assert _stats_bits(got) == _stats_bits(compute_norm_stats(recs))
    assert path.read_text().startswith("records 20 ")
    monkeypatch.setattr(cct.data, "compute_norm_stats", None)
    assert _stats_bits(cached_norm_stats(recs, path)) == _stats_bits(got)


def test_a_cache_write_that_fails_midway_leaves_no_torn_file(tmp_path, monkeypatch):
    """A stats write that fails after its first line (a full disk, say)
    leaves the path as it was, so the next run computes the stats again
    instead of stopping on a file with the split's key and no std line."""
    recs = synthetic_dataset(20, 10, seed=0)
    real = compute_norm_stats(recs)

    class FullDisk:
        def __iter__(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cct.data, "compute_norm_stats",
                        lambda records: NormStats(mean=real.mean, std=FullDisk()))
    path = tmp_path / "norm_stats.txt"
    assert cached_norm_stats(recs, path).mean is real.mean
    assert cached_norm_stats(recs, path).mean is real.mean
    assert sorted(os.listdir(tmp_path)) == []


def test_norm_stats_file_rejects_garbage(tmp_path):
    path = tmp_path / "norm_stats.txt"
    path.write_text("mean 0.1 0.2\n")
    with pytest.raises(DataError):
        load_norm_stats(path)


def test_norm_stats_file_with_numbers_that_do_not_parse_is_refused(tmp_path):
    path = tmp_path / "norm_stats.txt"
    path.write_text("records 20 123\nmean 0.1 0.2 a\nstd 1 1 1\n")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: malformed "
                                        rf"normalization stats"):
        load_norm_stats(path)

# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def _image(seed):
    return np.random.default_rng(seed).integers(0, 256, (1, 3, 32, 32), dtype=np.uint8)


_UNIT = NormStats(mean=np.zeros(3), std=np.ones(3))


def _one_record_batch(img, seed, augment_enabled, epoch=0):
    """batch_iter's images for a one-record split holding img: the batch of
    one whose augmentation is keyed by (seed, epoch, index 0)."""
    recs = Records([(0, 0, img.reshape(-1))])
    return next(batch_iter(recs, 1, seed, _UNIT, augment_enabled, epoch)).images.data


def test_identity_crop_recovers_image():
    img = _image(2)
    out = crop_flip(img, [(4, 4)], [False])
    assert out.dtype == np.uint8 and np.array_equal(out, img)


def test_hflip_is_involution_and_moves_columns():
    img = np.zeros((1, 3, 32, 32), dtype=np.uint8)
    img[:, :, :, 0] = 9
    flipped = crop_flip(img, [(4, 4)], [True])
    assert flipped[0, 0, 0, 31] == 9 and flipped[0, 0, 0, 0] == 0
    assert np.array_equal(crop_flip(flipped, [(4, 4)], [True]), img)


def test_augment_disabled_is_identity():
    img = _image(3)
    assert _one_record_batch(img, 7, False).tobytes() == ref_normalize(img, _UNIT).tobytes()


def test_augment_deterministic_in_seed():
    img = _image(4)
    a = _one_record_batch(img, 11, True, epoch=2)
    b = _one_record_batch(img, 11, True, epoch=2)
    assert a.shape == (1, 3, 32, 32)
    assert a.tobytes() == b.tobytes()


def test_augment_varies_with_seed():
    img = _image(5)
    outs = {_one_record_batch(img, s, True).tobytes() for s in range(16)}
    assert len(outs) > 1
    outs = {_one_record_batch(img, 0, True, epoch=e).tobytes() for e in range(16)}
    assert len(outs) > 1


def test_augment_output_is_a_window_of_reflect_pad():
    img = _image(6)
    windows = {ref_normalize(ref_window(img[0], oy, ox, flip)[None], _UNIT).tobytes()
               for oy in range(9) for ox in range(9) for flip in (False, True)}
    assert len(windows) == 162
    for seed in range(8):
        assert _one_record_batch(img, seed, True).tobytes() in windows
    rng = np.random.default_rng(6)
    for oy, ox in rng.integers(0, 9, size=(8, 2)):
        flip = bool(rng.random() < 0.5)
        got = crop_flip(img, [(oy, ox)], [flip])
        assert got.tobytes() == ref_window(img[0], oy, ox, flip).tobytes()


class _CountingStream:
    """A stand-in for cct.data.stream that records each call's key."""

    def __init__(self):
        self.calls = []

    def __call__(self, name, *key):
        self.calls.append((name, *key))
        return stream(name, *key)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def _tiny_split(n=10, n_classes=10, seed=0):
    recs = synthetic_dataset(n, n_classes, seed)
    return recs, compute_norm_stats(recs)


def test_batch_sizes_include_final_short_batch():
    recs, stats = _tiny_split(10)
    sizes = [len(b.labels) for b in batch_iter(recs, 4, 0, stats, False)]
    assert sizes == [4, 4, 2]


def test_batch_iter_rejects_bad_batch_size():
    recs, stats = _tiny_split(4)
    with pytest.raises(ConfigError):
        list(batch_iter(recs, 0, 0, stats, False))


def test_epoch_order_depends_on_seed_and_epoch():
    recs, stats = _tiny_split(32)
    def order(seed, epoch):
        return tuple(int(v) for b in batch_iter(recs, 8, seed, stats, False, epoch)
                     for v in b.labels)
    assert order(0, 0) == order(0, 0)
    assert order(0, 0) != order(1, 0)
    assert order(0, 0) != order(0, 1)


def test_batches_cover_every_record_once():
    recs, stats = _tiny_split(25)
    seen = [int(v) for b in batch_iter(recs, 7, 3, stats, False) for v in b.labels]
    assert sorted(seen) == sorted(r.fine_label for r in recs)


def test_batch_images_are_normalized_float32():
    recs, stats = _tiny_split(30)
    batches = list(batch_iter(recs, 30, 0, stats, False))
    x = batches[0].images.data
    assert x.dtype == np.float32 and x.shape == (30, 3, 32, 32)
    assert batches[0].labels.dtype == np.int64
    # full pass through its own stats recenters each channel near zero
    assert np.max(np.abs(x.mean(axis=(0, 2, 3)))) < 1e-3


def test_augmented_batches_are_deterministic():
    recs, stats = _tiny_split(12)
    a = [b.images.data for b in batch_iter(recs, 5, 2, stats, True)]
    b = [b.images.data for b in batch_iter(recs, 5, 2, stats, True)]
    for xa, xb in zip(a, b):
        assert np.array_equal(xa, xb)


def _oracle_batches(raw, batch_size, seed, norm, augment_enabled, epoch, drawn=None):
    """batch_iter's contract, one record at a time from the file bytes; each
    record's (oy, ox, flip) is added to the set drawn."""
    n = len(raw) // RECORD_BYTES
    perm = stream("shuffle", seed, epoch).permutation(n)
    if augment_enabled:
        # one integers(0, 162) per record, in index order: v = 18 oy + 2 ox + flip
        rng = stream("augment", seed, epoch)
        draws = []
        for _ in range(n):
            oy, rest = divmod(int(rng.integers(0, 162)), 18)
            ox, odd = divmod(rest, 2)
            draws.append((oy, ox, odd == 1))
    for start in range(0, n, batch_size):
        imgs, labels = [], []
        for i in perm[start:start + batch_size]:
            rec = raw[i * RECORD_BYTES:(i + 1) * RECORD_BYTES]
            img = np.frombuffer(rec[2:], dtype=np.uint8).reshape(3, 32, 32)
            if augment_enabled:
                img = ref_window(img, *draws[i])
                if drawn is not None:
                    drawn.add(draws[i])
            imgs.append(img)
            labels.append(rec[1])
        yield ref_normalize(np.stack(imgs), norm), np.array(labels, dtype=np.int64)


def _assert_batches_match_oracle(recs, raw, batch_size, seed, stats, augment_enabled,
                                 epoch, drawn=None):
    got = list(batch_iter(recs, batch_size, seed, stats, augment_enabled, epoch=epoch))
    want = list(_oracle_batches(raw, batch_size, seed, stats, augment_enabled, epoch, drawn))
    assert len(got) == len(want) == -(-len(recs) // batch_size)
    for batch, (images, labels) in zip(got, want):
        assert batch.images.data.dtype == images.dtype == np.float32
        assert batch.images.data.flags.c_contiguous
        assert batch.images.data.tobytes() == images.tobytes()
        assert batch.labels.dtype == np.int64
        assert np.array_equal(batch.labels, labels)


@pytest.mark.parametrize("augment_enabled", [False, True])
def test_batch_iter_matches_per_record_oracle(tmp_path, augment_enabled):
    path = tmp_path / "r.bin"
    write_records(path, synthetic_dataset(23, 10, seed=9))
    raw = path.read_bytes()
    recs = load_records(path)
    stats = compute_norm_stats(recs)
    for epoch in (0, 1):
        _assert_batches_match_oracle(recs, raw, 5, 4, stats, augment_enabled, epoch)


def _random_records(n, seed):
    """n records of uniformly random labels and pixel bytes."""
    rng = np.random.default_rng(seed)
    return Records(np.rec.fromarrays([rng.integers(0, 20, n), rng.integers(0, 100, n),
                                      rng.integers(0, 256, (n, 3072), dtype=np.uint8)],
                                     dtype=RECORD))


@pytest.mark.parametrize("batch_size", [1024, 1000])
def test_augmented_batches_match_the_oracle_on_random_pixels(batch_size):
    """2,048 records of uniformly random bytes, so that 0 and 255 lie on
    the reflect borders, at a full-size batch and at one that leaves a
    short last batch; every offset and both flips occur."""
    recs = _random_records(2048, seed=15)
    stats = compute_norm_stats(recs)
    drawn = set()
    for epoch in (0, 1):
        _assert_batches_match_oracle(recs, recs.array.tobytes(), batch_size, 7, stats,
                                     True, epoch, drawn)
    assert {(oy, ox) for oy, ox, _ in drawn} == {(oy, ox) for oy in range(9) for ox in range(9)}
    assert {flip for _, _, flip in drawn} == {False, True}


def test_an_augmented_epoch_builds_the_shuffle_and_one_augment_stream(monkeypatch):
    recs = _random_records(2048, seed=16)
    counting = _CountingStream()
    monkeypatch.setattr(cct.data, "stream", counting)
    batches = list(batch_iter(recs, 1024, 5, compute_norm_stats(recs), True, epoch=2))
    assert len(batches) == 2
    assert counting.calls == [("shuffle", 5, 2), ("augment", 5, 2)]


def _images_by_record(recs, batch_size, seed, epoch):
    """One augmented epoch's images, row i being record i's."""
    images = np.concatenate([b.images.data for b in
                             batch_iter(recs, batch_size, seed, _UNIT, True, epoch)])
    out = np.empty_like(images)
    out[stream("shuffle", seed, epoch).permutation(len(recs))] = images
    return out


@pytest.mark.parametrize("batch_size", [1, 64, 300])
def test_a_records_crop_and_flip_depend_only_on_seed_epoch_and_index(batch_size):
    """The first k records of a 300-record split are cropped and flipped as
    the k records alone are, whatever the order and the batch size."""
    recs = _random_records(300, seed=18)
    whole = _images_by_record(recs, batch_size, 8, 3)
    for k in (1, 7, 200):
        assert _images_by_record(recs[:k], batch_size, 8, 3).tobytes() == whole[:k].tobytes()
    assert whole.tobytes() != _images_by_record(recs, batch_size, 8, 4).tobytes()


@pytest.mark.parametrize("augment_enabled", [False, True])
def test_pooled_batches_have_the_bytes_of_one_worker(monkeypatch, augment_enabled):
    """2,101 records, so that every batch size but 1 leaves a short last
    batch; built on the default pool and with the pool at one worker."""
    recs = _random_records(2101, seed=17)
    stats = compute_norm_stats(recs)
    for batch_size in (1, 5, 1000, 1024):
        pooled = list(batch_iter(recs, batch_size, 6, stats, augment_enabled, epoch=1))
        with monkeypatch.context() as m:
            m.setattr(cct.tensor, "_WORKERS", 1)
            inline = list(batch_iter(recs, batch_size, 6, stats, augment_enabled, epoch=1))
        assert len(pooled) == len(inline) == -(-2101 // batch_size)
        for a, b in zip(pooled, inline):
            assert a.images.data.tobytes() == b.images.data.tobytes()
            assert np.array_equal(a.labels, b.labels)


def test_the_fast_desk_hashes_are_pinned():
    """scripts/desk_hashes.py's ingest, norm and init fingerprints: a change
    to the augmented batch bytes, the normalization stats or the initial
    parameters changes them."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "desk_hashes.py"
    spec = importlib.util.spec_from_file_location("desk_hashes", path)
    desk_hashes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(desk_hashes)
    assert desk_hashes.ingest_hash() == desk_hashes.EXPECTED["ingest"]
    assert desk_hashes.norm_hash() == desk_hashes.EXPECTED["norm"]
    assert desk_hashes.init_hash() == desk_hashes.EXPECTED["init"]


def test_augmentation_changes_some_pixels():
    recs, stats = _tiny_split(12)
    plain = np.concatenate([b.images.data for b in batch_iter(recs, 12, 2, stats, False)])
    aug = np.concatenate([b.images.data for b in batch_iter(recs, 12, 2, stats, True)])
    assert not np.array_equal(plain, aug)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def test_synthetic_is_deterministic():
    a = synthetic_dataset(20, 10, seed=5)
    b = synthetic_dataset(20, 10, seed=5)
    assert all(np.array_equal(x.pixels, y.pixels) and x.fine_label == y.fine_label
               for x, y in zip(a, b))
    c = synthetic_dataset(20, 10, seed=6)
    assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))


def test_synthetic_label_balance_and_ranges():
    recs = synthetic_dataset(103, 10, seed=1)
    counts = np.bincount([r.fine_label for r in recs], minlength=10)
    assert counts.max() - counts.min() <= 1
    assert all(r.coarse_label == r.fine_label // 5 for r in recs)


def test_synthetic_rejects_bad_args():
    with pytest.raises(DataError):
        synthetic_dataset(0, 10, seed=0)
    with pytest.raises(DataError):
        synthetic_dataset(10, 101, seed=0)


def test_synthetic_classes_separable_by_mean_color():
    # nearest-centroid on per-image channel means: class colors are far
    # apart relative to noise/sqrt(1024), so accuracy should be near 1
    train = synthetic_dataset(500, 10, seed=7)
    test = synthetic_dataset(500, 10, seed=8)

    def feats(recs):
        return np.stack([r.pixels.reshape(3, -1).mean(axis=1) for r in recs])

    ytr = np.array([r.fine_label for r in train])
    centroids = np.stack([feats(train)[ytr == c].mean(axis=0) for c in range(10)])
    fte = feats(test)
    pred = np.argmin(((fte[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    acc = (pred == np.array([r.fine_label for r in test])).mean()
    assert acc > 0.90
