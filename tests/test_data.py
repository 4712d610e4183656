"""Dataset loading, normalization, augmentation, batching, synthetic data."""
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
import cct.train
from cct.data import (
    IMG_SHAPE,
    RECORD,
    RECORD_BYTES,
    DataError,
    Records,
    augment,
    batch_iter,
    cached_norm_stats,
    compute_norm_stats,
    denormalize,
    hflip,
    load_cifar100,
    load_norm_stats,
    load_records,
    normalize,
    reflect_crop,
    synthetic_dataset,
    write_records,
)
from cct.seeding import stream
from cct.tensor import ConfigError


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


def test_normalize_denormalize_roundtrip():
    rng = np.random.default_rng(1)
    recs = Records([(0, i, rng.integers(0, 256, 3072, dtype=np.uint8))
                    for i in range(5)])
    stats = compute_norm_stats(recs)
    x = recs.array["pixels"].reshape(-1, *IMG_SHAPE).astype(np.float64)
    back = denormalize(normalize(x, stats), stats)
    assert np.max(np.abs(back - x)) < 1e-6


def test_normalize_uint8_gives_float32():
    stats = compute_norm_stats(_filled(100, 200))
    out = normalize(np.full(IMG_SHAPE, 100, dtype=np.uint8), stats)
    assert out.dtype == np.float32


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


def test_norm_stats_file_rejects_garbage(tmp_path):
    path = tmp_path / "norm_stats.txt"
    path.write_text("mean 0.1 0.2\n")
    with pytest.raises(DataError):
        load_norm_stats(path)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def test_identity_crop_recovers_image():
    img = np.random.default_rng(2).integers(0, 256, (3, 32, 32), dtype=np.uint8)
    assert np.array_equal(reflect_crop(img, 4, 4), img)


def test_hflip_is_involution_and_moves_columns():
    img = np.zeros((3, 32, 32), dtype=np.uint8)
    img[:, :, 0] = 9
    flipped = hflip(img)
    assert flipped[0, 0, 31] == 9 and flipped[0, 0, 0] == 0
    assert np.array_equal(hflip(flipped), img)


def test_augment_disabled_is_identity():
    img = np.random.default_rng(3).integers(0, 256, (3, 32, 32), dtype=np.uint8)
    assert augment(img, 7, enabled=False) is img


def test_augment_deterministic_in_seed():
    img = np.random.default_rng(4).integers(0, 256, (3, 32, 32), dtype=np.uint8)
    a = augment(img, 11, enabled=True)
    b = augment(img, 11, enabled=True)
    assert np.array_equal(a, b)
    assert a.shape == (3, 32, 32)


def test_augment_varies_with_seed():
    img = np.random.default_rng(5).integers(0, 256, (3, 32, 32), dtype=np.uint8)
    outs = {augment(img, s, enabled=True).tobytes() for s in range(16)}
    assert len(outs) > 1


def test_augment_output_is_a_window_of_reflect_pad():
    img = np.random.default_rng(6).integers(0, 256, (3, 32, 32), dtype=np.uint8)
    out = augment(img, 13, enabled=True)
    candidates = []
    for oy in range(9):
        for ox in range(9):
            w = reflect_crop(img, oy, ox)
            candidates.append(w.tobytes())
            candidates.append(np.ascontiguousarray(hflip(w)).tobytes())
    assert out.tobytes() in candidates


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


def _oracle_batches(raw, batch_size, seed, norm, augment_enabled, epoch):
    """batch_iter's contract, one record at a time from the file bytes."""
    n = len(raw) // RECORD_BYTES
    perm = stream("shuffle", seed, epoch).permutation(n)
    for start in range(0, n, batch_size):
        imgs, labels = [], []
        for i in perm[start:start + batch_size]:
            rec = raw[i * RECORD_BYTES:(i + 1) * RECORD_BYTES]
            img = np.frombuffer(rec[2:], dtype=np.uint8).reshape(3, 32, 32)
            imgs.append(augment(img, stream("augment", seed, epoch, int(i)),
                                enabled=augment_enabled))
            labels.append(rec[1])
        yield normalize(np.stack(imgs), norm), np.array(labels, dtype=np.int64)


@pytest.mark.parametrize("augment_enabled", [False, True])
def test_batch_iter_matches_per_record_oracle(tmp_path, augment_enabled):
    path = tmp_path / "r.bin"
    write_records(path, synthetic_dataset(23, 10, seed=9))
    raw = path.read_bytes()
    recs = load_records(path)
    stats = compute_norm_stats(recs)
    for epoch in (0, 1):
        got = list(batch_iter(recs, 5, 4, stats, augment_enabled, epoch=epoch))
        want = list(_oracle_batches(raw, 5, 4, stats, augment_enabled, epoch))
        assert len(got) == len(want) == 5
        for batch, (images, labels) in zip(got, want):
            assert batch.images.data.dtype == images.dtype == np.float32
            assert batch.images.data.tobytes() == images.tobytes()
            assert batch.labels.dtype == np.int64
            assert np.array_equal(batch.labels, labels)


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
