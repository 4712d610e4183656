import re

import numpy as np
import pytest

from cct.metrics import (
    CSV_FIELDS,
    MetricsRow,
    append_row,
    drop_rows_from,
    read_metrics,
    topk_accuracy,
)
from cct.tensor import ConfigError, ShapeError


def test_top1_exact_percent():
    logits = np.array([[0.1, 0.9, 0.0],
                       [2.0, 1.0, 3.0]])
    assert topk_accuracy(logits, np.array([1, 2]), 1) == 100.0
    assert topk_accuracy(logits, np.array([1, 0]), 1) == 50.0
    assert topk_accuracy(logits, np.array([0, 1]), 1) == 0.0


def test_rank_three_row():
    # row 0 correct at rank 1, row 1 correct only at rank 3
    logits = np.array([[5.0, 1.0, 0.0, 0.0],
                       [3.0, 2.0, 1.0, 0.0]])
    labels = np.array([0, 2])
    assert topk_accuracy(logits, labels, 1) == 50.0
    assert topk_accuracy(logits, labels, 2) == 50.0
    assert topk_accuracy(logits, labels, 3) == 100.0


def test_top5_contains_top1():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(64, 100))
    labels = rng.integers(0, 100, 64)
    assert topk_accuracy(logits, labels, 5) >= topk_accuracy(logits, labels, 1)


def test_tie_breaks_to_lower_index():
    logits = np.zeros((1, 4))  # all tied: top-1 is class 0
    assert topk_accuracy(logits, np.array([0]), 1) == 100.0
    assert topk_accuracy(logits, np.array([1]), 1) == 0.0
    assert topk_accuracy(logits, np.array([1]), 2) == 100.0


def test_uniform_logits_topk_is_k_over_c():
    # tie-break picks classes 0..k-1, labels uniform: expect ~5%
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 100, 10_000)
    logits = np.zeros((10_000, 100))
    acc = topk_accuracy(logits, labels, 5)
    assert abs(acc - 5.0) < 1.0


def test_topk_argument_validation():
    logits = np.zeros((2, 10))
    labels = np.zeros(2, dtype=np.int64)
    with pytest.raises(ConfigError):
        topk_accuracy(logits, labels, 0)
    with pytest.raises(ConfigError):
        topk_accuracy(logits, labels, 11)
    with pytest.raises(ShapeError):
        topk_accuracy(logits, np.zeros(3, dtype=np.int64), 1)
    with pytest.raises(ShapeError):
        topk_accuracy(np.zeros(10), labels, 1)


def _row(epoch=0, step=1, split="train", loss=2.5):
    return MetricsRow(epoch=epoch, step=step, split=split, loss=loss,
                      top1=10.0, top5=30.0, lr=0.01, wall_time_s=1.25)


def test_row_rejects_unknown_split():
    with pytest.raises(ConfigError):
        _row(split="dev")


def test_row_rejects_inconsistent_accuracies():
    with pytest.raises(ConfigError):
        MetricsRow(epoch=0, step=1, split="train", loss=1.0,
                   top1=50.0, top5=20.0, lr=0.01, wall_time_s=0.0)
    with pytest.raises(ConfigError):
        MetricsRow(epoch=0, step=1, split="train", loss=1.0,
                   top1=-1.0, top5=20.0, lr=0.01, wall_time_s=0.0)


def test_writer_roundtrip(tmp_path):
    path = tmp_path / "metrics.csv"
    append_row(path, _row(epoch=0, split="train"))
    append_row(path, _row(epoch=0, split="val", loss=3.0))
    rows = read_metrics(path)
    assert rows == [_row(epoch=0, split="train"),
                    _row(epoch=0, split="val", loss=3.0)]
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]


def test_writer_appends_without_duplicate_header(tmp_path):
    path = tmp_path / "metrics.csv"
    path.touch()  # an empty file gets the header too
    append_row(path, _row(epoch=0))
    before = path.read_bytes()
    append_row(path, _row(epoch=1))
    assert path.read_bytes().startswith(before)  # the old text, verbatim
    assert path.read_text().count("epoch,step") == 1
    assert [r.epoch for r in read_metrics(path)] == [0, 1]


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_metrics(path)


@pytest.mark.parametrize("tail", ["1", "9,9,val,2.5,10.0,30.0,0.01,"],
                         ids=["cut_after_the_epoch", "cut_before_the_wall_time"])
def test_read_refuses_a_row_that_is_not_whole_by_path_and_line(tmp_path, tail):
    path = tmp_path / "metrics.csv"
    append_row(path, _row(epoch=0))
    with open(path, "a", newline="") as f:
        f.write(tail)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:3: "):
        read_metrics(path)


def test_drop_rows_from_keeps_earlier_rows_byte_exact(tmp_path):
    path = tmp_path / "m.csv"
    for epoch in range(2):
        append_row(path, _row(epoch=epoch, step=epoch + 1, loss=0.1 * (epoch + 1)))
    prefix = path.read_bytes()
    for epoch in range(2, 4):
        append_row(path, _row(epoch=epoch, split="train"))
        append_row(path, _row(epoch=epoch, split="val"))
    drop_rows_from(path, 2)
    assert path.read_bytes() == prefix
    drop_rows_from(path, 0)
    assert read_metrics(path) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]


def test_drop_rows_from_epoch_zero_starts_over_with_the_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n1,2,3\n")  # another file of the same name
    drop_rows_from(path, 0)
    assert path.read_bytes() == ",".join(CSV_FIELDS).encode() + b"\r\n"


def test_drop_rows_from_missing_file_is_a_no_op(tmp_path):
    drop_rows_from(tmp_path / "absent.csv", 3)
    assert not (tmp_path / "absent.csv").exists()


@pytest.mark.parametrize("tail", ["1", "\r\n", "9,9,val,2.5,10.0,30.0,0.01,"],
                         ids=["cut_after_the_epoch", "blank_line", "cut_before_the_wall_time"])
def test_drop_rows_from_drops_rows_that_are_not_whole(tmp_path, tail):
    """A ten-epoch CSV whose last line a crash left torn, or blank, keeps
    its whole rows of earlier epochs and loses the torn one."""
    path = tmp_path / "m.csv"
    for epoch in range(10):
        append_row(path, _row(epoch=epoch))
    with open(path, "a", newline="") as f:
        f.write(tail)
    drop_rows_from(path, 10)
    assert read_metrics(path) == [_row(epoch=epoch) for epoch in range(10)]
    drop_rows_from(path, 3)
    assert read_metrics(path) == [_row(epoch=epoch) for epoch in range(3)]
