"""Accuracy metrics and the metrics CSV, written whole through `replacing`."""
from __future__ import annotations

import csv
import os
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import replacing
from .tensor import ConfigError, ShapeError

CSV_FIELDS = ("epoch", "step", "split", "loss", "top1", "top5", "lr", "wall_time_s")
SPLITS = ("train", "val")


@dataclass(frozen=True)
class MetricsRow:
    epoch: int
    step: int
    split: str
    loss: float
    top1: float
    top5: float
    lr: float
    wall_time_s: float

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ConfigError(f"split must be one of {SPLITS}, got {self.split!r}")
        if not 0.0 <= self.top1 <= self.top5 <= 100.0:
            raise ConfigError(f"accuracies must satisfy 0 <= top1 <= top5 <= 100, "
                              f"got top1={self.top1}, top5={self.top5}")


def topk_accuracy(logits, labels, k: int) -> float:
    """Percent of rows whose label is among the k highest logits.

    Ties are broken toward the lower class index, matching a stable
    descending sort.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-d, got shape {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match "
                         f"{n} logit rows")
    if not 1 <= k <= c:
        raise ConfigError(f"k must be in [1, {c}], got {k}")
    topk = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    return float((topk == labels[:, None]).any(axis=1).mean()) * 100.0


def _parse_row(values) -> MetricsRow:
    """A MetricsRow from one CSV row's strings in CSV_FIELDS order; a row of
    another length or with a value that does not parse raises ValueError."""
    epoch, step, split, loss, top1, top5, lr, wall_time_s = values
    return MetricsRow(int(epoch), int(step), split, float(loss), float(top1),
                      float(top5), float(lr), float(wall_time_s))


def append_row(path, row: MetricsRow) -> None:
    """Add `row` to the metrics CSV at `path`, after the header if the file
    is missing or empty. The old text is copied verbatim and the file is
    replaced whole, so a write that fails part way leaves it as it was."""
    try:
        with open(path, newline="") as f:
            text = f.read()
    except FileNotFoundError:
        text = ""
    d = asdict(row)
    with replacing(path, "w", newline="") as f:
        w = csv.writer(f)
        if text:
            f.write(text)
        else:
            w.writerow(CSV_FIELDS)
        w.writerow([d[k] for k in CSV_FIELDS])


def drop_rows_from(path, epoch: int) -> None:
    """Rewrite the CSV as the header and the whole rows of the epochs before
    `epoch`: a run that starts at `epoch` writes the later rows again, and a
    fresh run (`epoch` 0) starts the CSV over. A row that is not whole (a
    line a crash cut short, a blank line) is dropped too."""
    if not os.path.exists(path):
        return
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    kept = [CSV_FIELDS]
    for r in rows[1:]:
        try:
            if _parse_row(r).epoch < epoch:
                kept.append(r)
        except ValueError:  # not a whole row (ConfigError is a ValueError)
            pass
    with replacing(path, "w", newline="") as f:
        csv.writer(f).writerows(kept)


def read_metrics(path):
    """Every row of a metrics CSV, blank lines skipped; a row that is not
    whole raises ConfigError naming the file and the line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if (header := next(reader, None)) != list(CSV_FIELDS):
            raise ConfigError(f"{path}: unexpected CSV header {header}")
        try:
            return [_parse_row(r) for r in reader if r]
        except ValueError as e:  # ConfigError is a ValueError
            raise ConfigError(f"{path}:{reader.line_num}: not a whole row: {e}") from None
