"""Write part of a synthetic CIFAR-100 split in the official binary format.

    python3 perfbench/gen_data.py OUT_FILE SEED SPLIT_INDEX START STOP

Writes records [START, STOP) of split SPLIT_INDEX (0 train, 1 test) for the
workload seed SEED. Runs as its own process, so the generator's memory never
counts toward the benchmark's peak RSS and parts of a split can be made in
parallel. Records come from `cct.data.synthetic_dataset` in chunks of CHUNK
(one 50k call alone peaks at about 3.5 GB), and each chunk's seed derives
from (SEED, SPLIT_INDEX, chunk), so the same seed gives the same bytes however
the split is divided into parts.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cct.data import synthetic_dataset, write_records  # noqa: E402

CHUNK = 5000
N_CLASSES = 100


def records(seed: int, split_index: int, start: int, stop: int) -> list:
    if start % CHUNK:
        raise ValueError(f"part start {start} is not a multiple of {CHUNK}")
    out = []
    for first in range(start, stop, CHUNK):
        chunk_seed = int(np.random.SeedSequence(
            [seed, split_index, first // CHUNK]).generate_state(1)[0])
        out += synthetic_dataset(min(CHUNK, stop - first), N_CLASSES, chunk_seed)
    return out


def main(argv) -> int:
    out_file, seed, split_index, start, stop = argv[0], *map(int, argv[1:5])
    write_records(out_file, records(seed, split_index, start, stop))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
