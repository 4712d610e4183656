"""Named deterministic RNG streams.

Every source of randomness draws from its own PCG64 stream keyed by a
stream tag plus integer context (seed, epoch, layer, ...), so
adding draws to one consumer never shifts another's sequence.
"""
from __future__ import annotations

import numpy as np

_STREAM_TAGS = {
    "init": 1,
    "shuffle": 2,
    "augment": 3,
    "dropout": 4,
    "synthetic": 5,
}


def stream(name: str, *key: int) -> np.random.Generator:
    tag = _STREAM_TAGS[name]
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([tag, *map(int, key)])))

