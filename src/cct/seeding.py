"""Named deterministic RNG streams.

Every source of randomness draws from its own PCG64 stream keyed by a
stream tag plus integer context (seed, epoch, sample index, ...), so
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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier as (high, low) 64-bit limbs (numpy's pcg64.h).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))


def _uint32_words(n: int) -> list:
    """n's little-endian 32-bit words, as SeedSequence splits an entropy int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash(value, const: int, mult: int):
    """SeedSequence's hashmix of uint32 array value; returns it with the next
    hash constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next
    return value ^ (value >> 16), const_next


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _seed_state(words) -> list:
    """SeedSequence(entropy).generate_state(4, np.uint64) for entropy words
    (uint32 arrays of one shape), as four uint64 arrays."""
    const, pool = _INIT_A, []
    words = list(words) + [np.zeros_like(words[0])] * (_POOL_SIZE - len(words))
    for word in words[:_POOL_SIZE]:
        value, const = _hash(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    const, state = _INIT_B, []
    for i in range(8):
        value, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        state.append(value.astype(np.uint64))
    return [state[i] | state[i + 1] << np.uint64(32) for i in range(0, 8, 2)]


def _mul_hi(a, b):
    """The high 64 bits of the 128-bit products of uint64 arrays a and b."""
    lo32 = np.uint64(_MASK32)
    a0, a1, b0, b1 = a & lo32, a >> np.uint64(32), b & lo32, b >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (p01 & lo32) + (p10 & lo32)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2**128, on uint64 limbs."""
    m_hi, m_lo = _PCG_MULT
    hi = _mul_hi(lo, m_lo) + hi * m_lo + lo * m_hi
    lo = lo * m_lo
    return _add(hi, lo, inc_hi, inc_lo)


def _add(hi, lo, b_hi, b_lo):
    s_lo = lo + b_lo
    return hi + b_hi + (s_lo < lo), s_lo


def stream_words(name: str, *key: int, last, count: int) -> np.ndarray:
    """(len(last), count) uint64: the first count 64-bit outputs of
    stream(name, *key, i).bit_generator for each i in last, every i in
    [0, 2**32), with their bits and without a Generator per i.

    SeedSequence's hash and mix run over the varying last entropy word,
    then PCG64's seeding and steps on (high, low) uint64 limbs, and each
    output is the state's XSL-RR.
    """
    last = np.asarray(last, dtype=np.int64)
    if last.size and not 0 <= last.min() <= last.max() <= _MASK32:
        raise ValueError("stream_words: each last key must be in [0, 2**32)")
    prefix = [_STREAM_TAGS[name]] + [w for k in key for w in _uint32_words(int(k))]
    words = [np.full(last.shape, w, dtype=np.uint32) for w in prefix]
    s_hi, s_lo, i_hi, i_lo = _seed_state(words + [last.astype(np.uint32)])
    one = np.uint64(1)
    inc_hi, inc_lo = i_hi << one | i_lo >> np.uint64(63), i_lo << one | one
    hi, lo = _step(*_add(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)
    out = np.empty((last.size, count), dtype=np.uint64)
    for j in range(count):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out[:, j] = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return out
