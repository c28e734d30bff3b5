"""Deterministic random streams keyed by role, iteration, and sample index.

Every stochastic draw in the samplers comes from a generator keyed by
(root_seed, purpose tag, iteration, global sample index).  The key never
depends on the worker count or rank, so a run with the same root seed
produces identical draws no matter how the samples are partitioned.

`stream` opens one key through numpy's `SeedSequence`.  The per-sample
streams of a rank's block are derived in one pass instead: `seed_words`
runs `SeedSequence`'s entropy hash over the block's whole index array in
numpy uint32 arithmetic, and `stream_from_words` opens each sample's
`PCG64` from its row.  The words equal
`SeedSequence(root_seed, spawn_key=(tag, k, i)).generate_state(4, np.uint64)`
bit for bit, so the draws are exactly those of `stream`.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Purpose tags.  Each role gets its own subspace of streams so that, for
# example, proposal noise at (k, i) can never collide with particle filter
# noise at (k, i).
PRIOR_INIT = 0
PARTICLE_FILTER = 1
PROPOSAL = 2
RESAMPLE_UNIFORM = 3
DATASET = 4
MCMC_CHAIN = 5

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# generate_state's successive hash constants: word j xors the jth, multiplies by the next.
_STATE_CONSTS = np.array([(_INIT_B * _MULT_B**j) & _MASK32 for j in range(9)],
                         dtype=np.uint32)[:, None]


def stream(root_seed: int, tag: int, k: int = 0, i: int = 0) -> np.random.Generator:
    """Return the generator for stream (root_seed, tag, k, i)."""
    seq = np.random.SeedSequence(root_seed, spawn_key=(tag, k, i))
    return np.random.Generator(np.random.PCG64(seq))


def _uint32_words(n: int) -> list[int]:
    """A nonnegative integer as little-endian 32-bit words, as SeedSequence splits it."""
    n = int(n)
    if n < 0:
        raise ValueError(f"stream keys must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mix(x, y):
    # Mask each product first: an int operand must fit uint32 beside an array.
    out = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return out ^ (out >> _XSHIFT)


def _mixed_pool(entropy: list) -> list:
    """SeedSequence.mix_entropy; each word is an int or a uint32 array."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def seed_words(root_seed: int, tag: int, k: int, indices) -> np.ndarray:
    """(n, 4) uint64 PCG64 seed words of the streams (root_seed, tag, k, i).

    Row j equals `SeedSequence(root_seed, spawn_key=(tag, k, indices[j]))
    .generate_state(4, np.uint64)`.  Every word of the entropy but the
    last is shared by the block, so it is hashed once with Python ints;
    only the index word runs over the array.  Each index must fit one
    32-bit word, as SeedSequence would otherwise hash it as two.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError("indices must be a 1-D integer array")
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) > _MASK32):
        raise ValueError("sample indices must lie in [0, 2**32)")
    root = _uint32_words(root_seed)
    root += [0] * (_POOL_SIZE - len(root))  # SeedSequence pads under a spawn key
    entropy = root + _uint32_words(tag) + _uint32_words(k) + [idx.astype(np.uint32)]
    pool = _mixed_pool(entropy)
    state = (np.stack(pool + pool) ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]  # (8, n)
    state = (state ^ (state >> _XSHIFT)).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << 32)).T)  # little-endian pairs


class _SeedWords(ISeedSequence):
    """Hands PCG64 one row of `seed_words` as its SeedSequence state."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words only serve PCG64: 4 uint64 words")
        return self.words


def stream_from_words(words: np.ndarray) -> np.random.Generator:
    """Open the generator whose PCG64 seed words are one row of `seed_words`."""
    words = np.ascontiguousarray(words, dtype=np.uint64)  # PCG64 reads the raw buffer
    if words.shape != (4,):
        raise ValueError(f"need one row of 4 seed words, got shape {words.shape}")
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))
