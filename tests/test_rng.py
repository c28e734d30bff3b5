"""Block-derived stream seeds against numpy's own SeedSequence."""

import numpy as np
import pytest

from smc2 import rng as streams
from smc2.rng import _SeedWords

# The last root spans seven 32-bit words, more than SeedSequence's pool of four.
ROOTS = [0, 1, 2**32, 8971605470000, 2**64 + 5, 2**200 + 9]
INDICES = np.r_[np.arange(1024), 2**32 - 1]


@pytest.mark.parametrize("root", ROOTS)
def test_words_equal_seed_sequence(root):
    for tag in range(6):
        for k in (0, 1, 2**31):
            words = streams.seed_words(root, tag, k, INDICES)
            assert words.shape == (INDICES.size, 4) and words.dtype == np.uint64
            want = np.stack([
                np.random.SeedSequence(root, spawn_key=(tag, k, int(i)))
                .generate_state(4, np.uint64) for i in INDICES
            ])
            assert words.tobytes() == want.tobytes(), (root, tag, k)


@pytest.mark.parametrize("tag", [streams.PRIOR_INIT, streams.PARTICLE_FILTER,
                                 streams.PROPOSAL])
def test_opened_generator_draws_equal_stream(tag):
    idx = np.array([0, 3, 511, 2**32 - 1])
    words = streams.seed_words(8971605470000, tag, 7, idx)
    for row, i in zip(words, idx.tolist()):
        got = streams.stream_from_words(row)
        want = streams.stream(8971605470000, tag, k=7, i=i)
        assert got.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
        assert got.random(3).tobytes() == want.random(3).tobytes()
        assert got.integers(0, 1000, 4).tobytes() == want.integers(0, 1000, 4).tobytes()


@pytest.mark.parametrize("bad", [[-1], [2**32], [0, 2**40]])
def test_index_outside_one_word_rejected(bad):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        streams.seed_words(1, streams.PROPOSAL, 2, np.array(bad, dtype=np.int64))


def test_non_integer_or_nested_indices_rejected():
    with pytest.raises(ValueError, match="1-D integer"):
        streams.seed_words(1, streams.PROPOSAL, 2, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="1-D integer"):
        streams.seed_words(1, streams.PROPOSAL, 2, np.zeros((2, 2), dtype=int))


def test_negative_key_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        streams.seed_words(-1, streams.PROPOSAL, 2, np.arange(3))


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32),
                                            (2, np.uint64), (5, np.uint64)])
def test_shim_serves_only_four_uint64_words(n_words, dtype):
    shim = _SeedWords(streams.seed_words(1, 0, 0, np.arange(1))[0])
    with pytest.raises(ValueError, match="4 uint64 words"):
        shim.generate_state(n_words, dtype)


def test_stream_from_words_needs_one_row():
    with pytest.raises(ValueError, match="one row"):
        streams.stream_from_words(streams.seed_words(1, 0, 0, np.arange(2)))
