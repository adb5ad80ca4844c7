import math

import numpy as np
import pytest

from cgfbounds import families as fam
from cgfbounds.rng import make_generator, stream_key, streams

SEEDS = (0, 5, 2**40, 2**64 - 1)
IDS = np.concatenate([[-2**63, -7, -1], np.arange(2000)])

FAMILIES = (fam.bernoulli(), fam.gaussian(0.5), fam.poisson(), fam.gamma(2.0),
            fam.laplace(1.0), fam.invgauss(1.5), fam.negbin(2.0))


def python_key(seed, *ids):
    """The key fold on unbounded Python ints masked to 64 bits: the reference."""
    mask = 2**64 - 1

    def mix(x):
        x = (x + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    lo = mix(seed & mask)
    hi = mix(lo ^ 0xD6E8FEB86659FD93)
    for i in ids:
        lo = mix(lo ^ (i & mask))
        hi = mix(hi + lo)
    return [lo, hi]


def test_stream_key_frozen():
    assert stream_key(0, 7).tolist() == python_key(0, 7) == [
        7259628554680249319, 2589689289483412482]
    assert stream_key(2**64 - 1, -1, 310000).tolist() == [
        3986206209593358218, 4953084012790227008]
    assert stream_key(3).shape == (2,) and stream_key(3).dtype == np.uint64
    for seed in SEEDS + (-1, 2**70):
        for ids in ((), (0,), (-2**63,), (2**64 + 3, 5), (310000, -1, 7)):
            assert stream_key(seed, *ids).tolist() == python_key(seed, *ids)


@pytest.mark.parametrize("seed", [1.7, -0.5, math.nan, math.inf, -math.inf,
                                  np.float64(math.inf)])
def test_stream_key_refuses_a_seed_that_is_no_integer(seed):
    # a fractional seed is no stream: truncated, 1.7 would draw seed 1's
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
        stream_key(seed, 3)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        make_generator(seed)


def test_integral_float_seed_is_the_integer_seed():
    assert stream_key(2.0).tolist() == stream_key(2).tolist()
    assert stream_key(np.float64(-7.0), 5).tolist() == stream_key(-7, 5).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_key_broadcast_equals_scalar(seed):
    keys = stream_key(seed, IDS)
    assert keys.shape == (len(IDS), 2) and keys.dtype == np.uint64
    assert all(np.array_equal(k, stream_key(seed, int(i)))
               for k, i in zip(keys, IDS))
    # a leading scalar id with a trailing array, and two broadcast arrays
    pairs = stream_key(seed, 310000, IDS[:50])
    assert all(np.array_equal(k, stream_key(seed, 310000, int(i)))
               for k, i in zip(pairs, IDS[:50]))
    grid = stream_key(seed, IDS[:4, None], IDS[None, :3])
    assert grid.shape == (4, 3, 2)
    assert np.array_equal(grid[2, 1], stream_key(seed, int(IDS[2]), int(IDS[1])))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_streams_give_fresh_generator_draws(family):
    means = np.array([0.3, 0.6, 0.9])
    ids = [0, 1, 5, -3, 1999]
    shared = None
    for i, rng in zip(ids, streams(11, ids)):
        assert shared is None or rng is shared    # one generator, re-keyed
        shared, fresh = rng, make_generator(11, i)
        assert np.array_equal(family.sample(means, (7, 3), rng=rng),
                              family.sample(means, (7, 3), rng=fresh))
        # a 32-bit draw leaves half a word buffered (has_uint32 set); the
        # next re-key must drop it, or that id's 32-bit draw would differ
        assert rng.integers(2**32, dtype=np.uint32) == fresh.integers(
            2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
