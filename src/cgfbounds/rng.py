"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, *stream ids).  Streams are independent of each other and of
evaluation order, so trial loops and Monte-Carlo estimates reproduce
bit-identical results for a fixed seed.
"""

import numpy as np


def _u64(x):
    # x mod 2**64 as uint64: a Python int of any size, or an integer array
    return np.asarray(x if np.ndim(x) else int(x) % 2**64).astype(np.uint64)


def _splitmix64(x):
    # Steele et al. splitmix64 finalizer, used here as a key-mixing step.
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def check_seed(seed):
    """A scalar seed as an int made from seed itself (2.0 is 2), an array as
    given; ValueError unless a scalar seed is an integer."""
    if isinstance(seed, int) or np.ndim(seed):
        return seed
    if not float(seed) % 1 == 0:
        raise ValueError(f"seed must be an integer, got {seed}")
    return int(seed)


def stream_key(seed, *ids):
    """Fold an integer seed and integer stream ids into a 128-bit Philox key.

    Broadcasts over array ids, giving shape ids.shape + (2,); (2,) for scalars.
    """
    seed = check_seed(seed)
    with np.errstate(over="ignore"):    # uint64 arithmetic wraps mod 2**64
        lo = _splitmix64(_u64(seed))
        hi = _splitmix64(lo ^ np.uint64(0xD6E8FEB86659FD93))
        for i in ids:
            lo = _splitmix64(lo ^ _u64(i))
            hi = _splitmix64(hi + lo)
    return np.stack([lo, hi], axis=-1)


def make_generator(seed, *ids):
    """Return a numpy Generator on an independent counter-based stream."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *ids)))


def streams(seed, ids):
    """Yield one Generator, re-keyed to make_generator(seed, i) for each id i.

    Philox is counter-based: a fresh state (zero counter, empty buffer) with
    the key replaced starts exactly the stream a new generator would.  The
    state holds Python ints, which the setter reads faster than arrays.
    """
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng, fresh = np.random.Generator(bitgen), bitgen.state
    fresh["state"]["counter"] = fresh["buffer"] = [0, 0, 0, 0]
    for key in stream_key(seed, np.asarray(ids)).tolist():
        fresh["state"]["key"] = key
        bitgen.state = fresh
        yield rng
