"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, *stream ids).  Streams are independent of each other and of
evaluation order, so trial loops and Monte-Carlo estimates reproduce
bit-identical results for a fixed seed.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    # Steele et al. splitmix64 finalizer, used here as a key-mixing step.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_key(seed, *ids):
    """Fold a seed and integer stream ids into a 128-bit Philox key."""
    lo = _splitmix64(int(seed) & _MASK64)
    hi = _splitmix64(lo ^ 0xD6E8FEB86659FD93)
    for i in ids:
        lo = _splitmix64(lo ^ (int(i) & _MASK64))
        hi = _splitmix64(hi + lo)
    return np.array([lo, hi], dtype=np.uint64)


def make_generator(seed, *ids):
    """Return a numpy Generator on an independent counter-based stream."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *ids)))
