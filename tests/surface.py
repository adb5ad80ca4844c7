"""Difference of two bound kinds over an (alpha, beta/n) grid, for the tests.

Each kind is one bounds.bound_values call on the meshgrid; cells where a
bound diverges are NaN.
"""

import numpy as np

from cgfbounds import bounds


def difference_surface(kind_a, kind_b, grid, family=None, delta=None,
                       clamp=False, sigma2=None, b=None):
    """kind_a minus kind_b on grid = (alphas, betas_over_n, n), indexed
    [alpha, beta/n]; clamp=True caps both bounds at 1 first (the
    bounded-loss convention)."""
    alphas, bons, n = grid
    a, bon = np.meshgrid(alphas, bons, indexing="ij")

    def values(kind):
        v = bounds.bound_values(kind, family, a, bon * n, n, delta, sigma2, b)
        return np.minimum(v, 1.0) if clamp else v

    return values(kind_a) - values(kind_b)
