"""Scalar closed-form Poisson Cramer inversion, a test oracle.

It checks both of the package's routes to the Poisson bound: the bisection
of cramer_of(poisson()) built with exact_inverse=None (c12, test_inversion),
and the vectorized Halley root that cramer_of passes as its exact_inverse
(test_inversion, test_verify).  This one solves in u = rho/alpha, so it
loses digits as eps/(u - 1) at a small budget/alpha, where the package's
root in w = u - 1 does not.
"""

import math


def _u_root(B):
    """Root u >= 1 of u - ln u = 1 + B, i.e. -W_{-1}(-e^{-1-B}); B >= 0.

    Seeded by the branch-point series for small B and the asymptotic form
    otherwise, then polished by Halley steps.  Stable for all B >= 0, far
    beyond where -e^{-1-B} underflows.
    """
    if B <= 0.0:
        return 1.0
    if B < 0.5:
        p = math.sqrt(2.0 * -math.expm1(-B))
        u = 1.0 + p + p * p / 3.0 + 11.0 * p ** 3 / 72.0
    else:
        y = 1.0 + B
        u = y + math.log(y)
    for _ in range(80):
        f = u - math.log(u) - 1.0 - B
        fp = 1.0 - 1.0 / u
        if fp == 0.0:
            break
        d = fp - 0.5 * f / (fp * u * u)
        step = f / d
        u -= step
        if abs(step) <= 1e-16 * u:
            break
    return u


def invert_closed_form_poisson(alpha, budget):
    """Closed-form Poisson Cramer inversion -alpha W_{-1}(-e^{-1-budget/alpha}).

    Solved in the stable parameterization u - ln u = 1 + budget/alpha with
    u = rho/alpha, immune to the underflow of the W argument.  alpha = 0
    falls back to the q = 0 convention rho = budget.
    """
    if alpha < 0.0 or budget < 0.0:
        raise ValueError("alpha and budget must be nonnegative")
    if alpha == 0.0:
        return budget
    return alpha * _u_root(budget / alpha)
