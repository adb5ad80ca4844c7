"""Named bound assemblies over the family, inversion, and upsilon layers."""

import math
from dataclasses import replace

import numpy as np

from . import families as fam
from . import inversion as inv
from .inversion import BoundQuery
from .upsilon import (compute_upsilon, correction_two_e_ceil, correction_xi,
                      cramer_divergence)

BOUND_KINDS = ("average_cramer", "pac_cramer_chernoff", "pac_cramer_xi",
               "pac_cramer_two_e_ceil", "catoni_inf", "mls",
               "poisson_diff_inf", "laplace_diff_inf", "gaussian_diff_inf")

PARAMETRIC_INFIMA = ("catoni_inf", "poisson_diff_inf", "laplace_diff_inf",
                     "gaussian_diff_inf")

_SCALAR_N = ("mls", "pac_cramer_two_e_ceil", "pac_cramer_chernoff")

_COMPUTE = object()     # default ln_upsilon of _kind_query: compute it


class CorrectionDivergent(Exception):
    """A Chernoff-style correction was requested where Upsilon diverges."""


def average_bound(family, alpha, beta, n):
    """Average-case optimal bound: Cramer comparator, unit correction, no delta."""
    return evaluate_kind("average_cramer", family, alpha, beta, n)


def pac_bound(family, alpha, beta, n, delta, correction="xi",
              ln_upsilon=None, u=None):
    """High-probability Cramer bound with a certified correction.

    correction is one of "chernoff" (caller supplies ln_upsilon, the log
    moment value from the upsilon module), "xi", or "two_e_ceil" (u defaults
    to n; only it takes u).  The Chernoff correction is refused, with
    CorrectionDivergent, for every family but Bernoulli, also when
    ln_upsilon is given: there the Cramer-comparator Upsilon is infinite
    (upsilon.cramer_divergence).
    """
    if correction not in ("chernoff", "xi", "two_e_ceil"):
        raise ValueError(f"unknown correction {correction!r}; use chernoff, "
                         "xi or two_e_ceil")
    if u is not None and correction != "two_e_ceil":
        raise ValueError(f"only two_e_ceil takes u, not {correction}; u={u}")
    return inv.invert(*_kind_query("pac_cramer_" + correction, family, alpha,
                                   beta, n, delta, ln_upsilon=ln_upsilon, u=u))


def optimistic_reference(family, alpha, beta, n, delta=None):
    """The unit-correction Cramer envelope; a floor on achievable bounds.

    With delta it is not a certified high-probability bound, so the result
    carries flag="reference_only".
    """
    res = inv.invert(inv.cramer_of(family), BoundQuery(alpha, beta, n, delta))
    res.flag = "reference_only"
    return res


def _parametric_identity(kind, family, sigma2, b):
    """The comparator whose inversion is the parametric infimum `kind`.

    Every member D_t of these families is nondecreasing in rho, so
    inf_t sup{rho : D_t <= B} = sup{rho : sup_t D_t <= B}, and sup_t D_t is
    the binary kl for Catoni's family and the family's Cramer function for
    the difference comparators.  This is the infimum over every t, so it is
    at most the old infimum over a truncated t range, and it is a valid
    bound, being the inversion of the optimal comparator itself.
    """
    if kind == "catoni_inf":
        if family is not None and family.kind != "bernoulli":
            raise ValueError("catoni_inf needs the bernoulli family, "
                             f"got {family.kind}")
        return inv.binary_kl()
    if kind == "poisson_diff_inf":
        return inv.cramer_of(fam.poisson())
    laplace = kind == "laplace_diff_inf"
    name, value = ("b", b) if laplace else ("sigma2", sigma2)
    value = getattr(family, "nuisance", None) if value is None else value
    if value is None or not value > 0:
        raise ValueError(f"{name} must be positive for {kind}, got {value!r}")
    return inv.cramer_of((fam.laplace if laplace else fam.gaussian)(value))


def _kind_query(kind, family, alpha, beta, n, delta=None, sigma2=None, b=None,
                *, ln_upsilon=_COMPUTE, u=None):
    """(comparator, query) of a bound kind; one comparator inversion.

    The only map from a kind name to its comparator and union correction
    ln_iota.  alpha and beta may be arrays; the Chernoff kind computes its
    Upsilon once for all of them, unless pac_bound supplies ln_upsilon
    (None there is refused).  n may be an array too, except for the kinds
    of _SCALAR_N.  u is the 2e ceil(u) grid size, default n.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; use one of "
                         + ", ".join(BOUND_KINDS))
    if kind in _SCALAR_N and np.ndim(n):
        raise ValueError(f"the {kind} kind needs a scalar n, got an array")
    if family is None and kind.startswith(("average_", "pac_")):
        raise ValueError(f"the {kind} kind needs a family, got None")
    if kind == "average_cramer":
        return inv.cramer_of(family), BoundQuery(alpha, beta, n)
    if kind in PARAMETRIC_INFIMA:
        return (_parametric_identity(kind, family, sigma2, b),
                BoundQuery(alpha, beta, n, delta))
    if kind == "mls":
        if family is not None and family.kind != "bernoulli":
            raise ValueError(f"mls needs the bernoulli family, got {family.kind}")
        if delta is None:
            raise ValueError("the mls kind requires delta")
        q = BoundQuery(alpha, beta, n, delta)
        return inv.binary_kl(), replace(
            q, ln_iota=math.log(2.0) + 0.5 * math.log(n))
    q = BoundQuery(alpha, beta, n, delta)    # checked before the correction
    if kind == "pac_cramer_chernoff":
        why = cramer_divergence(family)
        if why:
            raise CorrectionDivergent(
                f"Upsilon of the {family.kind} Cramer comparator diverges: "
                f"{why}; use the xi or two_e_ceil correction")
        if ln_upsilon is _COMPUTE:
            ln_upsilon = compute_upsilon(inv.cramer_of(family), family, n).value
        if ln_upsilon is None:
            raise ValueError("the chernoff correction needs ln_upsilon")
        ln_iota = float(ln_upsilon)
    elif kind == "pac_cramer_xi":
        ln_iota = np.log(correction_xi(np.maximum(n * alpha, 0.0), beta))
    else:
        ln_iota = math.log(correction_two_e_ceil(n if u is None else u))
    return inv.cramer_of(family), replace(q, ln_iota=ln_iota)


def evaluate_kind(kind, family, alpha, beta, n, delta=None, sigma2=None,
                  b=None):
    """Route a BoundKind name to its implementation; returns a BoundResult.

    PARAMETRIC_INFIMA are one kl or Cramer inversion (_parametric_identity)
    with param_star=None; infimum_over_parameter is their test oracle.  With
    delta they are flagged reference_only: an infimum over the parameter
    carries no union correction.
    """
    res = inv.invert(*_kind_query(kind, family, alpha, beta, n, delta,
                                  sigma2, b))
    if kind in PARAMETRIC_INFIMA and delta is not None:
        res.flag = "reference_only"
    return res


def bound_values(kind, family, alpha, beta, n, delta=None, sigma2=None,
                 b=None):
    """One bound kind over broadcast (alpha, beta, n) arrays, NaN where it
    diverges.

    Every grid-evaluable kind, the parametric infima included, is a single
    invert_grid call.  n may be an integer array, except for the kinds that
    BoundQuery names.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                      np.asarray(beta, dtype=float))
    try:
        comp, q = _kind_query(kind, family, alpha, beta, n, delta, sigma2, b)
    except CorrectionDivergent:
        return np.full(alpha.shape, math.nan)
    return inv.invert_grid(comp, alpha, q.budget())


def comparison_surface(kind_a, kind_b, grid, family=None, delta=None,
                       clamp=False, sigma2=None, b=None):
    """Elementwise difference of two bound kinds over an (alpha, beta/n) grid.

    grid is (alphas, betas_over_n, n).  With clamp=True both bounds are
    capped at 1 before differencing (the bounded-loss convention).  Cells
    where a bound diverges are set to NaN.
    """
    alphas, bons, n = grid
    a, bon = np.meshgrid(alphas, bons, indexing="ij")

    def values(kind):
        v = bound_values(kind, family, a, bon * n, n, delta, sigma2, b)
        return np.minimum(v, 1.0) if clamp else v

    return values(kind_a) - values(kind_b)
