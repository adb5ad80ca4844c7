"""Bound kinds: each is one comparator inverted at (beta + ln_iota - ln delta)/n.

A kind names a comparator and a union correction ln_iota.  check_kind is
the one rule on a query's inputs and _kind_query the one map from a kind
to both.  evaluate_kind (a BoundResult) and bound_values (the rho arrays of
one or more kinds, NaN where a bound diverges) go through it to the one
inversion door, inversion.invert.
"""

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

_CORRECTED = ("mls", "pac_cramer_chernoff", "pac_cramer_xi",
              "pac_cramer_two_e_ceil")

_SCALAR_N = ("mls", "pac_cramer_two_e_ceil", "pac_cramer_chernoff")


class CorrectionDivergent(Exception):
    """A Chernoff-style correction was requested where Upsilon diverges."""


def reference_flag(kind, delta):
    """"reference_only" for a kind without a union correction given a delta.

    Such a bound is a floor under the certified kinds, not a certified
    high-probability bound; every other query has no flag (None).
    """
    return ("reference_only" if delta is not None and kind not in _CORRECTED
            else None)


def _diff_family(kind, family, sigma2, b):
    """laplace(b) or gaussian(sigma2) of a *_diff_inf kind, its b or sigma2
    given or lent by a family of that kind."""
    own, name, value = (("laplace", "b", b) if kind == "laplace_diff_inf"
                        else ("gaussian", "sigma2", sigma2))
    if value is None and getattr(family, "kind", None) == own:
        value = family.nuisance
    if value is None or not value > 0:
        raise ValueError(f"{name} must be positive for {kind}, got {value!r}"
                         f"; only a {own} family lends its own {name}")
    return fam.BoundingFamily(own, value)


def check_kind(kind, family, delta, sigma2=None, b=None, *, ln_upsilon=None,
               u=None):
    """Raise ValueError unless kind is in BOUND_KINDS and the query suits it.

    In this order: a corrected kind needs a delta, any delta lies in (0, 1),
    only the Chernoff kind takes ln_upsilon and only the 2e ceil(u) kind u,
    a Cramer kind needs a family, mls and catoni_inf take bernoulli (or
    None), poisson_diff_inf no family with negative means, and the other
    *_diff_inf a positive b or sigma2 (_diff_family).  Every bound API calls
    it before any work."""
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; use one of "
                         + ", ".join(BOUND_KINDS))
    if kind in _CORRECTED and delta is None:
        raise ValueError(f"the {kind} kind requires delta")
    inv.check_delta(delta)
    for name, value, owner in (("ln_upsilon", ln_upsilon, "pac_cramer_chernoff"),
                               ("u", u, "pac_cramer_two_e_ceil")):
        if value is not None and kind != owner:
            raise ValueError(f"only {owner} takes {name}, not {kind}; "
                             f"{name}={value}")
    if family is None and kind.startswith(("average_", "pac_")):
        raise ValueError(f"the {kind} kind needs a family, got None")
    if kind in ("mls", "catoni_inf") and family and family.kind != "bernoulli":
        raise ValueError(f"{kind} needs the bernoulli family, got {family.kind}")
    if kind == "poisson_diff_inf" and family and family.mean_domain[0] < 0.0:
        raise ValueError(f"poisson_diff_inf needs nonnegative losses; "
                         f"the {family.kind} family's mean can be negative")
    if kind in ("laplace_diff_inf", "gaussian_diff_inf"):
        _diff_family(kind, family, sigma2, b)


def _kind_query(kind, family, alpha, beta, n, delta, sigma2, b, *,
                ln_upsilon=None, u=None):
    """(comparator, query) of a bound kind, after check_kind.

    alpha and beta may be arrays; the Chernoff kind computes its Upsilon
    once for all of them when ln_upsilon is None.  n may be an array too,
    except for the kinds of _SCALAR_N.  u is the 2e ceil(u) grid size,
    default n.  A parametric infimum inverts sup_t D_t (each D_t, a CGF
    line, is nondecreasing in rho): the binary kl for Catoni's family, a
    Cramer function for the difference comparators."""
    check_kind(kind, family, delta, sigma2, b, ln_upsilon=ln_upsilon, u=u)
    if kind in _SCALAR_N and np.ndim(n):
        raise ValueError(f"the {kind} kind needs a scalar n, got an array")
    q = BoundQuery(alpha, beta, n, delta)    # checked before the correction
    if kind in ("mls", "catoni_inf"):
        comp = inv.binary_kl()
    elif kind == "poisson_diff_inf":
        comp = inv.cramer_of(fam.poisson())
    elif kind in PARAMETRIC_INFIMA:
        comp = inv.cramer_of(_diff_family(kind, family, sigma2, b))
    else:
        comp = inv.cramer_of(family)
    if kind == "mls":
        ln_iota = math.log(2.0) + 0.5 * math.log(n)
    elif kind == "pac_cramer_chernoff":
        why = cramer_divergence(family)
        if why:
            raise CorrectionDivergent(
                f"Upsilon of the {family.kind} Cramer comparator diverges: "
                f"{why}; use the xi or two_e_ceil correction")
        ln_iota = float(compute_upsilon(comp, family, n).value
                        if ln_upsilon is None else ln_upsilon)
    elif kind == "pac_cramer_xi":
        n_alpha = np.maximum(np.multiply(n, alpha), 0.0)   # a list alpha too
        ln_iota = np.log(correction_xi(n_alpha, beta))
    elif kind == "pac_cramer_two_e_ceil":
        ln_iota = math.log(correction_two_e_ceil(n if u is None else u))
    else:
        return comp, q
    return comp, replace(q, ln_iota=ln_iota)


def evaluate_kind(kind, family, alpha, beta, n, delta=None, sigma2=None,
                  b=None, *, ln_upsilon=None, u=None):
    """One bound kind at (alpha, beta, n); returns inversion.invert's
    BoundResult, of floats for scalar inputs and of arrays otherwise.

    check_kind names the inputs each kind takes; pac_cramer_chernoff
    computes its ln_upsilon when none is given.  PARAMETRIC_INFIMA report
    param_star=None; infimum_over_parameter is their test oracle.
    """
    comp, q = _kind_query(kind, family, alpha, beta, n, delta, sigma2, b,
                          ln_upsilon=ln_upsilon, u=u)
    res = inv.invert(comp, q.alpha, q.budget())
    res.flag = reference_flag(kind, delta)
    return res


def _grouped(kind, family, alpha, beta, n, delta, sigma2, b):
    """bound_values' grouping of one kind or a sequence of kinds: (kinds,
    alpha broadcast with beta, shape, groups), each group (comparator, the
    distinct budgets stacked, the kinds' rows, each row's index into the
    budgets); a CorrectionDivergent kind is in no group."""
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                      np.asarray(beta, dtype=float))
    groups = {}     # Cramer family: (comparator, {row: budget})
    for row, k in enumerate(kinds):
        try:
            c, q = _kind_query(k, family, alpha, beta, n, delta, sigma2, b)
        except CorrectionDivergent:
            continue                # the row stays NaN
        groups.setdefault(c.params["family"], (c, {}))[1][row] = q.budget()
    shape = np.broadcast_shapes(alpha.shape, *(
        np.shape(v) for _, rows in groups.values() for v in rows.values()))
    stacked = []
    for comp, rows in groups.values():
        distinct, at = [], []       # the distinct budgets; each row's index
        for v in rows.values():
            v = np.broadcast_to(v, shape)
            i = next((i for i, d in enumerate(distinct)
                      if np.array_equal(d, v)), len(distinct))
            if i == len(distinct):
                distinct.append(v)
            at.append(i)
        stacked.append((comp, np.stack(distinct), list(rows), at))
    return kinds, alpha, shape, stacked


def bound_values(kind, family, alpha, beta, n, delta=None, sigma2=None,
                 b=None):
    """One bound kind, or a sequence of any kinds, over broadcast
    (alpha, beta, n) arrays; NaN where a bound diverges.

    The kinds and rule of evaluate_kind.  The Chernoff kind computes its
    Upsilon and the 2e ceil(u) kind takes u = n.  n may be an integer
    array, except for the kinds that BoundQuery names.  A sequence of kinds
    gives one leading row per kind, each equal to that kind's own call:
    they are grouped by Cramer comparator (params["family"]; binary_kl is
    Bernoulli's), each group makes one invert call over its stacked
    budgets, and a budget that several kinds share is inverted once.  A
    single kind is the one-row case.
    """
    kinds, alpha, shape, groups = _grouped(kind, family, alpha, beta, n,
                                           delta, sigma2, b)
    out = np.full((len(kinds),) + shape, math.nan)
    for comp, budgets, rows, at in groups:
        out[rows] = inv.invert(comp, alpha, budgets).rho[at]
    return out[0, ...] if isinstance(kind, str) else out


def _exceeds(kinds, family, alpha, beta, n, losses, delta):
    """losses > bound_values(kinds, family, alpha, beta, n, delta) for a
    sequence of kinds, each cell settled by _bisect's settle mode instead
    of converged: the same booleans for less comparator work.  losses
    broadcasts with alpha and beta; a kind without a bound (NaN) is never
    exceeded.  Booleans only, so no settled point passes for a bound."""
    alpha, beta, losses = np.broadcast_arrays(alpha, beta, losses)
    kinds, alpha, shape, groups = _grouped(kinds, family, alpha, beta, n,
                                           delta, None, None)
    out = np.zeros((len(kinds),) + shape, dtype=bool)
    for comp, budgets, rows, at in groups:
        out[rows] = inv._bisect(comp, alpha, budgets, losses)[at]
    return out
