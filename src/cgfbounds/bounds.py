"""Bound kinds: each is one comparator inverted at (beta + ln_iota - ln delta)/n.

A kind names a comparator and a union correction ln_iota.  _kind_query is
the one map from a kind to both, and the two doors, evaluate_kind (one
query, a BoundResult) and bound_values (broadcast arrays, NaN where a bound
diverges), go through it.  The kinds with a union correction (mls and
pac_cramer_*) need a delta; the others (average_cramer and the parametric
infima) take an optional one, which enters the budget and makes the result
reference_only (reference_flag).
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


def check_kind(kind, delta):
    """Raise ValueError unless kind is one of BOUND_KINDS (the message names
    them) and delta suits it: a kind with a union correction needs one, and
    a delta lies in (0, 1)."""
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; use one of "
                         + ", ".join(BOUND_KINDS))
    if kind in _CORRECTED and delta is None:
        raise ValueError(f"the {kind} kind requires delta")
    inv.check_delta(delta)


def _parametric_identity(kind, family, sigma2, b):
    """The comparator whose inversion is the parametric infimum `kind`.

    Every member D_t of these families, a CGF line of its family, is
    nondecreasing in rho, so inf_t sup{rho : D_t <= B} is the inversion of
    sup_t D_t: the binary kl for Catoni's family, the family's Cramer
    function for the difference comparators.  sigma2 or b defaults to the
    family's nuisance only for a family of that type.
    """
    if kind == "catoni_inf":
        if family is not None and family.kind != "bernoulli":
            raise ValueError("catoni_inf needs the bernoulli family, "
                             f"got {family.kind}")
        return inv.binary_kl()
    if kind == "poisson_diff_inf":
        if family is not None and family.mean_domain[0] < 0.0:
            raise ValueError(f"poisson_diff_inf needs nonnegative losses; "
                             f"the {family.kind} family's mean can be negative")
        return inv.cramer_of(fam.poisson())
    own, name, value = (("laplace", "b", b) if kind == "laplace_diff_inf"
                        else ("gaussian", "sigma2", sigma2))
    if value is None and getattr(family, "kind", None) == own:
        value = family.nuisance
    if value is None or not value > 0:
        raise ValueError(f"{name} must be positive for {kind}, got {value!r}"
                         f"; only a {own} family lends its own {name}")
    return inv.cramer_of(fam.BoundingFamily(own, value))


def _kind_query(kind, family, alpha, beta, n, delta, sigma2, b, *,
                ln_upsilon=None, u=None):
    """(comparator, query) of a bound kind; one comparator inversion.

    The only map from a kind name to its comparator and union correction
    ln_iota.  alpha and beta may be arrays; the Chernoff kind computes its
    Upsilon once for all of them when ln_upsilon is None.  n may be an
    array too, except for the kinds of _SCALAR_N.  u is the 2e ceil(u) grid
    size, default n.
    """
    check_kind(kind, delta)
    for name, value, owner in (("ln_upsilon", ln_upsilon, "pac_cramer_chernoff"),
                               ("u", u, "pac_cramer_two_e_ceil")):
        if value is not None and kind != owner:
            raise ValueError(f"only {owner} takes {name}, not {kind}; "
                             f"{name}={value}")
    if kind in _SCALAR_N and np.ndim(n):
        raise ValueError(f"the {kind} kind needs a scalar n, got an array")
    if family is None and kind.startswith(("average_", "pac_")):
        raise ValueError(f"the {kind} kind needs a family, got None")
    q = BoundQuery(alpha, beta, n, delta)    # checked before the correction
    if kind == "average_cramer":
        return inv.cramer_of(family), q
    if kind in PARAMETRIC_INFIMA:
        return _parametric_identity(kind, family, sigma2, b), q
    if kind == "mls":
        if family is not None and family.kind != "bernoulli":
            raise ValueError(f"mls needs the bernoulli family, got {family.kind}")
        return inv.binary_kl(), replace(
            q, ln_iota=math.log(2.0) + 0.5 * math.log(n))
    if kind == "pac_cramer_chernoff":
        why = cramer_divergence(family)
        if why:
            raise CorrectionDivergent(
                f"Upsilon of the {family.kind} Cramer comparator diverges: "
                f"{why}; use the xi or two_e_ceil correction")
        if ln_upsilon is None:
            ln_upsilon = compute_upsilon(inv.cramer_of(family), family, n).value
        ln_iota = float(ln_upsilon)
    elif kind == "pac_cramer_xi":
        ln_iota = np.log(correction_xi(np.maximum(n * alpha, 0.0), beta))
    else:
        ln_iota = math.log(correction_two_e_ceil(n if u is None else u))
    return inv.cramer_of(family), replace(q, ln_iota=ln_iota)


def evaluate_kind(kind, family, alpha, beta, n, delta=None, sigma2=None,
                  b=None, *, ln_upsilon=None, u=None):
    """One bound kind at one (alpha, beta, n); returns a BoundResult.

    family may be None for mls and the parametric infima; sigma2 and b
    default to its nuisance.  Only pac_cramer_chernoff takes ln_upsilon (it
    computes one when none is given), only pac_cramer_two_e_ceil takes u.
    PARAMETRIC_INFIMA are one kl or Cramer inversion (_parametric_identity)
    with param_star=None; infimum_over_parameter is their test oracle.
    """
    res = inv.invert(*_kind_query(kind, family, alpha, beta, n, delta,
                                  sigma2, b, ln_upsilon=ln_upsilon, u=u))
    res.flag = reference_flag(kind, delta)
    return res


def bound_values(kind, family, alpha, beta, n, delta=None, sigma2=None,
                 b=None):
    """One bound kind, or several that invert one comparator, over broadcast
    (alpha, beta, n) arrays; NaN where a bound diverges.

    The kinds and rule of evaluate_kind.  The Chernoff kind computes its
    Upsilon and the 2e ceil(u) kind takes u = n.  n may be an integer
    array, except for the kinds that BoundQuery names.  kind may be a
    sequence of kinds whose comparators are Cramer functions of one family
    (the same params["family"]), such as mls and the pac_cramer kinds over
    bernoulli: their budgets are stacked and inverted in one invert_grid
    call, and the result has one leading row per kind, each equal to that
    kind's own call.  A single kind is the one-row case.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                      np.asarray(beta, dtype=float))
    comp, budgets = None, {}
    for row, k in enumerate(kinds):
        try:
            c, q = _kind_query(k, family, alpha, beta, n, delta, sigma2, b)
        except CorrectionDivergent:
            continue                # the row stays NaN
        if comp is None:
            comp = c
        elif c.params.get("family") != comp.params.get("family"):
            raise ValueError(f"the kinds {', '.join(kinds)} invert different "
                             "comparators; evaluate them apart")
        budgets[row] = q.budget()
    shape = np.broadcast_shapes(alpha.shape,
                                *(np.shape(v) for v in budgets.values()))
    out = np.full((len(kinds),) + shape, math.nan)
    if budgets:
        stacked = np.stack([np.broadcast_to(v, shape)
                            for v in budgets.values()])
        out[list(budgets)] = inv.invert_grid(
            comp, alpha, stacked[0] if isinstance(kind, str) else stacked)
    return out[0, ...] if isinstance(kind, str) else out
