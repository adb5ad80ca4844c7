"""Bound kinds: each is one comparator inverted at (beta + ln_iota - ln delta)/n.

A kind names a comparator and a union correction ln_iota.  check_kind is
the one rule on a query's inputs and gives the kind's comparator, which
_kind_query pairs with inversion.budget at the kind's correction.
evaluate_kind (a BoundResult) and bound_values (the rho arrays of one or
more kinds, NaN where a bound diverges) pass the pair to inversion.invert.
"""

import math

import numpy as np

from . import families as fam
from . import inversion as inv
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


def check_kind(kind, family, delta, sigma2=None, b=None, *, ln_upsilon=None,
               u=None):
    """The comparator a kind inverts; ValueError unless kind is in
    BOUND_KINDS and the query suits it.  In this order: a corrected kind
    needs a delta, any delta lies in (0, 1), only the Chernoff kind takes
    ln_upsilon, finite and at least 0 (Upsilon of a Cramer function is at
    least 1), only the 2e ceil(u) kind u, and a given sigma2 or b lies in
    (0, inf), whatever the kind.  mls and catoni_inf invert the binary kl;
    each *_diff_inf the sup of its CGF lines, the Cramer function of poisson
    or of laplace(b) or gaussian(sigma2), given or lent by a family of that
    type.  A Cramer kind needs a family, and a given family's mean domain
    lies in the comparator's loss range (inversion.check_loss_range)."""
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
    if ln_upsilon is not None and not 0.0 <= ln_upsilon < math.inf:
        raise ValueError("ln_upsilon must be finite and at least 0, got "
                         f"{ln_upsilon}")
    for name, value in (("sigma2", sigma2), ("b", b)):
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"{name} must lie in (0, inf), got {value!r}")
    if kind in ("mls", "catoni_inf"):
        comp = inv.binary_kl()
    elif kind == "poisson_diff_inf":
        comp = inv.cramer_of(fam.poisson())
    elif kind in PARAMETRIC_INFIMA:     # the other two *_diff_inf
        own, name, value = (("laplace", "b", b) if kind == "laplace_diff_inf"
                            else ("gaussian", "sigma2", sigma2))
        if value is None and getattr(family, "kind", None) == own:
            value = family.nuisance
        if value is None:
            raise ValueError(f"{name} must be positive for {kind}, got "
                             f"None; only a {own} family lends its own {name}")
        comp = inv.cramer_of(fam.BoundingFamily(own, value))
    elif family is None:
        raise ValueError(f"the {kind} kind needs a family, got None")
    else:
        comp = inv.cramer_of(family)
    if family is not None:
        inv.check_loss_range(comp, family)
    return comp


def _kind_query(kind, family, alpha, beta, n, delta, sigma2, b, *,
                ln_upsilon=None, u=None):
    """(check_kind's comparator, the budget with the kind's correction).

    alpha and beta may be arrays; the Chernoff kind computes its Upsilon
    once for all of them when ln_upsilon is None.  n may be an array too,
    except for the kinds of _SCALAR_N.  u is the 2e ceil(u) grid size,
    default n."""
    comp = check_kind(kind, family, delta, sigma2, b, ln_upsilon=ln_upsilon,
                      u=u)
    if kind in _SCALAR_N and np.ndim(n):
        raise ValueError(f"the {kind} kind needs a scalar n, got an array")
    budget = inv.budget(beta, n, delta)     # checked before the correction
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
        return comp, budget
    return comp, inv.budget(beta, n, delta, ln_iota)


def evaluate_kind(kind, family, alpha, beta, n, delta=None, sigma2=None,
                  b=None, *, ln_upsilon=None, u=None):
    """One bound kind at (alpha, beta, n); returns inversion.invert's
    BoundResult, of floats for scalar inputs and of arrays otherwise.

    check_kind names the inputs each kind takes; pac_cramer_chernoff
    computes its ln_upsilon when none is given.  PARAMETRIC_INFIMA report
    param_star=None; infimum_over_parameter is their test oracle.
    """
    comp, budget = _kind_query(kind, family, alpha, beta, n, delta, sigma2, b,
                               ln_upsilon=ln_upsilon, u=u)
    res = inv.invert(comp, alpha, budget)
    res.flag = reference_flag(kind, delta)
    return res


def _per_kind(kinds, family, alpha, beta, n, delta, sigma2=None, b=None,
              losses=None):
    """One row per kind over broadcast (alpha, beta, n): the rho of invert
    at the kind's _kind_query pair, or given losses, which broadcast with
    alpha and beta, _bisect's settled losses > rho: the same booleans for
    less comparator work, and no settled point passes for a bound.  The
    budget has a leading axis of length 1, so that a 0-d query gives a
    row, not NoFiniteBound.  A kind whose Cramer comparator
    (params["family"]; binary_kl is Bernoulli's) and budget doubles match
    an earlier kind's takes that row; a CorrectionDivergent kind's row is
    NaN, or never exceeded."""
    if losses is not None:
        alpha, beta, losses = np.broadcast_arrays(alpha, beta, losses)
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                      np.asarray(beta, dtype=float))
    fill = math.nan if losses is None else False
    rows, solved = [], []       # solved: (comparator family, budget, row)
    for k in kinds:
        try:
            comp, budget = _kind_query(k, family, alpha, beta, n, delta,
                                       sigma2, b)
        except CorrectionDivergent:
            rows.append(fill)
            continue
        key = comp.params["family"]
        row = next((r for f, v, r in solved
                    if f == key and np.array_equal(v, budget)), None)
        if row is None:
            budgets = np.asarray(budget)[None]
            row = (inv.invert(comp, alpha, budgets).rho if losses is None
                   else inv._bisect(comp, alpha, budgets, losses))[0]
            solved.append((key, budget, row))
        rows.append(row)
    shape = np.broadcast_shapes(alpha.shape, *map(np.shape, rows))
    out = np.full((len(rows),) + shape, fill)
    for i, row in enumerate(rows):
        out[i] = row
    return out


def bound_values(kind, family, alpha, beta, n, delta=None, sigma2=None,
                 b=None):
    """One bound kind, or a sequence of any kinds, over broadcast
    (alpha, beta, n) arrays; NaN where a bound diverges.

    The kinds and rule of evaluate_kind.  The Chernoff kind computes its
    Upsilon and the 2e ceil(u) kind takes u = n.  n may be an integer
    array, except for the kinds of _SCALAR_N.  A sequence of kinds
    gives one leading row per kind, each equal to that kind's own call,
    and makes one inversion per distinct comparator and budget: a kind
    whose Cramer comparator and budget an earlier kind shares takes its
    row.  A single kind is the one-row case.
    """
    out = _per_kind([kind] if isinstance(kind, str) else kind, family,
                    alpha, beta, n, delta, sigma2, b)
    return out[0, ...] if isinstance(kind, str) else out

