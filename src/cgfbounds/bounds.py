"""Named bound assemblies over the family, inversion, and upsilon layers."""

import math

import numpy as np

from . import inversion as inv
from .inversion import BoundQuery
from .upsilon import compute_upsilon

BOUND_KINDS = ("average_cramer", "pac_cramer_chernoff", "pac_cramer_xi",
               "pac_cramer_two_e_ceil", "catoni_inf", "mls",
               "poisson_diff_inf", "laplace_diff_inf", "gaussian_diff_inf",
               "samplewise_average")

CATONI_GAMMA_MAGNITUDES = (1e-3, 50.0)


class CorrectionDivergent(Exception):
    """A Chernoff-style correction was requested where Upsilon diverges."""


def average_bound(family, alpha, beta, n, tol=1e-9):
    """Average-case optimal bound: Cramer comparator, unit correction, no delta."""
    return inv.invert(*_kind_query("average_cramer", family, alpha, beta, n),
                      tol)


def _pac_query(family, alpha, beta, n, delta, correction, ln_upsilon=None,
               u=None):
    """(comparator, query) of pac_bound; alpha and beta may be arrays."""
    comp = inv.cramer_of(family)
    if correction == "chernoff":
        if family.kind in ("poisson", "gamma"):
            raise CorrectionDivergent(
                f"Upsilon of the {family.kind} Cramer comparator diverges; "
                "use the xi or two_e_ceil correction")
        assert ln_upsilon is not None, "chernoff correction needs ln_upsilon"
        q = BoundQuery(alpha, beta, n, delta, iota="explicit",
                       iota_value=float(ln_upsilon))
    elif correction == "xi":
        q = BoundQuery(alpha, beta, n, delta, iota="xi")
    elif correction == "two_e_ceil":
        q = BoundQuery(alpha, beta, n, delta, iota="two_e_ceil_u", u=u)
    else:
        raise ValueError(f"unknown correction {correction!r}")
    return comp, q


def pac_bound(family, alpha, beta, n, delta, correction="xi",
              ln_upsilon=None, u=None, tol=1e-9):
    """High-probability Cramer bound with a certified correction.

    correction is one of "chernoff" (caller supplies ln_upsilon, the log
    moment value from the upsilon module), "xi", or "two_e_ceil" (u defaults
    to n).  Chernoff corrections are refused outright for the Poisson and
    gamma families, whose Cramer-comparator Upsilon diverges.
    """
    return inv.invert(*_pac_query(family, alpha, beta, n, delta, correction,
                                  ln_upsilon, u), tol)


def optimistic_reference(family, alpha, beta, n, delta=None, tol=1e-9):
    """The unit-correction Cramer envelope; a floor on achievable bounds.

    With delta it is not a certified high-probability bound, so the result
    carries flag="reference_only".
    """
    res = inv.invert(inv.cramer_of(family),
                     BoundQuery(alpha, beta, n, delta), tol)
    res.flag = "reference_only"
    return res


def mls_bound(alpha, beta, n, delta, tol=1e-9):
    """Binary-kl bound with the classical 2 sqrt(n) correction."""
    return inv.invert(*_kind_query("mls", None, alpha, beta, n, delta), tol)


def catoni_inf_bound(alpha, beta, n, delta=None, tol=1e-9, grid_points=64):
    """Infimum of the Catoni bounds over the useful (negative) gamma range.

    With delta this is the optimistic variant and is flagged reference_only:
    the infimum over gamma carries no union correction.
    """
    q = BoundQuery(alpha, beta, n, delta)
    res = inv.infimum_over_parameter(lambda m: inv.catoni(-m), q,
                                     CATONI_GAMMA_MAGNITUDES, "log",
                                     grid_points, tol)
    if delta is not None:
        res.flag = "reference_only"
    return res


def diff_based_bound(kind, alpha, beta, n, b=None, sigma2=None, delta=None,
                     tol=1e-9, grid_points=64):
    """Infimum over t of a difference-comparator bound.

    kind "poisson" needs no parameter, "laplace" takes the scale b,
    "gaussian" the variance sigma2.
    """
    q = BoundQuery(alpha, beta, n, delta)
    if kind == "poisson":
        make, rng = inv.poisson_diff, (1e-4, 200.0)
    elif kind == "laplace":
        assert b is not None and b > 0
        make, rng = (lambda t: inv.laplace_diff(t, b)), (1e-8, (1.0 - 1e-12) / b)
    elif kind == "gaussian":
        assert sigma2 is not None and sigma2 > 0
        make, rng = (lambda t: inv.gaussian_diff(t, sigma2)), (1e-8, 100.0)
    else:
        raise ValueError(f"unknown diff-bound kind {kind!r}")
    return inv.infimum_over_parameter(make, q, rng, "log", grid_points, tol)


def samplewise_bound(family, per_sample, n=None, tol=1e-9):
    """Mean over samples of single-observation inversions.

    per_sample holds (alpha_i, beta_i) pairs, one per sample; the result is
    (1/n) sum_i of the n=1 average bound at those arguments.
    """
    pairs = list(per_sample)
    if n is not None:
        assert len(pairs) == n, "per_sample must have length n"
    comp = inv.cramer_of(family)
    tot = 0.0
    for a_i, b_i in pairs:
        tot += inv.invert(comp, BoundQuery(a_i, b_i, 1), tol).rho
    return tot / len(pairs)


def _kind_query(kind, family, alpha, beta, n, delta=None):
    """(comparator, query) of a kind that is one comparator inversion.

    None for the parametric infima.  alpha and beta may be arrays; the
    Chernoff kind computes its Upsilon once for all of them.
    """
    if kind == "average_cramer":
        return inv.cramer_of(family), BoundQuery(alpha, beta, n)
    if kind == "mls":
        assert family is None or family.kind == "bernoulli"
        assert delta is not None, "the mls kind requires delta"
        return inv.binary_kl(), BoundQuery(alpha, beta, n, delta,
                                           iota="mls_sqrt")
    if kind == "pac_cramer_chernoff":
        est = compute_upsilon(inv.cramer_of(family), family, n)
        if est.mode == "divergent" or not math.isfinite(est.value):
            raise CorrectionDivergent(
                f"Upsilon of the {family.kind} Cramer comparator diverges")
        return _pac_query(family, alpha, beta, n, delta, "chernoff",
                          ln_upsilon=est.value)
    if kind in ("pac_cramer_xi", "pac_cramer_two_e_ceil"):
        return _pac_query(family, alpha, beta, n, delta,
                          kind.removeprefix("pac_cramer_"))
    return None


def evaluate_kind(kind, family, alpha, beta, n, delta=None, sigma2=None,
                  b=None, tol=1e-9):
    """Route a BoundKind name to its implementation; returns a BoundResult."""
    query = _kind_query(kind, family, alpha, beta, n, delta)
    if query is not None:
        return inv.invert(*query, tol)
    if kind == "catoni_inf":
        assert family is None or family.kind == "bernoulli"
        return catoni_inf_bound(alpha, beta, n, delta, tol)
    if kind == "poisson_diff_inf":
        return diff_based_bound("poisson", alpha, beta, n, delta=delta, tol=tol)
    if kind == "laplace_diff_inf":
        bb = b if b is not None else getattr(family, "nuisance", None)
        return diff_based_bound("laplace", alpha, beta, n, b=bb, delta=delta, tol=tol)
    if kind == "gaussian_diff_inf":
        s2 = sigma2 if sigma2 is not None else getattr(family, "nuisance", None)
        return diff_based_bound("gaussian", alpha, beta, n, sigma2=s2,
                                delta=delta, tol=tol)
    raise ValueError(f"kind {kind!r} is not grid-evaluable")


def bound_values(kind, family, alpha, beta, n, delta=None, sigma2=None,
                 b=None, tol=1e-9):
    """One bound kind over broadcast (alpha, beta) arrays, NaN where it diverges.

    The kinds that invert one comparator make a single invert_grid call;
    the parametric infima are evaluated cell by cell.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                      np.asarray(beta, dtype=float))
    try:
        query = _kind_query(kind, family, alpha, beta, n, delta)
    except CorrectionDivergent:
        return np.full(alpha.shape, math.nan)
    if query is not None:
        comp, q = query
        return inv.invert_grid(comp, alpha, q.budget(), tol)
    out = np.empty(alpha.shape)
    for i in np.ndindex(alpha.shape):
        try:
            out[i] = evaluate_kind(kind, family, float(alpha[i]),
                                   float(beta[i]), n, delta, sigma2, b, tol).rho
        except (inv.NoFiniteBound, CorrectionDivergent):
            out[i] = math.nan
    return out


def comparison_surface(kind_a, kind_b, grid, family=None, delta=None,
                       clamp=False, sigma2=None, b=None, tol=1e-9):
    """Elementwise difference of two bound kinds over an (alpha, beta/n) grid.

    grid is (alphas, betas_over_n, n).  With clamp=True both bounds are
    capped at 1 before differencing (the bounded-loss convention).  Cells
    where a bound diverges are set to NaN.
    """
    alphas, bons, n = grid
    a, bon = np.meshgrid(alphas, bons, indexing="ij")

    def values(kind):
        v = bound_values(kind, family, a, bon * n, n, delta, sigma2, b, tol)
        return np.minimum(v, 1.0) if clamp else v

    return values(kind_a) - values(kind_b)
