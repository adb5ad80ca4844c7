"""Bound inversion: largest population loss consistent with a comparator budget.

The two operators differ only in the budget: the high-probability form uses
(beta + ln(iota/delta))/n, the average form (beta + ln iota)/n.  Both reduce
to sup{rho : comparator(alpha, rho) <= budget}, found by bracketed bisection.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import families as fam
from .conjugate import argmax_zoom, cellwise


class NoFiniteBound(Exception):
    """Bracket expansion exhausted without the comparator exceeding the budget."""


class NonMonotoneComparator(Exception):
    """The comparator failed the nondecreasing-in-rho probe at this alpha."""


@dataclass(frozen=True)
class Comparator:
    """A convex discrepancy Delta(q, p) between training loss q and mean p."""
    form: str
    fn: object                      # callable (q, p) -> real
    loss_range: tuple               # closure of the p search interval
    params: dict = field(default_factory=dict)
    exact_inverse: object = None    # callable (alpha, budget) -> rho, if closed form

    def eval(self, q, p):
        return self.fn(q, p)


# -- comparator catalog ----------------------------------------------------

def cramer_of(family):
    """The family's Cramer function as a comparator (the optimal choice)."""
    lo, hi = family.mean_domain
    inner = 0.5 if math.isfinite(hi) else 1.0   # any interior mean

    def fn(q, p):
        pp = np.asarray(p, dtype=float)
        edge = (pp == lo) | (pp == hi)
        if not edge.any():
            return family.cramer(q, p)
        # continuous extension onto the closed endpoints of the mean range
        out = np.where(edge, np.where(np.asarray(q) == pp, 0.0, math.inf),
                       family.cramer(q, np.where(edge, inner, pp)))
        return float(out) if out.ndim == 0 else out

    return Comparator(f"cramer[{fam.family_spec(family)}]", fn, (lo, hi),
                      {"family": family})


def binary_kl():
    """The binary kl(q, p) as a comparator: the Bernoulli Cramer function.

    The two-argument function itself is families.binary_kl.
    """
    c = cramer_of(fam.bernoulli())
    return Comparator("binary_kl", c.fn, c.loss_range)


def catoni(gamma):
    """gamma*q - ln(1 - p + p e^gamma); nondecreasing in p for gamma < 0."""
    if not 0.0 < abs(gamma) < 709.0:
        raise ValueError(f"catoni needs 0 < |gamma| < 709, got {gamma}")
    eg, emg = math.expm1(gamma), math.expm1(-gamma)

    def fn(q, p):
        # p > 1/2: gamma + log1p((1-p) expm1(-gamma)) keeps p -> 1 exact
        p = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_mix = np.where(p > 0.5, gamma + np.log1p((1.0 - p) * emg),
                              np.log1p(p * eg))
        return gamma * np.asarray(q, dtype=float) - ln_mix

    def inv(alpha, budget):
        rho = math.expm1(gamma * alpha - budget) / eg
        return min(max(rho, 0.0), 1.0)

    return Comparator("catoni", fn, (0.0, 1.0), {"gamma": gamma},
                      exact_inverse=inv)


def scaled_diff(t):
    """Plain difference comparator t (p - q)."""

    def fn(q, p):
        return t * (p - q)

    inv = (lambda alpha, budget: alpha + budget / t) if t > 0 else None
    return Comparator("scaled_diff", fn, (-math.inf, math.inf), {"t": t},
                      exact_inverse=inv)


def poisson_diff(t):
    """(1 - e^{-t}) p - t q; carries its own offset so that Upsilon = 1."""
    if not t > 0:
        raise ValueError(f"poisson_diff needs t > 0, got {t}")
    c = -math.expm1(-t)

    def fn(q, p):
        return c * p - t * q

    def inv(alpha, budget):
        return (t * alpha + budget) / c

    return Comparator("poisson_diff", fn, (0.0, math.inf), {"t": t},
                      exact_inverse=inv)


def laplace_diff(t, b):
    """t (p - q) + ln(1 - b^2 t^2), the offset difference comparator."""
    if not (b > 0.0 and 0.0 < t < 1.0 / b):
        raise ValueError(f"laplace_diff needs 0 < t < 1/b, got t={t}, b={b}")
    off = math.log1p(-(b * t) ** 2)

    def fn(q, p):
        return t * (p - q) + off

    def inv(alpha, budget):
        return alpha + (budget - off) / t

    return Comparator("laplace_diff", fn, (-math.inf, math.inf),
                      {"t": t, "b": b}, exact_inverse=inv)


def gaussian_diff(t, sigma2):
    """t (p - q) - sigma^2 t^2 / 2, the offset difference comparator."""
    if not (t > 0.0 and 0.0 < sigma2 < math.inf):
        raise ValueError("gaussian_diff needs t > 0 and sigma2 in (0, inf), "
                         f"got t={t}, sigma2={sigma2}")
    off = -0.5 * sigma2 * t * t

    def fn(q, p):
        return t * (p - q) + off

    def inv(alpha, budget):
        return alpha + (budget - off) / t

    return Comparator("gaussian_diff", fn, (-math.inf, math.inf),
                      {"t": t, "sigma2": sigma2}, exact_inverse=inv)


def custom(eval_fn, loss_range, form="custom", params=None):
    return Comparator(form, eval_fn, loss_range, params or {})


# -- queries and results ---------------------------------------------------

@dataclass(frozen=True)
class BoundQuery:
    """Inputs of a single bound evaluation.

    ln_iota is the log-correction ln(iota) in nats; the bounds module
    chooses the correction that supplies it.  delta absent means the
    average-case operator (no confidence term).  alpha, beta and ln_iota may
    be arrays; the budget then broadcasts over them.
    """
    alpha: float
    beta: float
    n: int
    delta: float | None = None
    ln_iota: float = 0.0

    def __post_init__(self):
        beta, ln_iota = np.asarray(self.beta), np.asarray(self.ln_iota)
        if not np.all(np.isfinite(beta) & (beta >= 0.0)):
            raise ValueError(f"beta must be finite and nonnegative, got {beta}")
        if not np.all(np.isfinite(ln_iota)):
            raise ValueError(f"ln_iota must be finite, got {ln_iota}")
        if not self.n >= 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    def budget(self):
        b = self.beta + self.ln_iota
        if self.delta is not None:
            b -= math.log(self.delta)
        return b / self.n


@dataclass
class BoundResult:
    rho: float
    budget: float
    bracket: tuple
    iterations: int
    status: str            # converged | capped_at_domain | budget_nonpositive
    param_star: float | None = None
    flag: str | None = None


# -- the inversion engine --------------------------------------------------

_STATUSES = ("converged", "capped_at_domain", "budget_nonpositive",
             "no_finite_bound")
_CONVERGED, _CAPPED, _NONPOSITIVE, _NO_FINITE = range(len(_STATUSES))
_MAX_DOUBLINGS = 200
_TOL = 1e-9             # relative bracket width at which bisection stops


def _bisect(comp, alpha, budget, tol):
    """sup{rho : comp(alpha, rho) <= budget} cell by cell over broadcast arrays.

    The package's only bisection.  Returns (rho, lo, hi, iterations, status)
    arrays; status indexes _STATUSES, and rho is the feasible endpoint lo
    (the domain end when capped, NaN when no finite bound exists), so a
    reported bound never overestimates the supremum.  Every comparator call
    goes through cellwise: a cell where the comparator raises is +inf, i.e.
    infeasible.  NaN needs no mapping: like +inf it fails every comparison
    made here.
    """
    alpha, budget = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                        np.asarray(budget, dtype=float))
    if not np.all(np.isfinite(budget)):
        raise ValueError(f"budget must be finite, got {budget}")
    lo_r, hi_r = comp.loss_range
    outside = ~((lo_r <= alpha) & (alpha <= hi_r))
    if outside.any():
        raise ValueError(f"alpha={float(alpha[outside][0])} outside the loss "
                         f"range of {comp.form}")
    bounded = math.isfinite(hi_r)
    lo, hi = alpha.copy(), alpha.copy()
    iterations = np.zeros(alpha.shape, dtype=int)

    def comp_at(rho):
        return cellwise(comp.eval, alpha, rho, fill=math.inf)

    e0 = comp_at(alpha)
    status = np.where(budget <= np.where(np.isfinite(e0), e0, 0.0),
                      _NONPOSITIVE, _CONVERGED)
    todo = status == _CONVERGED

    # three-point probe of the nondecreasing-in-rho requirement
    d = (hi_r - alpha) / 8.0 if bounded else np.maximum(np.abs(alpha), 1.0) * 0.5
    probe = todo & (d > 0)
    if probe.any():
        vals = [comp_at(alpha + k * d) for k in (1, 2, 3)]
        with np.errstate(invalid="ignore"):    # inf - inf
            for a, b in zip(vals, vals[1:]):
                bad = probe & (b < a - 1e-12 * np.maximum(1.0, np.abs(a)))
                if bad.any():
                    raise NonMonotoneComparator(
                        f"{comp.form} is decreasing in rho near "
                        f"alpha={float(alpha[bad][0])}")

    if bounded and todo.any():
        hi[todo] = hi_r
        capped = todo & (comp_at(hi) <= budget)
        status[capped] = _CAPPED
        todo &= ~capped
    elif todo.any():
        hi[todo] = np.maximum(alpha[todo], 1e-12)
        grow = todo & (comp_at(hi) <= budget)
        doublings = 0
        while grow.any():
            lo = np.where(grow, hi, lo)
            hi = np.where(grow, hi * 2.0, hi)
            doublings += 1
            if doublings > _MAX_DOUBLINGS:
                status[grow] = _NO_FINITE
                todo &= ~grow
                break
            grow &= comp_at(hi) <= budget

    while True:
        scale = 1.0 if bounded else np.maximum(1.0, np.abs(lo))
        mid = 0.5 * (lo + hi)
        todo &= (hi - lo > tol * scale) & (lo < mid) & (mid < hi)
        if not todo.any():
            break
        feasible = comp_at(mid) <= budget
        lo = np.where(todo & feasible, mid, lo)
        hi = np.where(todo & ~feasible, mid, hi)
        iterations += todo

    rho = np.where(status == _CAPPED, hi, lo)
    rho[status == _NO_FINITE] = math.nan
    return rho, lo, hi, iterations, status


def invert_at_budget(comp, alpha, budget, tol=_TOL):
    """sup{rho in the loss range : comp(alpha, rho) <= budget} by bisection.

    The scalar (0-d) case of invert_grid; raises NoFiniteBound where that
    returns NaN.
    """
    rho, lo, hi, iterations, status = _bisect(comp, alpha, budget, tol)
    if status == _NO_FINITE:
        raise NoFiniteBound(f"{comp.form}: budget {budget} not exceeded after "
                            f"{_MAX_DOUBLINGS} bracket doublings")
    return BoundResult(float(rho), budget, (float(lo), float(hi)),
                       int(iterations), _STATUSES[status])


def invert_grid(comp, alphas, budgets):
    """invert_at_budget over broadcast (alpha, budget) arrays.

    Returns the rho array, NaN in every cell that has no finite bound.
    """
    return _bisect(comp, alphas, budgets, _TOL)[0]


def invert(comp, query):
    """Evaluate the bound operator for a query; see BoundQuery for the budget."""
    return invert_at_budget(comp, query.alpha, query.budget())


# -- Poisson closed form ---------------------------------------------------

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


# -- one-parameter infima --------------------------------------------------

def infimum_over_parameter(make_comp, query, param_range):
    """min over a parameter of the inverted bound, grid scan + argmax_zoom.

    For caller-supplied comparator families, and the test oracle of the
    built-in parametric-infimum kinds, which bounds evaluates by their kl or
    Cramer identity.  make_comp maps a parameter value to a Comparator.  The
    per-parameter bound is assumed quasiconvex on param_range, which is
    scanned at 64 log-spaced points; the best point is refined by
    argmax_zoom on -rho between its grid neighbours.  Raises NoFiniteBound
    if no parameter gives a finite bound.
    """
    lo, hi = param_range
    if not lo > 0:
        raise ValueError(f"param_range must start above 0, got {param_range}")
    xs = np.linspace(math.log(lo), math.log(hi), 64)
    alpha, budget = query.alpha, query.budget()

    def rho_of(x):
        comp = make_comp(math.exp(x))
        if comp.exact_inverse is not None:
            return comp.exact_inverse(alpha, budget)
        try:
            return invert_at_budget(comp, alpha, budget).rho
        except NoFiniteBound:
            return math.inf

    def neg_rho(x):
        return np.array([-rho_of(v) for v in x])

    vals = neg_rho(xs)
    i = int(np.argmax(vals))
    if vals[i] == -math.inf:
        raise NoFiniteBound(f"no parameter in {param_range} yields a finite bound")
    x_z, v_z = argmax_zoom(neg_rho, xs[max(i - 1, 0)],
                           xs[min(i + 1, len(xs) - 1)])
    param_star = math.exp(x_z if v_z > vals[i] else xs[i])

    comp = make_comp(param_star)
    if comp.exact_inverse is None:
        best = invert_at_budget(comp, alpha, budget)
    else:
        rho = comp.exact_inverse(alpha, budget)
        status = "capped_at_domain" if rho == comp.loss_range[1] else "converged"
        best = BoundResult(rho, budget, (rho, rho), 0, status)
    return replace(best, param_star=param_star)
