"""Bound inversion: largest population loss consistent with a comparator budget.

The two operators differ only in the budget: the high-probability form uses
(beta + ln(iota/delta))/n, the average form (beta + ln iota)/n.  Both reduce
to sup{rho : comparator(alpha, rho) <= budget}, found by bracketed bisection.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import families as fam
from .conjugate import argmax_zoom, cellwise


class NoFiniteBound(Exception):
    """Bracket expansion exhausted without the comparator exceeding the budget."""


class NonMonotoneComparator(Exception):
    """The comparator failed the nondecreasing-in-rho probe at this alpha."""


@dataclass
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

def _point_mass_ends(p, ends):
    """(mask of the cells of p on a closed end of the mean range, where the
    member is the point mass at p, or None; p with those cells moved in)."""
    lo, hi = ends
    pp = np.asarray(p, dtype=float)
    edge = (pp == lo) | (pp == hi)
    if not edge.any():
        return None, p
    return edge, np.where(edge, 0.5 if math.isfinite(hi) else 1.0, pp)


def cramer_of(family):
    """The family's Cramer function as a comparator (the optimal choice);
    the point mass's is 0 at q = p, else +inf."""
    ends = family.mean_domain

    def fn(q, p):
        edge, inside = _point_mass_ends(p, ends)
        out = family.cramer(q, inside)
        if edge is None:
            return out
        out = np.where(edge, np.where(np.asarray(q) == np.asarray(p), 0.0,
                                      math.inf), out)
        return float(out) if out.ndim == 0 else out

    return Comparator(f"cramer[{fam.family_spec(family)}]", fn, ends,
                      {"family": family})


def binary_kl():
    """The Bernoulli Cramer comparator, same fn and params, named binary_kl.

    The two-argument function itself is families.binary_kl.
    """
    return replace(cramer_of(fam.bernoulli()), form="binary_kl")


_family = functools.lru_cache(maxsize=64)(fam.BoundingFamily)  # one per nuisance


def _cgf_line(form, family, s, params, exact_inverse):
    """The family's CGF line s q - K_p(s), K_p(s) = s p for a point mass, as
    a comparator; its sup over s is the Cramer function, and params["cgf_line"]
    = (form, family) tells compute_upsilon E e^{n (s xbar - K_p(s))} = 1."""
    ends = family.mean_domain

    def fn(q, p):
        edge, inside = _point_mass_ends(p, ends)
        k = family.cgf(inside, s)
        if edge is not None:
            k = np.where(edge, s * np.asarray(p, dtype=float), k)
        return s * np.asarray(q, dtype=float) - k

    params["cgf_line"] = (form, family)
    return Comparator(form, fn, ends, params, exact_inverse)


def catoni(gamma):
    """gamma q - ln(1 - p + p e^gamma), the Bernoulli CGF line at s = gamma;
    nondecreasing in p for gamma < 0."""
    if not 0.0 < abs(gamma) < 709.0:
        raise ValueError(f"catoni needs 0 < |gamma| < 709, got {gamma}")
    eg = math.expm1(gamma)
    return _cgf_line("catoni", _family("bernoulli"), gamma, {"gamma": gamma},
                     lambda alpha, budget: min(max(
                         math.expm1(gamma * alpha - budget) / eg, 0.0), 1.0))


def scaled_diff(t):
    """Plain difference comparator t (p - q)."""
    if not math.isfinite(t):
        raise ValueError(f"scaled_diff needs a finite t, got {t}")

    def fn(q, p):
        return t * (p - q)

    inv = (lambda alpha, budget: alpha + budget / t) if t > 0 else None
    return Comparator("scaled_diff", fn, (-math.inf, math.inf), {"t": t},
                      exact_inverse=inv)


def poisson_diff(t):
    """(1 - e^{-t}) p - t q, the Poisson CGF line at s = -t."""
    if not t > 0:
        raise ValueError(f"poisson_diff needs t > 0, got {t}")
    c = -math.expm1(-t)
    return _cgf_line("poisson_diff", _family("poisson"), -t, {"t": t},
                     lambda alpha, budget: (t * alpha + budget) / c)


def laplace_diff(t, b):
    """t (p - q) + ln(1 - b^2 t^2), the Laplace(b) CGF line at s = -t."""
    if not (b > 0.0 and 0.0 < t < 1.0 / b):
        raise ValueError(f"laplace_diff needs 0 < t < 1/b, got t={t}, b={b}")
    off = math.log1p(-(b * t) ** 2)
    return _cgf_line("laplace_diff", _family("laplace", b), -t,
                     {"t": t, "b": b},
                     lambda alpha, budget: alpha + (budget - off) / t)


def gaussian_diff(t, sigma2):
    """t (p - q) - sigma^2 t^2 / 2, the Gaussian(sigma^2) CGF line at s = -t."""
    if not (t > 0.0 and 0.0 < sigma2 < math.inf):
        raise ValueError("gaussian_diff needs t > 0 and sigma2 in (0, inf), "
                         f"got t={t}, sigma2={sigma2}")
    off = -0.5 * sigma2 * t * t
    return _cgf_line("gaussian_diff", _family("gaussian", sigma2), -t,
                     {"t": t, "sigma2": sigma2},
                     lambda alpha, budget: alpha + (budget - off) / t)


def custom(eval_fn, loss_range, form="custom", params=None):
    return Comparator(form, eval_fn, loss_range, params or {})


# -- queries and results ---------------------------------------------------

def check_delta(delta):
    """Raise ValueError unless delta is None or lies in (0, 1)."""
    if delta is not None and not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def check_n(n, name="n"):
    """Raise ValueError unless the count n, or each element of an array n, is
    a finite integer of at least 1 (100.0 passes, 2.5 does not)."""
    nn = np.asarray(n, dtype=float)
    ok = (nn >= 1.0) & (nn < math.inf) & (np.floor(nn) == nn)
    if not ok.all():
        got = np.asarray(n)[~ok].flat[0]
        rule = "at least 1" if not got >= 1 else "at least 1 and a finite integer"
        raise ValueError(f"{name} must be {rule}, got {got}")


@dataclass(frozen=True)
class BoundQuery:
    """Inputs of a single bound evaluation.

    ln_iota is the log-correction ln(iota) in nats; the bounds module
    chooses the correction that supplies it.  delta absent means the
    average-case operator (no confidence term).  alpha, beta, n and ln_iota
    may be arrays; the budget then broadcasts over them.  n must pass
    check_n; the mls, pac_cramer_two_e_ceil and pac_cramer_chernoff kinds
    take a scalar n only (bounds._kind_query refuses an array).
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
        check_n(self.n)
        check_delta(self.delta)

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
    if not np.all(np.isfinite(alpha)):   # an unbounded range lets inf through
        raise ValueError(f"alpha must be finite, got "
                         f"{float(alpha[~np.isfinite(alpha)][0])}")
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


def no_finite_bound(what, budget):
    """The NoFiniteBound of `what` at a budget no bracket doubling exceeds."""
    return NoFiniteBound(f"{what}: budget {budget} not exceeded after "
                         f"{_MAX_DOUBLINGS} bracket doublings")


def invert_at_budget(comp, alpha, budget, tol=_TOL):
    """sup{rho in the loss range : comp(alpha, rho) <= budget} by bisection.

    The scalar (0-d) case of invert_grid; raises NoFiniteBound where that
    returns NaN.
    """
    rho, lo, hi, iterations, status = _bisect(comp, alpha, budget, tol)
    if status == _NO_FINITE:
        raise no_finite_bound(comp.form, budget)
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


# -- one-parameter infima --------------------------------------------------

def infimum_over_parameter(make_comp, query, param_range):
    """min over a parameter of the inverted bound, grid scan + argmax_zoom.

    For caller-supplied comparator families, and the test oracle of the
    built-in parametric-infimum kinds, which bounds evaluates by their kl or
    Cramer identity.  make_comp maps a parameter value to a Comparator.  The
    per-parameter bound is assumed quasiconvex on param_range, which is
    scanned at 64 log-spaced points and refined by argmax_zoom on -rho.
    Raises NoFiniteBound if no parameter gives a finite bound.
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
    if vals.max() == -math.inf:
        raise NoFiniteBound(f"no parameter in {param_range} yields a finite bound")
    param_star = math.exp(argmax_zoom(neg_rho, xs, vals)[0])

    comp = make_comp(param_star)
    if comp.exact_inverse is None:
        best = invert_at_budget(comp, alpha, budget)
    else:
        rho = comp.exact_inverse(alpha, budget)
        status = "capped_at_domain" if rho == comp.loss_range[1] else "converged"
        best = BoundResult(rho, budget, (rho, rho), 0, status)
    return replace(best, param_star=param_star)
