"""Bound inversion: largest population loss consistent with a comparator budget.

The two operators differ only in budget(beta, n, delta, ln_iota): the
high-probability (beta + ln(iota/delta))/n, the average (beta + ln iota)/n.
Both reduce to sup{rho : comparator(alpha, rho) <= budget}, found under
one engine's rules by the comparator's closed form where it has one, else by
bracketed bisection.  invert(comp, alpha, budget) is the one door, and
infimum_over_parameter takes the same pair: both broadcast alpha and budget,
a scalar query being the 0-d case, and return one BoundResult.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import families as fam
from .conjugate import argmax_zoom, cellwise


class NoFiniteBound(Exception):
    """No rho exceeds the budget: a closed form's root is +inf, or bracket
    expansion ran out without the comparator exceeding it."""


class NonMonotoneComparator(Exception):
    """The comparator failed the nondecreasing-in-rho probe at this alpha."""


@dataclass
class Comparator:
    """A convex discrepancy Delta(q, p) between training loss q and mean p."""
    form: str
    fn: object                      # callable (q, p) -> real
    loss_range: tuple               # closure of the p search interval
    params: dict = field(default_factory=dict)
    exact_inverse: object = None    # (alpha, budget) -> rho; _bisect reads it

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
    the point mass's is 0 at q = p, else +inf.  Its exact_inverse is the
    family record's closed-form cramer_inverse (gaussian, poisson and
    invgauss), which _bisect solves under its rules; the other families'
    Cramer functions are bisected."""
    ends = family.mean_domain
    closed = family.law.cramer_inverse
    inverse = None if closed is None else (
        lambda alpha, budget: closed(alpha, budget, family.nuisance))

    def fn(q, p):
        edge, inside = _point_mass_ends(p, ends)
        out = family.cramer(q, inside)
        if edge is None:
            return out
        out = np.where(edge, np.where(np.asarray(q) == np.asarray(p), 0.0,
                                      math.inf), out)
        return float(out) if out.ndim == 0 else out

    return Comparator(f"cramer[{fam.family_spec(family)}]", fn, ends,
                      {"family": family}, inverse)


def binary_kl():
    """The Bernoulli Cramer comparator, same fn and params, named binary_kl.

    The two-argument function itself is families.binary_kl.
    """
    return replace(cramer_of(fam.bernoulli()), form="binary_kl")


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


def _location_line(form, family, t, params):
    """The CGF line at s = -t of a location family, K_p(s) = s p + K_0(s):
    t (p - q) - K_0(-t), which is budget at rho = alpha + (budget - off) / t,
    off = -K_0(-t)."""
    off = -family.cgf(0.0, -t)
    return _cgf_line(form, family, -t, params,
                     lambda alpha, budget: alpha + (budget - off) / t)


def _parameter(value, ok, rule):
    """A comparator parameter as a Python float, or as a float array whose
    entries the comparator takes one each; raises ValueError(rule(v)) for
    the first entry v that fails ok (NaN fails every rule)."""
    arr = np.asarray(value, dtype=float)
    good = ok(arr)
    if not good.all():
        raise ValueError(rule(float(arr[~good].flat[0])))
    return float(arr) if arr.ndim == 0 else arr


def catoni(gamma):
    """gamma q - ln(1 - p + p e^gamma), the Bernoulli CGF line at s = gamma;
    nondecreasing in p for gamma < 0.  gamma may be an array."""
    gamma = _parameter(gamma, lambda g: (0.0 < np.abs(g)) & (np.abs(g) < 709.0),
                       lambda g: f"catoni needs 0 < |gamma| < 709, got {g}")
    eg = np.expm1(gamma)
    return _cgf_line("catoni", fam.bernoulli(), gamma, {"gamma": gamma},
                     lambda alpha, budget: (
                         np.expm1(gamma * alpha - budget) / eg).clip(0.0, 1.0))


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
    """(1 - e^{-t}) p - t q, the Poisson CGF line at s = -t; t may be an
    array."""
    t = _parameter(t, lambda v: v > 0.0,
                   lambda v: f"poisson_diff needs t > 0, got {v}")
    c = -np.expm1(-t)
    return _cgf_line("poisson_diff", fam.poisson(), -t, {"t": t},
                     lambda alpha, budget: (t * alpha + budget) / c)


def laplace_diff(t, b):
    """t (p - q) + ln(1 - b^2 t^2), the Laplace(b) CGF line at s = -t; t
    may be an array."""
    top = 1.0 / b if b > 0.0 else 0.0     # no t passes a bad b
    t = _parameter(t, lambda v: (0.0 < v) & (v < top),
                   lambda v: f"laplace_diff needs 0 < t < 1/b, got t={v}, b={b}")
    return _location_line("laplace_diff", fam.laplace(b), t, {"t": t, "b": b})


def gaussian_diff(t, sigma2):
    """t (p - q) - sigma^2 t^2 / 2, the Gaussian(sigma^2) CGF line at s = -t;
    t may be an array."""
    good_sigma2 = 0.0 < sigma2 < math.inf
    t = _parameter(t, lambda v: (v > 0.0) & good_sigma2,
                   lambda v: "gaussian_diff needs t > 0 and sigma2 in (0, inf), "
                             f"got t={v}, sigma2={sigma2}")
    return _location_line("gaussian_diff", fam.gaussian(sigma2), t,
                          {"t": t, "sigma2": sigma2})


def custom(eval_fn, loss_range, form="custom", params=None):
    """A caller's Delta(q, p) as a comparator that need not take arrays: its
    fn is conjugate.cellwise over eval_fn, so a cell that raises ValueError
    or OverflowError is +inf and one that raises TypeError propagates."""
    return Comparator(form, functools.partial(cellwise, eval_fn), loss_range,
                      params or {})


# -- budgets and results ---------------------------------------------------

def check_delta(delta):
    """Raise ValueError unless delta is None or lies in (0, 1)."""
    if delta is not None and not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def check_nonnegative(value, name):
    """Raise ValueError unless value is finite and at least 0."""
    if not 0.0 <= value < math.inf:
        rule = "nonnegative and finite" if value >= 0.0 else "nonnegative"
        raise ValueError(f"{name} must be {rule}, got {value}")


def check_n(value, name="n", least=1):
    """The count value as an int made from value itself (100.0 is 100), an
    array as given; ValueError unless each is a finite integer of at least
    `least`."""
    nn = np.asarray(value, dtype=float)
    ok = (nn >= least) & (nn < math.inf) & (np.floor(nn) == nn)
    if not ok.all():
        got = np.asarray(value)[~ok].flat[0]
        rule = f"at least {least}"
        if got >= least:
            rule += " and a finite integer"
        raise ValueError(f"{name} must be {rule}, got {got}")
    return value if nn.ndim else int(value)


def budget(beta, n, delta=None, ln_iota=0.0):
    """(beta + ln_iota - ln delta)/n, the budget a bound is inverted at:
    ln_iota is the union correction ln(iota) in nats, delta None the
    average-case operator.  beta, n and ln_iota may be arrays; ValueError
    unless beta is finite and at least 0, ln_iota finite, n passes check_n
    and delta check_delta, in that order."""
    if not np.all(np.isfinite(beta) & (np.asarray(beta) >= 0.0)):
        raise ValueError("beta must be finite and nonnegative, got "
                         f"{np.asarray(beta)}")
    if not np.all(np.isfinite(ln_iota)):
        raise ValueError(f"ln_iota must be finite, got {np.asarray(ln_iota)}")
    n = check_n(n)
    check_delta(delta)
    out = np.add(beta, ln_iota)     # beta or n may be a list
    if delta is not None:
        out -= math.log(delta)
    return out / n


@dataclass
class BoundResult:
    """An inversion's answer: Python floats (status a name) for a 0-d query,
    arrays of the query's shape (status an array of names) otherwise."""
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
_STEPS = 8      # a closed form moves down at most 1 + 2 + ... + 128 ulps
_TOL = 1e-9     # bracket width at which bisection stops: absolute on a
                # bounded range, relative to max(1, |lo|) on an unbounded one


def _cells(alpha, budget):
    """alpha and budget as broadcast float arrays; ValueError unless every
    budget is finite."""
    alpha, budget = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                        np.asarray(budget, dtype=float))
    if not np.all(np.isfinite(budget)):
        raise ValueError(f"budget must be finite, got {budget}")
    return alpha, budget


def _bisect(comp, alpha, budget, losses=None):
    """sup{rho : comp(alpha, rho) <= budget} over broadcast arrays.

    The package's only bisection, and the only reader of exact_inverse:
    after the alpha checks, the budget_nonpositive rule and the monotonicity
    probe, a closed form solves the cells still open, its root moved down
    until feasible (lo = hi, 0 iterations); on a range unbounded above, a
    root of +inf is no finite bound at once (hi = +inf); a root NaN, +inf
    on a bounded range, or infeasible after _STEPS steps, is bisected.
    Returns (rho, lo, hi, iterations, status) arrays; status indexes
    _STATUSES, and rho is the feasible endpoint lo (the domain end when
    capped, NaN when no finite bound exists), so a reported bound never
    overestimates the supremum.  Each step calls the comparator once on the
    whole array; a cell that is +inf or NaN fails every comparison made
    here: it is infeasible.

    Settle mode, given losses that broadcast to alpha and budget: returns
    only the booleans losses > rho.  Once the bracket exists, a cell stops
    as soon as its loss leaves (lo, hi], as lo is feasible and hi is not,
    and the loop ends once no cell is open.  An open cell takes the same
    steps as when converged, so the booleans are those of the converged rho.
    """
    alpha, budget = _cells(alpha, budget)
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
    e0 = comp.eval(alpha, alpha)
    status = np.where(budget <= np.where(np.isfinite(e0), e0, 0.0),
                      _NONPOSITIVE, _CONVERGED)
    todo = status == _CONVERGED

    # three-point probe of the nondecreasing-in-rho requirement
    d = (hi_r - alpha) / 8.0 if bounded else np.maximum(np.abs(alpha), 1.0) * 0.5
    probe = todo & (d > 0)
    if probe.any():
        vals = [comp.eval(alpha, alpha + k * d) for k in (1, 2, 3)]
        with np.errstate(invalid="ignore"):    # inf - inf
            for a, b in zip(vals, vals[1:]):
                bad = probe & (b < a - 1e-12 * np.maximum(1.0, np.abs(a)))
                if bad.any():
                    raise NonMonotoneComparator(
                        f"{comp.form} is decreasing in rho near "
                        f"alpha={float(alpha[bad][0])}")

    endless = np.zeros(alpha.shape, dtype=bool)
    if comp.exact_inverse is not None and todo.any():
        # the root in [alpha, hi_r], down 1, 2, 4, ... ulps until feasible
        with np.errstate(all="ignore"):     # a NaN root is bisected
            root = comp.exact_inverse(alpha, budget)
        if not bounded:     # a +inf root: no rho exceeds the budget
            endless = todo & (root == math.inf)
            status[endless] = _NO_FINITE
            todo &= ~endless
        closed = todo & np.isfinite(root)
        root = np.where(closed, np.clip(root, alpha, hi_r), alpha)
        ulp = np.spacing(np.maximum(np.abs(root), 1.0))
        for k in range(_STEPS + 1):
            short = closed & ~(comp.eval(alpha, root) <= budget)
            if k == _STEPS or not short.any():
                break
            root = np.where(short, np.maximum(root - ulp * 2**k, alpha), root)
        closed &= ~short
        lo, hi = np.where(closed, root, lo), np.where(closed, root, hi)
        status[closed & (root == hi_r)] = _CAPPED
        todo &= ~closed

    if bounded and todo.any():
        hi[todo] = hi_r
        capped = todo & (comp.eval(alpha, hi) <= budget)
        status[capped] = _CAPPED
        todo &= ~capped
    elif todo.any():
        hi[todo] = np.maximum(alpha[todo], 1e-12)
        grow = todo & (comp.eval(alpha, hi) <= budget)
        doublings = 0
        while grow.any():
            lo = np.where(grow, hi, lo)
            hi = np.where(grow, hi * 2.0, hi)
            doublings += 1
            if doublings > _MAX_DOUBLINGS:
                status[grow] = _NO_FINITE
                todo &= ~grow
                break
            grow &= comp.eval(alpha, hi) <= budget

    if losses is not None:
        loss = np.broadcast_to(np.asarray(losses, dtype=float), alpha.shape)
    while True:
        mid = 0.5 * (lo + hi)
        scale = 1.0 if bounded else np.maximum(1.0, np.abs(lo))
        todo &= (hi - lo > _TOL * scale) & (lo < mid) & (mid < hi)
        if losses is not None:      # settled: lo is feasible, hi is not
            todo &= (lo < loss) & (loss <= hi)
        if not todo.any():
            break
        feasible = comp.eval(alpha, mid) <= budget
        lo = np.where(todo & feasible, mid, lo)
        hi = np.where(todo & ~feasible, mid, hi)
        iterations += todo

    rho = np.where(status == _CAPPED, hi, lo)
    rho[status == _NO_FINITE] = math.nan
    hi[endless] = math.inf
    if losses is not None:
        return loss > rho
    return rho, lo, hi, iterations, status


def no_finite_bound(what, budget, hi):
    """The NoFiniteBound of `what` at a budget that no rho up to _bisect's
    hi exceeds: +inf from a closed form, else the last bracket doubling."""
    how = ("at any finite rho" if hi == math.inf
           else f"after {_MAX_DOUBLINGS} bracket doublings")
    return NoFiniteBound(f"{what}: budget {budget} not exceeded {how}")


def _result(fields, budget, no_finite, param_star=None):
    """The BoundResult of _bisect's (rho, lo, hi, iterations, status) at a
    budget that broadcasts to rho: for a 0-d query Python floats, raising
    no_finite() if there is no finite bound; otherwise arrays, with rho NaN
    in each cell that has none."""
    rho, lo, hi, iterations, status = fields
    if np.ndim(rho):
        return BoundResult(rho, np.broadcast_to(budget, rho.shape), (lo, hi),
                           iterations, np.array(_STATUSES)[status], param_star)
    if status == _NO_FINITE:
        raise no_finite()
    return BoundResult(float(rho), float(budget), (float(lo), float(hi)),
                       int(iterations), _STATUSES[status],
                       None if param_star is None else float(param_star))


def invert(comp, alpha, budget):
    """sup{rho in the loss range : comp(alpha, rho) <= budget} by one
    _bisect over broadcast alpha and budget, a closed form included; a 0-d
    query raises NoFiniteBound where an array query has NaN rho."""
    fields = _bisect(comp, alpha, budget)
    return _result(fields, budget, lambda: no_finite_bound(
        comp.form, float(budget), float(fields[2])))


# -- one-parameter infima --------------------------------------------------

def infimum_over_parameter(make_comp, alpha, budget, param_range):
    """min over a parameter of the inverted bound, cell by cell over
    invert's broadcast (alpha, budget), by grid scan + argmax_zoom.

    For caller-supplied comparator families, and the test oracle of the
    built-in parametric-infimum kinds, which bounds evaluates by their kl or
    Cramer identity.  make_comp maps an array of parameter values to one
    Comparator that holds them all (the CGF-line constructors take arrays),
    solved against each cell's (alpha, budget) by one _bisect under invert's
    rules, so a budget that is not finite is refused.  The per-parameter
    bound is assumed quasiconvex on param_range, whose ends must be finite
    and above 0 (in either order); it is scanned at 64 log-spaced points and
    refined by the row-batched argmax_zoom on -rho.  A parameter with no
    finite bound never wins.  One last solve at each cell's winning
    parameter gives the bracket, iterations and status, so a call builds one
    comparator for the scan, one per zoom round and one at the winners.  The
    result is invert's, with param_star: a 0-d query raises NoFiniteBound if
    no parameter gives a finite bound, and an array query has rho and
    param_star NaN in each cell that has none.
    """
    lo, hi = param_range
    if not (0 < lo < math.inf and 0 < hi < math.inf):
        raise ValueError("param_range ends must be finite and above 0, got "
                         f"{param_range}")
    xs = np.linspace(math.log(lo), math.log(hi), 64)
    alpha, budget = _cells(alpha, budget)
    shape = alpha.shape
    alpha, budget = alpha.reshape(-1, 1), budget.reshape(-1, 1)

    def solve(x, cells):        # _bisect's five fields at e^x, a row per cell
        return _bisect(make_comp(np.exp(x)),
                       np.broadcast_to(alpha[cells], x.shape), budget[cells])

    def neg_rho(x, cells):
        rho = solve(x, cells)[0]
        return np.where(np.isnan(rho), -math.inf, -rho)

    vals = neg_rho(np.broadcast_to(xs, (len(alpha), len(xs))),
                   np.arange(len(alpha)))
    live = np.flatnonzero(vals.max(axis=1) > -math.inf)
    x_star = np.full(len(alpha), math.nan)
    got = np.repeat([[math.nan]] * 3 + [[0], [_NO_FINITE]], len(alpha), axis=1)
    if live.size:
        x_star[live] = argmax_zoom(lambda zs, r: neg_rho(zs, live[r]), xs,
                                   vals[live])[0]
        x = x_star[live, None]
        got[:, live] = [f[:, 0] for f in solve(x, live)]
    fields = [f.reshape(shape) for f in (*got[:3], *got[3:].astype(int))]
    return _result(fields, budget.reshape(shape),
                   lambda: NoFiniteBound(f"no parameter in {param_range} "
                                         "yields a finite bound"),
                   np.exp(x_star).reshape(shape))
