"""The comparators in mpmath, read from their params, and rho* = sup{rho :
Delta(alpha, rho) <= budget} to 60 digits: the root a float inversion is
judged against, as a float comparator can call a rho above rho* feasible."""

import math

from mpmath import mp, mpf

from cgfbounds import inversion as inv

DIGITS = 60


def _xlog(x, y):
    return x * mp.log(x / y) if x else mpf(0)


# each family's Cramer function (q, p, nuisance), p inside the mean range
CRAMER = {
    "bernoulli": lambda q, p, v: _xlog(q, p) + _xlog(1 - q, 1 - p),
    "gaussian": lambda q, p, v: (q - p) ** 2 / (2 * v),
    "poisson": lambda q, p, v: _xlog(q, p) - q + p,
    "gamma": lambda q, p, v: v * (q / p - 1 - mp.log(q / p)) if q else mp.inf,
    "laplace": lambda q, p, v: (lambda s: s / v - 1 + mp.log(2 * v / (s + v)))(
        mp.hypot(q - p, v)),
    "invgauss": lambda q, p, v: v / 2 / q * (q / p - 1) ** 2 if q else mp.inf,
    "negbin": lambda q, p, v: _xlog(q, p) - _xlog(q + v, p + v),
}


def form(comp):
    """Delta(q, p) of comp at the working precision of the call; at a closed
    end of a family's mean range the member is the point mass at p."""
    par = {k: mpf(v) for k, v in comp.params.items() if type(v) is float}
    if "family" in comp.params:         # cramer_of and binary_kl
        family = comp.params["family"]
        fn, v = CRAMER[family.kind], mpf(family.nuisance or 0)
        return lambda q, p: ((0 if q == p else mp.inf)
                             if p in family.mean_domain else fn(q, p, v))
    if comp.form == "catoni":
        return lambda q, p: par["gamma"] * q - mp.log1p(
            p * mp.expm1(par["gamma"]))
    t = par["t"]
    off = {"poisson_diff": 0, "scaled_diff": 0,
           "laplace_diff": mp.log(1 - (par.get("b", 0) * t) ** 2),
           "gaussian_diff": -par.get("sigma2", 0) * t * t / 2}[comp.form]
    slope = -mp.expm1(-t) if comp.form == "poisson_diff" else t
    return lambda q, p: slope * p - t * q + off


def supremum(comp, alpha, budget, rho=math.nan):
    """rho*: alpha if Delta(alpha, alpha) >= budget, a bounded range's top or,
    unbounded, mp.inf if Delta is within budget up to the engine's last
    bracket doubling, else the root by a Newton step from the float rho and
    secant steps after it, on sqrt(Delta) where Delta(alpha, alpha) = 0
    (Delta ~ (p - alpha)^2), each step leaving the bracket bisected instead,
    in log(p - alpha) while far.  A budget of 10^-k takes k more digits."""
    bounded = math.isfinite(comp.loss_range[1])
    top = (comp.loss_range[1] if bounded
           else max(alpha, 1e-12) * 2.0 ** inv._MAX_DOUBLINGS)
    with mp.workdps(DIGITS + 20 + max(0, -math.floor(math.log10(budget)))):
        delta, a, b = form(comp), mpf(alpha), mpf(budget)
        if delta(a, a) >= b:
            return a
        g = ((lambda p: delta(a, p) - b) if delta(a, a) < 0 else
             (lambda p: mp.sqrt(delta(a, p)) - mp.sqrt(b)))
        lo, hi, tol = a, mpf(top), mpf(10) ** -DIGITS
        if g(hi) <= 0:
            return hi if bounded else mp.inf
        x, last = (mpf(rho) if lo <= rho < hi else None), None
        for _ in range(2000):
            if x is None:
                x = (a + (hi - a) * mpf(2) ** -32 if lo == a else
                     a + mp.sqrt((lo - a) * (hi - a)) if hi - a > 4 * (lo - a)
                     else (lo + hi) / 2)
            gx = g(x)
            lo, hi = (x, hi) if gx <= 0 else (lo, x)
            slope = (0 if not mp.isfinite(gx) else
                     mp.diff(g, x, direction=1) if last is None else
                     (gx - last[1]) / (x - last[0]))
            step, last = (gx / slope if slope > 0 else mp.inf), (x, gx)
            if min(hi - lo, abs(step)) <= tol * max(1, abs(x)):
                return x
            x = x - step if lo < x - step < hi else None
    raise ArithmeticError(f"no root for alpha={alpha}, budget={budget}")
