"""The moment quantity Upsilon_Delta(n) = sup_r E exp(n Delta(xbar, r)).

Routes: 0 for a family's own CGF line, the Shtarkov sum for the Bernoulli
Cramer comparator (one O(n) log-sum-exp, no r); otherwise the route that
the family's record in families._LAWS names: exact binomial sums on an
r-grid (Bernoulli), truncated series with a divergence certificate
(Poisson), log-domain quadrature of the record's closed density of the
sample mean (Gaussian, gamma, inverse Gaussian), or Monte Carlo with a
delta-method 95% interval.  Also houses the union-bound corrections that
substitute for Upsilon when it diverges.  All values are in log domain.
Every route takes n through inversion.check_n, so n = 20.0 is the count 20.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._special import gammaln, logsumexp, xlog1py, xlogy
from .conjugate import argmax_zoom
from .families import bernoulli, poisson
from .inversion import check_n, check_nonnegative
from .rng import check_seed, make_generator

_LN2 = math.log(2.0)
_CHUNK = 4096       # series terms per step of the Poisson route
# elements per block of the Bernoulli grid and Monte Carlo: it bounds the
# memory of a block; every row is reduced on its own, so the block size
# changes no value
_BLOCK = 2**15
_SERIES_EPS = 1e-10           # relative tail at which a Poisson series stops
_SERIES_MAX_TERMS = 10**6     # Poisson series terms before giving up at one r
_SERIES_LN_CAP = 30.0         # divergent: a Poisson partial sum above e^30,
_SLOW_RUN = 10**4             # a run of 10^4 slow term ratios past k = 10^4,
_QUAD_TAIL_NATS = 60.0        # quadrature tails less than 60 nats below peak
_QUAD_POINTS = 4001           # fine-grid points around the quadrature peak
_Z95 = 1.959963984540054      # the 97.5% normal quantile


@dataclass
class UpsilonEstimate:
    mode: str                   # exact | truncated | monte_carlo | divergent
    value: float                # ln Upsilon; +inf when mode = divergent
    tail_error: float | None = None
    ci: tuple | None = None
    r_star: float | None = None
    r_at_cap: bool = False
    divergent_suspect: bool = False


def _r_grid(family, r_grid, points, first=1e-6):
    """The r grid of a numeric route: r_grid as a float array, or for None
    the route's default of `points` points over the family's mean domain:
    evenly spaced 1e-6 of the width inside a bounded one, geometric from
    `first` to 50 on (0, inf), evenly spaced on [-10, 10] otherwise.
    ValueError unless r_grid is 1-d, nonempty and inside the open mean
    domain (NaN and +-inf never are)."""
    lo, hi = family.mean_domain
    if r_grid is None:
        if math.isfinite(hi):
            return np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo),
                               points)
        if lo == 0.0:
            return np.geomspace(first, 50.0, points)
        return np.linspace(-10.0, 10.0, points)
    rs = np.asarray(r_grid, dtype=float)
    if not (rs.ndim == 1 and rs.size and ((rs > lo) & (rs < hi)).all()):
        raise ValueError(f"r grid must be a nonempty 1-d grid interior to "
                         f"the mean domain ({lo}, {hi}) of {family.kind}, "
                         f"got {r_grid!r}")
    return rs


# -- Bernoulli: exact binomial sums -----------------------------------------

def _ln_binom(n):
    """(k, ln C(n, k)) for k = 0..n."""
    ks = np.arange(n + 1)
    return ks, gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)


def upsilon_shtarkov_bernoulli(n):
    """ln sum_k C(n,k) (k/n)^k (1-k/n)^{n-k}: Upsilon of the binary kl.

    For an exponential family P_r(S = s) e^{n Lambda*(s/n, r)} = P_{s/n}(S = s)
    at every r, so the Bernoulli Cramer comparator's Upsilon is this
    Shtarkov sum, with nothing to maximize over r (Shtarkov, Universal
    sequential coding of single messages, 1987).  It is ln 2 at n = 1 and at
    most ln(2 sqrt(n)), the mls correction (Maurer, A note on the PAC
    Bayesian theorem, 2004).  The terms use the 0 ln 0 = 0 convention.
    """
    n = check_n(n)
    ks, ln_binom = _ln_binom(n)
    qs = ks / n
    return UpsilonEstimate("exact", float(logsumexp(
        ln_binom + xlogy(ks, qs) + xlog1py(n - ks, -qs))))


def upsilon_bernoulli_exact(comp, n, r_grid=None):
    """ln sup_r sum_k C(n,k) r^k (1-r)^{n-k} e^{n Delta(k/n, r)}, exactly.

    The route for every Bernoulli comparator but the Cramer one, which
    compute_upsilon sends to upsilon_shtarkov_bernoulli; for that one this
    function is the test oracle.  The sum is evaluated in log domain on an
    interior r-grid (_r_grid's, 2001 points by default) as one (r, k)
    log-sum-exp, the comparator called once on the (r, k) grid.  The best
    grid r is refined by argmax_zoom, each round a small batch of rows of
    the same sum; the endpoint values r in {0, 1} (degenerate means) are
    included via the 0 ln 0 convention.  Raises ValueError if the comparator
    is not finite at some r of the grid (a custom comparator's raising cell
    is +inf).
    """
    n = check_n(n)
    ks, ln_binom = _ln_binom(n)
    qs = ks / n

    def ln_values(rs):
        col = rs[:, None]
        ln_pmf = ln_binom + xlogy(ks, col) + xlog1py(n - ks, -col)
        d = comp.eval(qs, col)
        finite = np.isfinite(d).all(axis=1)
        if not finite.all():
            raise ValueError("comparator not finite on [0,1] at "
                             f"r={rs[np.argmin(finite)]}")
        return logsumexp(ln_pmf + n * d, axis=-1)

    rs = np.sort(_r_grid(bernoulli(), r_grid, 2001))
    rows = max(1, _BLOCK // (n + 1))
    vals = np.concatenate([ln_values(rs[j:j + rows])
                           for j in range(0, len(rs), rows)])
    r_star, best = argmax_zoom(lambda zs, _: ln_values(zs[0])[None], rs,
                               vals[None])
    r_star, best = float(r_star[0]), float(best[0])
    for r_end in (0.0, 1.0):
        d = float(comp.eval(r_end, r_end))
        if math.isfinite(d) and n * d > best:
            best, r_star = n * d, r_end
    return UpsilonEstimate("exact", best, r_star=r_star)


# -- r-grid scan shared by the series and quadrature routes -----------------

def _at_cap(family, rs, r_star):
    """Whether r_star is the last of two or more grid points, on a mean
    domain unbounded above, so a larger r might give more."""
    return (len(rs) > 1 and r_star == float(rs[-1])
            and not math.isfinite(family.mean_domain[1]))


def _scan_r_grid(family, rs, one_r):
    """The best ln value over rs of a route that reports a relative tail.

    one_r(r) returns (ln_value, tail), or None when the sum or integral is
    divergent at r, which ends the scan.  tail_error is the worst tail over
    the grid, NaN once any tail is not finite; r_at_cap is _at_cap.
    """
    best, best_r, worst_tail = -math.inf, None, 0.0
    for r in rs:
        out = one_r(float(r))
        if out is None:
            return UpsilonEstimate("divergent", math.inf, r_star=float(r))
        ln_v, tail = out
        if ln_v > best:
            best, best_r = ln_v, float(r)
        worst_tail = max(worst_tail, tail) if math.isfinite(tail) else math.nan
    return UpsilonEstimate("truncated", best, tail_error=worst_tail,
                           r_star=best_r, r_at_cap=_at_cap(family, rs, best_r))


# -- Poisson: truncated series with divergence certificate ------------------


def _series_one_r(comp, n, r, ln_fact):
    """Returns (ln_sum, rel_tail) or None when certified divergent at this r.

    ln_fact maps a chunk start to ln k! over that chunk, shared by every r.
    """
    lam = n * r
    ln_lam = math.log(lam)
    ln_sum = -math.inf
    slow_run = 0
    k0 = 0
    prev_ln_last = None
    while k0 < _SERIES_MAX_TERMS:
        ks = np.arange(k0, k0 + _CHUNK)
        if k0 not in ln_fact:
            ln_fact[k0] = gammaln(ks + 1.0)
        ln_t = -lam + ks * ln_lam - ln_fact[k0] + n * comp.eval(ks / n, r)
        ln_sum = np.logaddexp(ln_sum, logsumexp(ln_t))
        if ln_sum > _SERIES_LN_CAP:
            return None
        # certificate: a long run of term ratios inside (1 - 1/(k+1), 1] means
        # the terms decay, but slower than any summable power tail; growing
        # ratios are left to the partial-sum cutoff above
        dln = np.diff(np.concatenate(([prev_ln_last], ln_t)) if prev_ln_last
                      is not None else ln_t)
        slow = (dln > np.log1p(-1.0 / (ks[-len(dln):] + 1.0))) & (dln <= 0.0)
        if slow.all():
            slow_run += len(slow)
        else:
            last_fast = np.flatnonzero(~slow)[-1]
            slow_run = len(slow) - 1 - last_fast
        if k0 >= _SLOW_RUN and slow_run >= _SLOW_RUN:
            return None
        ratio = float(np.exp(dln[-1]))
        if ks[-1] > lam and ratio < 1.0:
            ln_tail = float(ln_t[-1]) + math.log(ratio / (1.0 - ratio))
            if ln_tail <= math.log(_SERIES_EPS) + ln_sum:
                return float(ln_sum), float(math.exp(ln_tail - ln_sum))
        prev_ln_last = float(ln_t[-1])
        k0 += _CHUNK
    return float(ln_sum), math.nan


def upsilon_poisson_series(comp, n, r_grid=None):
    """Series evaluation of Upsilon over the Poisson family.

    Sums Poisson(nr) mass times e^{n Delta(k/n, r)} per grid r until the
    geometric tail drops below _SERIES_EPS of the sum.  Declares divergence
    when the partial sum passes e^_SERIES_LN_CAP (e^30) or when _SLOW_RUN
    (10^4) consecutive term ratios exceed 1 - 1/(k+1) beyond k = _SLOW_RUN
    (sub-summable decay, the Stirling k^{-1/2} signature).
    """
    n = check_n(n)
    rs = _r_grid(poisson(), r_grid, 121)
    ln_fact = {}
    return _scan_r_grid(poisson(), rs,
                        lambda r: _series_one_r(comp, n, r, ln_fact))


# -- quadrature of a closed mean density (gaussian, gamma, invgauss) -------

def _ln_integrand(comp, family, n, r, xs):
    """ln of the mean's density times e^{n Delta(x, r)} at xs, NaN as -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lnh = family.law.ln_pdf_mean(r, n, xs, family.nuisance)
    lnh = lnh + n * comp.eval(xs, r)
    return np.where(np.isnan(lnh), -math.inf, lnh)


def _ln_trapz(lnh, xs):
    seg = np.logaddexp(lnh[:-1], lnh[1:]) - _LN2 + np.log(np.diff(xs))
    return float(logsumexp(seg))


def _quad_one_r(comp, family, n, r):
    linear = family.mean_domain[0] == -math.inf   # gaussian's; else geometric
    if linear:
        sd = math.sqrt(family.nuisance / n)
        coarse = np.linspace(r - 60.0 * math.sqrt(family.nuisance) - 60.0 * sd,
                             r + 60.0 * math.sqrt(family.nuisance) + 60.0 * sd, 2001)
    else:
        coarse = np.geomspace(r * 1e-9, r * 1e9, 2001)
    lnh_c = _ln_integrand(comp, family, n, r, coarse)
    ipk = int(np.argmax(lnh_c))
    peak = float(lnh_c[ipk])
    if max(float(lnh_c[0]), float(lnh_c[-1])) > peak - _QUAD_TAIL_NATS:
        return None  # tails refuse to decay: integral effectively divergent
    if linear:
        w = max(10.0 * sd, 10.0 * (coarse[1] - coarse[0]))
        fine = np.linspace(coarse[ipk] - w, coarse[ipk] + w, _QUAD_POINTS)
    else:
        fine = np.geomspace(coarse[ipk] * math.exp(-3.0),
                            coarse[ipk] * math.exp(3.0), _QUAD_POINTS)
    xs = np.unique(np.concatenate((coarse, fine)))
    lnh = _ln_integrand(comp, family, n, r, xs)
    if np.isposinf(lnh).any():     # Delta = +inf where xbar has mass
        return None
    total = _ln_trapz(lnh, xs)
    # relative weight of the outermost tail segments, as a quality estimate
    tail = np.exp(max(_ln_trapz(lnh[:20], xs[:20]),
                      _ln_trapz(lnh[-20:], xs[-20:])) - total)
    return total, tail


def upsilon_quadrature(comp, family, n, r_grid=None):
    """Quadrature of E e^{n Delta(xbar, r)} for families with a closed mean density.

    Detects divergence when the log integrand is +inf on the grid, which
    holds every coarse point, or fails to decay by _QUAD_TAIL_NATS (60) nats
    at the extreme ends of that wide coarse grid (for the Cramer comparators
    of the gamma family the integrand behaves like 1/x at both ends).
    """
    n = check_n(n)
    if family.law.ln_pdf_mean is None:
        raise ValueError(f"no closed mean density for {family.kind}")
    rs = _r_grid(family, r_grid, 41)
    return _scan_r_grid(family, rs, lambda r: _quad_one_r(comp, family, n, r))


# -- Monte Carlo -------------------------------------------------------------

def upsilon_monte_carlo(comp, family, n, r_grid=None, samples=10**5, seed=0):
    """Sample-mean Monte Carlo estimate of ln sup_r E e^{n Delta(xbar, r)}.

    Per-r streams are keyed by (seed, r-index) so the result is independent
    of evaluation order.  ci is value +- _Z95 sd / (mean sqrt(samples)) of
    e^{w - max w} at the maximizing r: the normal 95% interval of the mean
    weight, carried to the log scale by the delta method, which carries no
    information once the relative standard error of the mean weight nears
    1: the negbin(2) Cramer comparator at n = 10, samples = 10**4 and seed 0
    gives value 3.98, ci (2.07, 5.88), divergent_suspect False.  Each r's draws
    are made into one buffer of whole rows, about _BLOCK elements, which
    bounds the draw memory; a stream does not depend on how its draws are
    split and each row's mean is taken on its own, so the block size changes
    no value.  At most three arrays of samples floats are alive at once (the
    best r's weights, this r's means or weights, one temporary) and one
    draw block, so memory grows with samples, not with samples x n.  The
    divergent_suspect flag fires when the estimate still grows across
    sample-size prefixes and the top 1% of draws carries more than half the
    total weight.  samples must be at least 4, one per sample-size prefix.
    """
    n = check_n(n)
    samples = check_n(samples, "samples", least=4)
    rs = _r_grid(family, r_grid, 21, first=1e-3)

    def ln_mean_exp(w):
        return float(logsumexp(w) - math.log(len(w)))

    best, best_r, best_w = -math.inf, None, None
    rows = max(1, _BLOCK // n)
    for idx, r in enumerate(rs):
        rng = make_generator(seed, idx)
        means = np.empty(samples)
        block = np.empty(rows * n)      # freed before the weights are taken
        for j in range(0, samples, rows):
            k = min(rows, samples - j)
            family._draw(float(r), k * n, rng, block[:k * n]).reshape(
                k, n).mean(axis=1, out=means[j:j + k])
        del block
        w = comp.eval(means, float(r))
        del means
        w = n * w       # a fresh array, whatever view eval returned
        if np.isposinf(w).any():    # Delta = +inf where xbar has mass
            return UpsilonEstimate("divergent", math.inf, r_star=float(r))
        v = ln_mean_exp(w)
        if v > best:
            best, best_r, best_w = v, float(r), w
        del w

    expw = best_w - np.max(best_w)      # e^{w - max w}, made in place
    np.exp(expw, out=expw)
    half = _Z95 * float(expw.std(ddof=1) / expw.mean()) / math.sqrt(samples)
    del expw
    ci = (best - half, best + half)

    quarters = [ln_mean_exp(best_w[: samples * j // 4]) for j in (1, 2, 3, 4)]
    best_w.sort()       # in place, after the prefixes in draw order
    top = max(1, samples // 100)
    share = math.exp(logsumexp(best_w[-top:]) - logsumexp(best_w))
    growing = all(b > a for a, b in zip(quarters, quarters[1:]))
    return UpsilonEstimate("monte_carlo", best, ci=ci, r_star=best_r,
                           r_at_cap=_at_cap(family, rs, best_r),
                           divergent_suspect=bool(growing and share > 0.5))


# -- dispatcher and corrections ----------------------------------------------

def cramer_divergence(family):
    """Why Upsilon of the family's own Cramer comparator is infinite, or None.

    For an exponential family P_r(S = s) e^{n Lambda*(s/n, r)} = P_{s/n}(S = s),
    so Upsilon is the Shtarkov sum over s at every r: finite exactly when
    the mean domain is bounded, which among these families is Bernoulli's
    alone, where compute_upsilon sums it (upsilon_shtarkov_bernoulli).  The
    Laplace location family is not exponential, but its integrand falls
    only like 1/|d| in the deviation d.
    """
    if not family.law.exponential:
        return "its integrand falls only like 1/|d| in the deviation d"
    if math.isfinite(family.mean_domain[1]):
        return None
    return ("it is the Shtarkov sum, infinite on the unbounded mean domain "
            f"of {family.kind}")


def compute_upsilon(comp, family, n, seed=0, samples=10**5):
    """Route a (comparator, family) pair to its best Upsilon evaluation.

    Two identities need no r-grid.  Over Bernoulli a family's own Cramer
    comparator (binary_kl included) is the Shtarkov sum, mode exact with
    r_star None; over any other family it is mode divergent
    (cramer_divergence).  A family's own CGF line s q - K_p(s)
    (params["cgf_line"]) has E e^{n (s xbar - K_r(s))} = 1 at every r: ln
    Upsilon = 0, mode exact.  Every other pair takes its route on the
    route's default r grid; seed and samples apply to the Monte-Carlo
    route, but are checked first whatever the route.  n is a count, made an
    int by inversion.check_n; ValueError too if samples is below 4, a seed
    is no integer or the comparator's loss range does not cover the
    family's mean domain.
    """
    n = check_n(n)
    samples = check_n(samples, "samples", least=4)
    seed = check_seed(seed)
    (c_lo, c_hi), (f_lo, f_hi) = comp.loss_range, family.mean_domain
    if not (c_lo <= f_lo and f_hi <= c_hi):
        raise ValueError(f"comparator {comp.form} has loss range "
                         f"[{c_lo}, {c_hi}], which does not cover the mean "
                         f"domain ({f_lo}, {f_hi}) of the {family.kind} family")
    p = comp.params
    if p.get("family") == family:
        if cramer_divergence(family):
            return UpsilonEstimate("divergent", math.inf)
        return upsilon_shtarkov_bernoulli(n)
    if p.get("cgf_line") == (comp.form, family) or (
            comp.form == "scaled_diff" and p.get("t") == 0.0):
        return UpsilonEstimate("exact", 0.0)
    route = family.law.upsilon
    if route == "binomial":
        return upsilon_bernoulli_exact(comp, n)
    if route == "series":
        return upsilon_poisson_series(comp, n)
    if route == "quadrature":
        return upsilon_quadrature(comp, family, n)
    return upsilon_monte_carlo(comp, family, n, samples=samples, seed=seed)


def correction_xi(n_times_trainloss, kl):
    """The union-bound correction pi^2 (1 + min{n L, KL})^2 / 3; broadcasts."""
    if not (np.min(n_times_trainloss) >= 0.0 and np.min(kl) >= 0.0):
        raise ValueError("correction_xi needs n L >= 0 and KL >= 0, got "
                         f"{np.min(n_times_trainloss)} and {np.min(kl)}")
    m = np.minimum(n_times_trainloss, kl)
    return math.pi ** 2 * (1.0 + m) ** 2 / 3.0


def correction_two_e_ceil(u_value):
    """The union-bound correction 2 e ceil(u); u below 1 still pays one cell."""
    check_nonnegative(u_value, "u")
    return 2.0 * math.e * max(1, math.ceil(u_value))
