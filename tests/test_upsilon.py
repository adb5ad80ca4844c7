import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

import cgfbounds as cb
from cgfbounds import families as fam
from cgfbounds import inversion as inv
from cgfbounds import upsilon as ups
from cgfbounds._special import gammaln, logsumexp, xlog1py, xlogy
from cgfbounds.conjugate import argmax_zoom
from cgfbounds.rng import make_generator


def kl_flat_sum(n):
    """ln sum_k C(n,k) (k/n)^k (1-k/n)^{n-k}; the r-free form of Upsilon_kl(n)."""
    ks = np.arange(n + 1)
    terms = (special.gammaln(n + 1) - special.gammaln(ks + 1)
             - special.gammaln(n - ks + 1)
             + special.xlogy(ks, ks / n) + special.xlog1py(n - ks, -(ks / n)))
    return float(special.logsumexp(terms))


# -- Bernoulli exact route -----------------------------------------------------

def test_upsilon_kl_n1_is_two():
    est = ups.upsilon_bernoulli_exact(inv.binary_kl(), 1)
    assert est.mode == "exact"
    assert est.value == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 7, 20, 81])
def test_upsilon_kl_equals_flat_sum(n):
    # r cancels term by term, so any grid resolution gives the same number
    est = ups.upsilon_bernoulli_exact(inv.binary_kl(), n,
                                      r_grid=np.linspace(1e-6, 1 - 1e-6, 11))
    assert est.value == pytest.approx(kl_flat_sum(n), abs=1e-9)


def test_catoni_bernoulli_enumeration_is_one():
    est = ups.upsilon_bernoulli_exact(inv.catoni(-1.0), 12,
                                      r_grid=np.linspace(1e-6, 1 - 1e-6, 31))
    assert abs(est.value) <= 1e-10


def exact_by_loop(comp, n, r_grid):
    """The Bernoulli route one r at a time: per-r sums, then the same polish."""
    ks = np.arange(n + 1)
    ln_binom = gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)

    def ln_value(r):
        ln_pmf = ln_binom + xlogy(ks, r) + xlog1py(n - ks, -r)
        d = np.array([float(comp.eval(float(k / n), r)) for k in ks])
        return float(logsumexp(ln_pmf + n * d))

    rs = np.sort(np.asarray(r_grid, dtype=float))
    vals = np.array([ln_value(r) for r in rs])
    r_star, best = argmax_zoom(
        lambda zs, rows: np.array([[ln_value(r) for r in zs[0]]]),
        rs, vals[None])
    r_star, best = float(r_star[0]), float(best[0])
    for r_end in (0.0, 1.0):
        v = n * float(comp.eval(r_end, r_end))
        if math.isfinite(v) and v > best:
            best, r_star = v, r_end
    return best, r_star


def scalar_only_kl(q, p):
    if np.ndim(q) or np.ndim(p):
        raise TypeError("scalar arguments only")
    return float(fam.binary_kl(q, p))


BATCH_COMPARATORS = {
    "binary_kl": inv.binary_kl(),
    "scaled_diff": inv.scaled_diff(0.5),
    "catoni": inv.catoni(-1.0),
    "custom": inv.custom(scalar_only_kl, (0.0, 1.0)),
}


@pytest.mark.parametrize("r_grid", [np.linspace(1e-6, 1 - 1e-6, 11),
                                    (0.9, 0.02, 0.37, 0.5, 0.61)],
                         ids=["grid11", "explicit"])
@pytest.mark.parametrize("name", sorted(BATCH_COMPARATORS))
def test_batched_bernoulli_equals_per_r_loop(name, r_grid):
    # every comparator evaluation and sum is the same arithmetic, so the
    # (r, k) grid and its per-row fallback give the loop's numbers exactly
    comp = BATCH_COMPARATORS[name]
    n = 13
    want_value, want_r = exact_by_loop(comp, n, r_grid)
    est = ups.upsilon_bernoulli_exact(comp, n, r_grid)
    assert est.mode == "exact"
    assert est.value == want_value and est.r_star == want_r


def test_bernoulli_rows_do_not_depend_on_block(monkeypatch):
    comp = inv.binary_kl()
    grid = np.linspace(1e-6, 1 - 1e-6, 2001)
    want = ups.upsilon_bernoulli_exact(comp, 40, grid)
    monkeypatch.setattr(ups, "_BLOCK", 7 * 41)
    got = ups.upsilon_bernoulli_exact(comp, 40, grid)
    assert got == want


@pytest.mark.parametrize("name", ["binary_kl", "custom"])
def test_bernoulli_not_finite_names_first_r(name):
    base = BATCH_COMPARATORS[name]
    comp = inv.custom(lambda q, p: base.eval(q, p) / (np.asarray(p) <= 0.5),
                      (0.0, 1.0))
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match=r"not finite .* r=0\.6"):
            ups.upsilon_bernoulli_exact(comp, 4, r_grid=(0.2, 0.6, 0.9))


def test_bernoulli_grid_must_be_interior():
    with pytest.raises(ValueError, match="interior"):
        ups.upsilon_bernoulli_exact(inv.binary_kl(), 4, r_grid=(0.0, 0.5))


# -- Bernoulli Cramer comparator: the Shtarkov sum ----------------------------

SHTARKOV = {"binary_kl": inv.binary_kl(),
            "cramer": inv.cramer_of(fam.bernoulli())}


def test_shtarkov_route_equals_grid_oracle():
    # r cancels term by term, so the grid route at any one interior r is an
    # oracle for every n; the default 2001-point grid checks a few n.
    # cramer_of(bernoulli()) is the same function of (q, p) as binary_kl
    comp, rs = inv.binary_kl(), (0.05, 0.3, 0.5, 0.7, 0.95)
    for n in range(1, 501):
        est = ups.compute_upsilon(comp, fam.bernoulli(), n)
        assert est.mode == "exact" and est.r_star is None
        want = ups.upsilon_bernoulli_exact(comp, n, (rs[n % 5],)).value
        assert abs(est.value - want) <= 1e-12, n
    for n in (1, 2, 7, 50, 500):
        want = ups.upsilon_bernoulli_exact(comp, n).value
        got = ups.compute_upsilon(comp, fam.bernoulli(), n).value
        assert abs(got - want) <= 1e-12, n


@pytest.mark.parametrize("name", sorted(SHTARKOV))
def test_shtarkov_route_builds_no_r_grid(name, monkeypatch):
    comp = SHTARKOV[name]
    want = ups.compute_upsilon(comp, fam.bernoulli(), 30)

    def no_grid(*args, **kwargs):
        raise AssertionError("upsilon_bernoulli_exact was called")

    monkeypatch.setattr(ups, "upsilon_bernoulli_exact", no_grid)
    assert ups.compute_upsilon(comp, fam.bernoulli(), 30) == want
    assert want == ups.upsilon_shtarkov_bernoulli(30)
    assert ups.upsilon_shtarkov_bernoulli(1).value == math.log(2.0)


def test_top_level_binary_kl_is_the_comparator():
    est = cb.compute_upsilon(cb.binary_kl(), cb.bernoulli(), 20)
    assert est.value == pytest.approx(kl_flat_sum(20), abs=1e-9)


def test_compute_upsilon_is_the_one_package_level_route():
    # the package exports the dispatcher; the routes stay in cgfbounds.upsilon
    routes = ("upsilon_bernoulli_exact", "upsilon_poisson_series",
              "upsilon_quadrature", "upsilon_monte_carlo")
    assert callable(cb.compute_upsilon)
    assert not any(hasattr(cb, r) for r in routes)
    assert all(callable(getattr(ups, r)) for r in routes)


@pytest.mark.parametrize("comp,family", [
    (inv.binary_kl(), fam.poisson()),
    (inv.binary_kl(), fam.gaussian(1.0)),
    (inv.cramer_of(fam.bernoulli()), fam.laplace(1.0)),
    (inv.catoni(-1.0), fam.gamma(2.0)),
    (inv.poisson_diff(0.5), fam.gaussian(1.0)),
], ids=lambda x: getattr(x, "form", None) or fam.family_spec(x))
def test_loss_range_must_cover_mean_domain(comp, family, monkeypatch):
    # refused up front, naming both, before any route starts
    for route in ("upsilon_shtarkov_bernoulli", "upsilon_bernoulli_exact",
                  "upsilon_poisson_series", "upsilon_quadrature",
                  "upsilon_monte_carlo"):
        monkeypatch.setattr(ups, route, None)
    with pytest.raises(ValueError, match=rf"comparator {re.escape(comp.form)}"
                       rf" .* does not cover .* {family.kind} family"):
        ups.compute_upsilon(comp, family, 3)


def test_compute_upsilon_rejects_n_below_one():
    # n is a sample size: a fractional one has no binomial sum
    for n in (0, -3, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n must be at least 1"):
            ups.compute_upsilon(inv.binary_kl(), fam.bernoulli(), n)
    assert ups.compute_upsilon(inv.binary_kl(), fam.bernoulli(), 100.0) == \
        ups.compute_upsilon(inv.binary_kl(), fam.bernoulli(), 100)


# route: (comparator, family, compute_upsilon keywords) that takes it at n = 20
ROUTES = {
    "shtarkov": (inv.binary_kl(), fam.bernoulli(), {}),
    "binomial": (inv.scaled_diff(0.5), fam.bernoulli(), {}),
    "series": (inv.scaled_diff(0.05), fam.poisson(), {}),
    "quadrature": (inv.scaled_diff(0.3), fam.gaussian(1.0), {}),
    "monte_carlo": (inv.scaled_diff(0.3), fam.laplace(1.0), {"samples": 1000}),
}


# route: the route's own function, called with what compute_upsilon passes
ROUTE_CALLS = {
    "shtarkov": lambda c, f, n, kw: ups.upsilon_shtarkov_bernoulli(n),
    "binomial": lambda c, f, n, kw: ups.upsilon_bernoulli_exact(c, n),
    "series": lambda c, f, n, kw: ups.upsilon_poisson_series(c, n),
    "quadrature": lambda c, f, n, kw: ups.upsilon_quadrature(c, f, n),
    "monte_carlo": lambda c, f, n, kw: ups.upsilon_monte_carlo(c, f, n, **kw),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_takes_n_as_a_count(route):
    # each route, called through compute_upsilon or on its own, makes the
    # int 20 of 20.0 by check_n; the binomial and Monte-Carlo routes size
    # arrays by n
    comp, family, kw = ROUTES[route]
    want = ups.compute_upsilon(comp, family, 20, **kw)
    assert repr(ups.compute_upsilon(comp, family, 20.0, **kw)) == repr(want)
    assert repr(ROUTE_CALLS[route](comp, family, 20.0, kw)) == repr(want)
    assert want.mode == {"shtarkov": "exact", "binomial": "exact",
                         "series": "truncated", "quadrature": "truncated",
                         "monte_carlo": "monte_carlo"}[route]


@pytest.mark.parametrize("n", [0, 2.5, math.nan, math.inf])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_refuses_what_is_no_count(route, n):
    # a route called on its own refuses the n that compute_upsilon refuses,
    # not a mean of 2.5 draws or a numpy error that names no argument
    comp, family, kw = ROUTES[route]
    with pytest.raises(ValueError, match=rf"^n must be at least 1.*, got {n}$"):
        ROUTE_CALLS[route](comp, family, n, kw)


def test_monte_carlo_samples_is_a_count():
    # every refusal names the route's floor of 4
    comp, family = inv.scaled_diff(0.3), fam.laplace(1.0)
    assert repr(ups.compute_upsilon(comp, family, 5, samples=1e3)) == \
        repr(ups.compute_upsilon(comp, family, 5, samples=1000))
    for samples in (4.5, math.inf):
        with pytest.raises(ValueError, match="^samples must be at least 4 and "
                           f"a finite integer, got {samples}$"):
            ups.compute_upsilon(comp, family, 5, samples=samples)
    for samples in (3, 0, math.nan):
        with pytest.raises(ValueError, match="^samples must be at least 4, "
                           f"got {samples}$"):
            ups.compute_upsilon(comp, family, 5, samples=samples)


# -- Poisson series route --------------------------------------------------------

def test_poisson_diff_series_is_one():
    est = ups.upsilon_poisson_series(inv.poisson_diff(0.7), 10)
    assert est.mode == "truncated"
    assert abs(est.value) <= 1e-8


def test_poisson_cramer_series_divergent():
    est = ups.upsilon_poisson_series(inv.cramer_of(fam.poisson()), 10)
    assert est.mode == "divergent" and est.value == math.inf


@pytest.mark.parametrize("margin,mode", [(-1e-6, "truncated"),
                                         (1e-6, "divergent")])
def test_series_partial_sum_cap_edge(margin, mode):
    # over Poisson, ln E e^{n t (r - xbar)} = n r (t + e^{-t} - 1); pick r to
    # put it just below or just above the cap
    n, t = 4, 0.5
    want = ups._SERIES_LN_CAP + margin
    r = want / (n * (t + math.expm1(-t)))
    est = ups.upsilon_poisson_series(inv.scaled_diff(t), n, r_grid=[r])
    assert est.mode == mode
    if mode == "truncated":
        assert est.value == pytest.approx(want, rel=0, abs=1e-9)


def poisson_cramer_step(k_step):
    """The Poisson Cramer comparator, plus 1 from q = k_step on.

    At n = 1 its series terms are P_k(S = k) (times e from k_step on), whose
    ratios are slow from k = 2 on, except the step up at k = k_step.
    """
    cramer = fam.poisson().cramer
    return inv.custom(lambda q, p: cramer(q, p) + (np.asarray(q) >= k_step),
                      (0.0, math.inf))


@pytest.mark.parametrize("extra,mode", [(0, "divergent"), (1, "truncated")])
def test_series_slow_run_edge(extra, mode, monkeypatch):
    # four chunks of terms; the last starts past k = _SLOW_RUN and ends at
    # k = end, where the run of slow ratios since the step is end - k_step:
    # exactly _SLOW_RUN, or one short
    monkeypatch.setattr(ups, "_SERIES_MAX_TERMS", 4 * ups._CHUNK)
    end = 4 * ups._CHUNK - 1
    assert 3 * ups._CHUNK >= ups._SLOW_RUN
    comp = poisson_cramer_step(end - ups._SLOW_RUN + extra)
    est = ups.upsilon_poisson_series(comp, 1, r_grid=[0.5])
    assert est.mode == mode


@pytest.mark.parametrize("chunks,mode", [(3, "truncated"), (4, "divergent")])
def test_series_slow_run_counts_past_k_edge(chunks, mode, monkeypatch):
    # the run is already longer than _SLOW_RUN in the third chunk, but only
    # the fourth starts past k = _SLOW_RUN
    monkeypatch.setattr(ups, "_SERIES_MAX_TERMS", chunks * ups._CHUNK)
    assert 2 * ups._CHUNK < ups._SLOW_RUN <= 3 * ups._CHUNK - 2
    est = ups.upsilon_poisson_series(inv.cramer_of(fam.poisson()), 1,
                                     r_grid=[0.5])
    assert est.mode == mode


# -- quadrature route -------------------------------------------------------------

@pytest.mark.parametrize("margin,mode", [(-1e-6, "divergent"),
                                         (1e-6, "truncated")])
def test_quadrature_tail_edge(margin, mode):
    # the comparator cancels the unit Gaussian density at n = 1, leaving the
    # log integrand -c min(1, (x - r)^2): 0 at the peak, -c at both grid ends
    c = ups._QUAD_TAIL_NATS + margin

    def fn(q, p):
        d2 = (q - p) ** 2
        return 0.5 * math.log(2.0 * math.pi) + 0.5 * d2 - c * np.minimum(1.0, d2)

    est = ups.upsilon_quadrature(inv.custom(fn, (-math.inf, math.inf)),
                                 fam.gaussian(1.0), 1, r_grid=[0.0])
    assert est.mode == mode


def test_quadrature_quarter_square_gaussian():
    # Delta = (q-p)^2/4 over unit gaussians: E e^{Z^2/4} = sqrt(2) at every r
    comp = inv.Comparator("quarter_square", lambda q, p: (q - p) ** 2 / 4.0,
                          (-math.inf, math.inf))
    est = ups.upsilon_quadrature(comp, fam.gaussian(1.0), 6,
                                 r_grid=(-1.0, 0.0, 2.0))
    assert est.mode == "truncated"
    assert est.value == pytest.approx(0.34657359027997264, rel=1e-6)


def test_quadrature_parametric_identity_gamma():
    # t q - K_p(t) over its own family integrates to one at every r
    t = -0.5
    g = fam.gamma(2.0)
    comp = inv.Comparator("parametric", lambda q, p: t * q - g.cgf(p, t),
                          (0.0, math.inf))
    est = ups.upsilon_quadrature(comp, g, 6, r_grid=(0.5, 2.0, 7.0))
    assert abs(est.value) <= 1e-6


def test_quadrature_nuisance_mismatch_value():
    # gaussian offset comparator built for the wrong variance: ln Upsilon
    # = n t^2 (sigma2_true - sigma2_comp) / 2, negative here
    comp = inv.gaussian_diff(0.5, 2.0)
    est = ups.compute_upsilon(comp, fam.gaussian(1.0), 4)
    assert est.mode == "truncated"
    assert est.value == pytest.approx(-0.5, rel=1e-6)


@pytest.mark.parametrize("family", [fam.gaussian(1.0), fam.gamma(2.0),
                                    fam.invgauss(1.5)],
                         ids=lambda f: f.kind)
def test_quadrature_detects_own_cramer_divergence(family):
    est = ups.upsilon_quadrature(inv.cramer_of(family), family, 10)
    assert est.mode == "divergent" and est.value == math.inf


@pytest.mark.parametrize("family", [fam.gaussian(1.0), fam.poisson(),
                                    fam.gamma(2.0), fam.invgauss(1.5),
                                    fam.negbin(2.0), fam.laplace(1.0)],
                         ids=fam.family_spec)
def test_own_cramer_divergent_without_numerics(family, monkeypatch):
    for route in ("upsilon_poisson_series", "upsilon_quadrature",
                  "upsilon_monte_carlo"):
        monkeypatch.setattr(ups, route, None)
    est = ups.compute_upsilon(inv.cramer_of(family), family, 20)
    assert est.mode == "divergent" and est.value == math.inf
    assert ups.cramer_divergence(family)
    # Bernoulli's mean domain is bounded, so its sum is finite
    assert ups.cramer_divergence(fam.bernoulli()) is None


def test_negbin_cramer_sum_grows_across_decades():
    """The negbin(2) Cramer Upsilon at n = 10 is an infinite sum.

    By the Shtarkov identity its terms are P_{k/n}(S = k) for S the sum of
    n draws (Rissanen, Fisher information and stochastic complexity, IEEE
    Trans. IT, 1996), whose sd grows like k, so k times the k-th term
    settles to a constant and the partial sums grow like ln K; the same
    sums come out at every r.
    """
    f, n = fam.negbin(2.0), 10
    size = n * f.nuisance                  # S ~ NB(n v, v / (v + r))
    k = np.arange(10**6, dtype=float)
    decades = [10**j - 1 for j in (3, 4, 5, 6)]
    for r in (0.3, 5.0):
        ln_pmf = (gammaln(k + size) - gammaln(k + 1) - gammaln(size)
                  + size * math.log(f.nuisance / (f.nuisance + r))
                  + k * math.log(r / (f.nuisance + r)))
        terms = np.exp(ln_pmf + n * f.cramer(k / n, r))
        ln_partial = np.log(np.cumsum(terms)[decades])
        assert ln_partial == pytest.approx([2.2818, 2.6297, 2.8881, 3.0933],
                                           abs=1e-4)
        k_terms = k[decades] * terms[decades]
        assert k_terms[3] / k_terms[2] == pytest.approx(1.0, abs=1e-3)


def test_laplace_cramer_integral_grows_like_log():
    """The laplace(1) Cramer Upsilon at n = 1 is an infinite integral.

    Its integrand e^{-|d|} e^{Lambda*(r + d, r)} / 2 falls like e^{-1}/|d|,
    so the integral over |d| <= L grows like (2/e) ln L, the continuous
    case of the same Shtarkov argument (Rissanen, Fisher information and
    stochastic complexity, IEEE Trans. IT, 1996).
    """
    f = fam.laplace(1.0)

    def integral(L):
        # twice the half-line integral, by the trapezoid rule
        d = np.concatenate((np.linspace(0.0, 1.0, 4001),
                            np.geomspace(1.0, L, 40001)[1:]))
        h = np.exp(-d + f.cramer(d, 0.0))
        return float(((h[1:] + h[:-1]) * np.diff(d)).sum() / 2.0)

    vals = [integral(L) for L in (1e2, 1e4, 1e6, 1e8)]
    assert vals[0] == pytest.approx(3.7441, abs=1e-3)
    assert vals[3] == pytest.approx(13.9053, abs=1e-3)
    # each hundredfold of L adds (2/e) ln 100, up to a shrinking O(ln L / L)
    gaps = np.diff(vals) - 2.0 / math.e * math.log(100.0)
    assert np.all(np.abs(gaps) < 4e-3) and abs(gaps[2]) < abs(gaps[0])


def test_other_members_cramer_takes_its_route():
    # the short cut is for a family's own Cramer function only
    comp, family = inv.cramer_of(fam.gaussian(2.0)), fam.gaussian(1.0)
    assert ups.compute_upsilon(comp, family, 10) == \
        ups.upsilon_quadrature(comp, family, 10)


def test_poisson_series_r_at_cap_flag():
    # h(r) = r (t + e^-t - 1) grows without bound: the sup is infinite, and
    # the best grid point is the last one
    est = ups.compute_upsilon(inv.scaled_diff(0.5), fam.poisson(), 4)
    assert est.mode == "truncated" and est.r_star == 50.0 and est.r_at_cap
    one = ups.upsilon_poisson_series(inv.scaled_diff(0.5), 4, r_grid=(50.0,))
    assert one.r_star == 50.0 and one.r_at_cap is False


def test_quadrature_r_at_cap_flag():
    # plain difference over gamma grows in r without bound
    est = ups.upsilon_quadrature(inv.scaled_diff(0.5), fam.gamma(2.0), 4,
                                 r_grid=(1.0, 10.0, 50.0))
    assert est.r_at_cap and est.r_star == 50.0


# -- Monte Carlo route --------------------------------------------------------------

def test_monte_carlo_scaled_diff_gaussian():
    # closed value n t^2 sigma^2 / 2 = 0.9
    est = ups.upsilon_monte_carlo(inv.scaled_diff(0.3), fam.gaussian(1.0), 20,
                                  r_grid=[0.0], samples=10**5, seed=3)
    half = (est.ci[1] - est.ci[0]) / 2.0
    assert abs(est.value - 0.9) <= 4.0 * half
    assert est.ci[0] <= est.value <= est.ci[1]
    assert not est.divergent_suspect


def test_monte_carlo_ci_covers_eighth_square():
    # Delta = (q-p)^2/8 over unit gaussians: E e^{Z^2/8} = 2/sqrt(3), and the
    # integrand has finite variance so the normal interval is trustworthy
    comp = inv.Comparator("eighth_square", lambda q, p: (q - p) ** 2 / 8.0,
                          (-math.inf, math.inf))
    want = math.log(2.0) - 0.5 * math.log(3.0)
    est = ups.upsilon_monte_carlo(comp, fam.gaussian(1.0), 5,
                                  r_grid=[0.5], samples=10**5, seed=11)
    assert est.ci[0] <= want <= est.ci[1]


def test_monte_carlo_laplace_identity():
    est = ups.upsilon_monte_carlo(inv.laplace_diff(0.3, 1.0), fam.laplace(1.0),
                                  10, r_grid=[0.4], samples=5 * 10**4, seed=7)
    assert est.ci[0] <= 0.0 <= est.ci[1]


def test_one_point_grid_is_never_at_cap():
    # a single r is no grid to run off the end of
    est = ups.upsilon_monte_carlo(inv.scaled_diff(0.3), fam.gaussian(1.0), 20,
                                  [0.0], 200, 3)
    assert est.r_star == 0.0 and est.r_at_cap is False
    est = ups.upsilon_quadrature(inv.scaled_diff(0.5), fam.gamma(2.0), 4,
                                 r_grid=(50.0,))
    assert est.r_star == 50.0 and est.r_at_cap is False


def test_monte_carlo_needs_four_samples():
    comp, family = inv.scaled_diff(0.3), fam.laplace(1.0)
    for samples in (-1, 0, 1, 3):
        with pytest.raises(ValueError, match="samples must be at least 4"):
            ups.upsilon_monte_carlo(comp, family, 5, samples=samples)
    est = ups.upsilon_monte_carlo(comp, family, 5, r_grid=[0.4], samples=4)
    assert math.isfinite(est.value)


def test_monte_carlo_determinism():
    a = ups.upsilon_monte_carlo(inv.scaled_diff(0.2), fam.negbin(2.0), 8,
                                r_grid=[0.7, 1.5], samples=10**4, seed=5)
    b = ups.upsilon_monte_carlo(inv.scaled_diff(0.2), fam.negbin(2.0), 8,
                                r_grid=[0.7, 1.5], samples=10**4, seed=5)
    assert a.value == b.value and a.ci == b.ci


# value and r_star as computed by the one-shot draws these blocks replaced,
# where samples x n spans several draw blocks; ci is value +- the delta-method
# half-width of the normal 95% interval of mean e^{w - max w} at r_star
MC_FROZEN = [
    ((inv.scaled_diff(0.3), fam.gaussian(1.0), 20, [0.0], 10**5, 3),
     (0.908283581470295, (0.894378737855291, 0.922188425085299), 0.0)),
    ((inv.scaled_diff(0.2), fam.negbin(2.0), 30, [0.7, 1.5], 10**5, 5),
     (1.362227518877674, (1.3461271937742143, 1.3783278439811337), 1.5)),
    ((inv.binary_kl(), fam.bernoulli(), 5, [0.5], 10**5, 2),
     (1.258631680496034, (1.2455917065011877, 1.2716716544908804), 0.5)),
    # 10^4 x 20 draws per r span several blocks, the last one partial
    ((inv.scaled_diff(0.3), fam.laplace(1.0), 20, [-0.5, 0.25], 10**4, 11),
     (1.9447025463384424, (1.7980691410303056, 2.0913359516465793), -0.5)),
]


@pytest.mark.parametrize("case,want", MC_FROZEN,
                         ids=["gaussian", "negbin", "bernoulli", "laplace"])
def test_monte_carlo_blocks_frozen(case, want):
    est = ups.upsilon_monte_carlo(*case)
    assert (est.value, est.ci, est.r_star) == want
    assert not est.divergent_suspect


def test_monte_carlo_working_set():
    # three sample-length float arrays and one draw block at a time, with
    # margin: four arrays and two blocks.  A warm-up call first, so the
    # numpy.random import is not counted
    args, samples = (inv.scaled_diff(0.3), fam.laplace(1.0), 20), 10**5
    ups.upsilon_monte_carlo(*args, r_grid=[0.0], samples=4)
    tracemalloc.start()
    try:
        ups.upsilon_monte_carlo(*args, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (4 * samples + 2 * ups._BLOCK)


def test_monte_carlo_ci_is_delta_method_normal_interval():
    # re-draw the means at the one r on its stream (seed, 0)
    comp, family, n, r, samples, seed = (inv.scaled_diff(0.2), fam.negbin(2.0),
                                         8, 1.5, 2000, 9)
    est = ups.upsilon_monte_carlo(comp, family, n, r_grid=[r],
                                  samples=samples, seed=seed)
    draws = family.sample(r, samples * n, rng=make_generator(seed, 0))
    w = n * comp.eval(draws.reshape(samples, n).mean(axis=1), r)
    expw = np.exp(w - w.max())
    half = (1.959963984540054 * expw.std(ddof=1)
            / (expw.mean() * math.sqrt(samples)))
    assert est.ci[0] == pytest.approx(est.value - half, abs=1e-15)
    assert est.ci[1] == pytest.approx(est.value + half, abs=1e-15)


def test_monte_carlo_constant_draws_give_zero_width_ci():
    # scaled_diff(0) is identically 0, so every draw carries the same weight
    est = ups.upsilon_monte_carlo(inv.scaled_diff(0.0), fam.laplace(1.0), 5,
                                  r_grid=[0.4], samples=4)
    assert est.value == 0.0 and est.ci == (0.0, 0.0)


def test_z95_is_the_normal_quantile():
    assert ups._Z95 == special.ndtri(0.975)


def test_monte_carlo_coverage_rate():
    # 50 independent seeds at a sample size where every mean cell is visible;
    # the 95% interval must catch the exact value at least 45 times
    exact = kl_flat_sum(5)
    comp = inv.binary_kl()
    hits = 0
    for seed in range(50):
        est = ups.upsilon_monte_carlo(comp, fam.bernoulli(), 5,
                                      r_grid=[0.5], samples=10**5, seed=seed)
        hits += est.ci[0] <= exact <= est.ci[1]
    assert hits >= 45, f"coverage {hits}/50"


# -- dispatcher ----------------------------------------------------------------------

def test_dispatcher_identity_shortcuts():
    cases = [
        (inv.poisson_diff(0.3), fam.poisson()),
        (inv.catoni(-2.0), fam.bernoulli()),
        (inv.laplace_diff(0.5, 1.0), fam.laplace(1.0)),
        (inv.gaussian_diff(0.5, 1.3), fam.gaussian(1.3)),
        (inv.scaled_diff(0.0), fam.laplace(1.0)),
    ]
    for comp, family in cases:
        est = ups.compute_upsilon(comp, family, 50)
        assert est.mode == "exact" and est.value == 0.0


def test_dispatcher_routes():
    assert ups.compute_upsilon(inv.binary_kl(), fam.bernoulli(), 4).mode == "exact"
    assert ups.compute_upsilon(inv.poisson_diff(0.4), fam.poisson(), 4,
                               ).mode == "exact"
    est = ups.compute_upsilon(inv.scaled_diff(0.05), fam.laplace(1.0), 5,
                              samples=2 * 10**4)
    assert est.mode == "monte_carlo" and math.isfinite(est.value)
    offset = dataclasses.replace(inv.poisson_diff(0.7), form="offset_diff")
    assert ups.compute_upsilon(offset, fam.poisson(), 4).mode == "truncated"
    assert ups.compute_upsilon(inv.scaled_diff(0.5), fam.gamma(2.0),
                               4).mode == "truncated"
    # the series and quadrature routes scan the r_grid they are given
    for est in (ups.upsilon_poisson_series(offset, 4, r_grid=[0.3]),
                ups.upsilon_quadrature(inv.scaled_diff(0.5), fam.gamma(2.0),
                                       4, r_grid=[0.3])):
        assert est.mode == "truncated" and est.r_star == 0.3


OWN_FAMILY_LINES = [
    (inv.catoni(-2.0), fam.bernoulli()),
    (inv.catoni(1.5), fam.bernoulli()),
    (inv.poisson_diff(0.5), fam.poisson()),
    (inv.laplace_diff(0.3, 1.0), fam.laplace(1.0)),
    (inv.gaussian_diff(0.5, 1.0), fam.gaussian(1.0)),
]


@pytest.mark.parametrize("comp, family", OWN_FAMILY_LINES,
                         ids=[c.form for c, _ in OWN_FAMILY_LINES])
def test_cgf_line_over_its_own_family_is_exact_zero(comp, family):
    # E e^{n (s xbar - K_p(s))} = 1 at every p: one rule, read off the
    # (form, family) the line records
    assert comp.params["cgf_line"] == (comp.form, family)
    est = ups.compute_upsilon(comp, family, 20)
    assert est.mode == "exact" and est.value == 0.0


def test_cgf_line_off_its_family_takes_the_numeric_route():
    # another nuisance: the Laplace(2) draws are not the line's family
    est = ups.compute_upsilon(inv.laplace_diff(0.3, 1.0), fam.laplace(2.0), 5,
                              samples=2 * 10**4)
    assert est.mode == "monte_carlo" and est.value > 0.0
    # another form: the relabelled line is summed as a series, near 0
    offset = dataclasses.replace(inv.poisson_diff(0.7), form="offset_diff")
    est = ups.compute_upsilon(offset, fam.poisson(), 20)
    assert est.mode == "truncated" and abs(est.value) < 1e-9
    # another family with the same mean range
    est = ups.compute_upsilon(inv.poisson_diff(0.5), fam.gamma(2.0), 4)
    assert est.mode == "truncated"


BAD_R_GRIDS = [[], [math.nan], [math.inf], [-math.inf], [[0.5, 0.6]]]
# (route, grids outside its family's open mean domain); a number is no grid
R_GRID_ROUTES = {
    "binomial": (lambda g: ups.upsilon_bernoulli_exact(inv.binary_kl(), 4, g),
                 [[0.0], [1.0], [0.5, 1.5], 0, 2.7]),
    "series": (lambda g: ups.upsilon_poisson_series(inv.scaled_diff(0.5), 4,
                                                    r_grid=g),
               [[0.0], [-1.0, 2.0]]),
    "quadrature": (lambda g: ups.upsilon_quadrature(inv.scaled_diff(0.5),
                                                    fam.gamma(2.0), 4, g),
                   [[0.0], [-1.0, 2.0]]),
    "monte_carlo": (lambda g: ups.upsilon_monte_carlo(
        inv.scaled_diff(0.2), fam.negbin(2.0), 4, g, samples=100),
                    [[0.0], [-1.0, 2.0]]),
}


@pytest.mark.parametrize("route", R_GRID_ROUTES)
def test_every_route_checks_its_r_grid(route):
    # an empty, non-finite, 2-d or off-domain grid is one ValueError on every
    # route, before any work; not a TypeError, an IndexError, a math domain
    # error or a truncated -inf
    run, off_domain = R_GRID_ROUTES[route]
    for grid in BAD_R_GRIDS + off_domain:
        with pytest.raises(ValueError, match="r grid .*interior"):
            run(grid)


# (route on its default grid, the grid as each route once wrote it out)
DEFAULT_R_GRIDS = {
    "binomial": (lambda: ups.upsilon_bernoulli_exact(inv.scaled_diff(0.5), 4),
                 np.linspace(1e-6, 1 - 1e-6, 2001)),
    "series": (lambda: ups.upsilon_poisson_series(inv.poisson_diff(0.7), 4),
               np.geomspace(1e-6, 50.0, 121)),
    "quadrature-gamma": (lambda: ups.upsilon_quadrature(
        inv.scaled_diff(0.3), fam.gamma(2.0), 4),
                         np.geomspace(1e-6, 50.0, 41)),
    "quadrature-gaussian": (lambda: ups.upsilon_quadrature(
        inv.scaled_diff(0.3), fam.gaussian(1.0), 4),
                            np.linspace(-10.0, 10.0, 41)),
    "monte_carlo-bernoulli": (lambda: ups.upsilon_monte_carlo(
        inv.scaled_diff(0.3), fam.bernoulli(), 4, samples=100),
                              np.linspace(1e-6, 1 - 1e-6, 21)),
    "monte_carlo-negbin": (lambda: ups.upsilon_monte_carlo(
        inv.scaled_diff(0.3), fam.negbin(2.0), 4, samples=100),
                           np.geomspace(1e-3, 50.0, 21)),
    "monte_carlo-laplace": (lambda: ups.upsilon_monte_carlo(
        inv.scaled_diff(0.3), fam.laplace(1.0), 4, samples=100),
                            np.linspace(-10.0, 10.0, 21)),
}


@pytest.mark.parametrize("route", DEFAULT_R_GRIDS)
def test_default_r_grid_is_the_routes_own(route, monkeypatch):
    # the one r-grid rule gives each route the grid it used to write out
    run, want = DEFAULT_R_GRIDS[route]
    grids = []
    r_grid = ups._r_grid

    def recorded(*args, **kwargs):
        grids.append(r_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(ups, "_r_grid", recorded)
    run()
    assert len(grids) == 1 and np.array_equal(grids[0], want)


def _inf_above(q, p):
    """0.1 (p - q), but +inf where q > p + 0.5."""
    return np.where(q > p + 0.5, math.inf, 0.1 * (p - q))


def _raises_above(q, p):
    """_inf_above, but a ValueError where that is +inf."""
    if np.any(np.asarray(q) > np.asarray(p) + 0.5):
        raise ValueError("q above p + 0.5")
    return 0.1 * (p - q)


@pytest.mark.parametrize("fn", [_inf_above, _raises_above],
                         ids=["inf", "raises"])
@pytest.mark.parametrize("family", [fam.bernoulli(), fam.poisson(),
                                    fam.gaussian(1.0), fam.gamma(2.0),
                                    fam.laplace(1.0)], ids=lambda f: f.kind)
def test_comparator_inf_where_xbar_has_mass_is_divergent(family, fn):
    # every route sees the +inf, a custom cell that raises included: the
    # Bernoulli sum refuses it, the others report divergent, not a finite-
    # looking record, and none warns on the way
    comp = inv.custom(fn, (-math.inf, math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if family.kind == "bernoulli":
            with pytest.raises(ValueError, match="not finite"):
                ups.compute_upsilon(comp, family, 5)
            return
        est = ups.compute_upsilon(comp, family, 5, samples=2000)
    assert est.mode == "divergent" and est.value == math.inf


def test_dispatcher_rejects_unknown_keywords():
    # a misspelt samples must not silently run the default 10^5 draws
    with pytest.raises(TypeError, match="sample"):
        ups.compute_upsilon(inv.scaled_diff(0.3), fam.laplace(1.0), 5,
                            sample=10)


# -- union-bound corrections -----------------------------------------------------------

def test_correction_xi_frozen():
    assert ups.correction_xi(0.0, 0.0) == pytest.approx(3.289868133696453, rel=1e-15)
    assert ups.correction_xi(7.0, 3.0) == pytest.approx(52.637890139143245, rel=1e-15)
    assert ups.correction_xi(2.0, 100.0) == pytest.approx(29.608813203268074, rel=1e-15)
    with pytest.raises(ValueError, match="correction_xi"):
        ups.correction_xi(-1.0, 0.0)
    with pytest.raises(ValueError, match="correction_xi"):
        ups.correction_xi(np.array([1.0, 2.0]), np.array([0.5, -0.1]))


def test_correction_two_e_ceil_frozen():
    assert ups.correction_two_e_ceil(0.5) == pytest.approx(5.43656365691809, rel=1e-15)
    assert ups.correction_two_e_ceil(100.0) == pytest.approx(543.656365691809, rel=1e-15)
    assert ups.correction_two_e_ceil(99.1) == ups.correction_two_e_ceil(100.0)
    assert ups.correction_two_e_ceil(0.0) == 2.0 * math.e
