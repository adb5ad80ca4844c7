import ast
import dataclasses
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cgfbounds import families as fam
from cgfbounds import inversion as inv
from cgfbounds.inversion import BoundQuery
from poisson_oracle import invert_closed_form_poisson

ROOT = Path(__file__).resolve().parent.parent


# -- closed forms --------------------------------------------------------------

def test_gaussian_closed_form():
    comp = inv.cramer_of(fam.gaussian(1.0))
    res = inv.invert_at_budget(comp, 0.3, 0.02)
    assert res.rho == pytest.approx(0.3 + math.sqrt(2 * 0.02), abs=2e-9)
    assert res.status == "converged"


@given(alpha=st.floats(-2.0, 2.0), budget=st.floats(1e-6, 50.0),
       sigma2=st.floats(0.1, 4.0))
@settings(max_examples=60, deadline=None)
def test_gaussian_closed_form_property(alpha, budget, sigma2):
    comp = inv.cramer_of(fam.gaussian(sigma2))
    res = inv.invert_at_budget(comp, alpha, budget)
    want = alpha + math.sqrt(2 * sigma2 * budget)
    assert res.rho == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_poisson_closed_form_frozen():
    # bisection oracle frozen at tol 1e-12
    assert invert_closed_form_poisson(1.0, 1.0) == pytest.approx(
        3.1461932206205825, rel=1e-12)
    assert invert_closed_form_poisson(0.0, 2.5) == 2.5
    assert invert_closed_form_poisson(2.0, 0.0) == 2.0


@given(alpha=st.floats(1e-3, 50.0), budget=st.floats(1e-8, 3000.0))
@settings(max_examples=80, deadline=None)
def test_poisson_closed_form_solves_cramer(alpha, budget):
    rho = invert_closed_form_poisson(alpha, budget)
    assert rho > alpha
    assert fam.poisson().cramer(alpha, rho) == pytest.approx(
        budget, rel=1e-9, abs=1e-12)


def test_poisson_closed_vs_bisection():
    comp = inv.cramer_of(fam.poisson())
    rng = np.random.default_rng(42)
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 10.0))
        budget = float(rng.uniform(1e-4, 20.0))
        closed = invert_closed_form_poisson(alpha, budget)
        bis = inv.invert_at_budget(comp, alpha, budget, tol=1e-12).rho
        assert closed == pytest.approx(bis, rel=1e-9)


def lambert_wm1(x):
    """W_{-1}(x) through the closed form: rho = -alpha W_{-1}(-e^{-1-B/alpha})."""
    return -invert_closed_form_poisson(1.0, -math.log(-x) - 1.0)


def test_lambert_wm1_against_scipy():
    # keep clear of -1/e where scipy's lambertw itself loses accuracy
    for x in -np.geomspace(1e-280, 0.999 / math.e, 60):
        want = float(special.lambertw(complex(x), -1).real)
        assert lambert_wm1(float(x)) == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError):
        invert_closed_form_poisson(1.0, -0.1)
    with pytest.raises(ValueError):
        invert_closed_form_poisson(-1.0, 1.0)


def test_lambert_wm1_near_branch_point():
    import mpmath
    for eps in (1e-12, 1e-9, 1e-6):
        x = -(1.0 / math.e - eps)
        want = float(mpmath.lambertw(mpmath.mpf(repr(x)), -1).real)
        assert lambert_wm1(x) == pytest.approx(want, rel=1e-9)


def test_lambert_wm1_underflow_regime():
    # -e^{-1-B} underflows for B > ~700; the u-root form must still work
    rho = invert_closed_form_poisson(1.0, 3000.0)
    assert fam.poisson().cramer(1.0, rho) == pytest.approx(3000.0, rel=1e-12)


# -- engine semantics ------------------------------------------------------------

def test_budget_nonpositive():
    comp = inv.cramer_of(fam.bernoulli())
    res = inv.invert_at_budget(comp, 0.2, 0.0)
    assert res.rho == 0.2 and res.status == "budget_nonpositive"


def test_capped_at_domain():
    # Catoni stays finite at p = 1, so a large budget caps there
    comp = inv.catoni(-1.0)
    res = inv.invert_at_budget(comp, 0.3, 10.0)
    assert res.rho == 1.0 and res.status == "capped_at_domain"


def test_non_monotone_rejected():
    comp = inv.Comparator("bad", lambda q, p: -(p - q), (-math.inf, math.inf))
    with pytest.raises(inv.NonMonotoneComparator):
        inv.invert_at_budget(comp, 0.0, 1.0)


def test_no_finite_bound():
    comp = inv.Comparator("flat", lambda q, p: 0.0, (0.0, math.inf))
    with pytest.raises(inv.NoFiniteBound):
        inv.invert_at_budget(comp, 1.0, 0.5)


def test_alpha_outside_range():
    comp = inv.cramer_of(fam.bernoulli())
    with pytest.raises(ValueError):
        inv.invert_at_budget(comp, 1.5, 0.1)


FAMS = [fam.bernoulli(), fam.gaussian(0.7), fam.poisson(), fam.gamma(2.0),
        fam.laplace(1.2), fam.invgauss(1.5), fam.negbin(2.5)]

ALPHAS = {"bernoulli": 0.25, "gaussian": -0.5, "poisson": 0.8, "gamma": 1.1,
          "laplace": 0.4, "invgauss": 0.9, "negbin": 1.3}


@pytest.mark.parametrize("family", FAMS, ids=lambda f: f.kind)
@pytest.mark.parametrize("budget", [1e-4, 0.05, 0.8])
def test_feasible_and_maximal(family, budget):
    comp = inv.cramer_of(family)
    alpha = ALPHAS[family.kind]
    res = inv.invert_at_budget(comp, alpha, budget)
    assert res.status == "converged"
    assert comp.eval(alpha, res.rho) <= budget + 1e-6
    scale = max(1.0, abs(res.rho))
    assert comp.eval(alpha, res.rho + 100e-9 * scale) > budget


def test_invgauss_saturation_no_finite_bound():
    # sup_p of the inverse-Gaussian rate at fixed alpha is lambda/(2 alpha);
    # budgets above it admit every mean
    lam, alpha = 1.5, 0.9
    comp = inv.cramer_of(fam.invgauss(lam))
    cap = lam / (2 * alpha)
    with pytest.raises(inv.NoFiniteBound):
        inv.invert_at_budget(comp, alpha, cap * 1.01)
    res = inv.invert_at_budget(comp, alpha, cap * 0.9)
    assert res.status == "converged"
    # the grid reports the same cells as NaN, next to finite ones
    rho = inv.invert_grid(comp, alpha, [cap * 1.01, cap * 0.9])
    assert math.isnan(rho[0]) and rho[1] == res.rho


INVGAUSS_SATURATION = """
import math
from cgfbounds import families as fam, inversion as inv
comp = inv.cramer_of(fam.invgauss(1.5))
rho = inv.invert_grid(comp, [2.0, 2.0], [0.5, 0.01])
try:
    inv.invert_at_budget(comp, 2.0, 0.5)
    raised = False
except inv.NoFiniteBound:
    raised = True
print(math.isnan(rho[0]), math.isfinite(rho[1]), raised)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_no_finite_bound_reported_without_asserts(flags):
    # lambda/(2 alpha) = 0.375 < 0.5: no finite bound at alpha = 2, and the
    # report must not rest on an assert that -O strips
    proc = subprocess.run([sys.executable, *flags, "-c", INVGAUSS_SATURATION],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]


MEAN_BOXES = {"bernoulli": (0.0, 1.0), "gaussian": (-3.0, 3.0),
              "laplace": (-3.0, 3.0)}


@given(family=st.sampled_from(FAMS),
       cells=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 5.0)),
                      min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_grid_equals_scalar_and_feasible(family, cells):
    lo, hi = MEAN_BOXES.get(family.kind, (0.0, 5.0))
    alphas = [lo + u * (hi - lo) for u, _ in cells]
    budgets = [b for _, b in cells]
    comp = inv.cramer_of(family)
    grid = inv.invert_grid(comp, alphas, budgets)
    for alpha, budget, rho in zip(alphas, budgets, grid):
        try:
            want = inv.invert_at_budget(comp, alpha, budget).rho
        except inv.NoFiniteBound:
            assert math.isnan(rho)
            continue
        assert rho == want
        assert comp.eval(alpha, rho) <= budget


GRID_ALPHAS = np.array([0.0, 0.05, 0.1, 0.3, 0.5, 0.69])
GRID_BUDGETS = np.array([[0.01], [0.2], [1.5]])


def test_grid_with_picky_comparator_equals_scalar():
    # raises on arrays, and on every cell with p > 0.7: those cells count
    # as infeasible, cell by cell, in the grid and in the scalar inversion
    def picky_kl(q, p):
        if np.ndim(q) or np.ndim(p):
            raise ValueError("scalar arguments only")
        if p > 0.7:
            raise ValueError(f"p={p} out of reach")
        return fam.binary_kl(q, p)

    comp = inv.custom(picky_kl, (0.0, 1.0))
    grid = inv.invert_grid(comp, GRID_ALPHAS, GRID_BUDGETS)
    want = [[inv.invert_at_budget(comp, a, b).rho for a in GRID_ALPHAS]
            for b in GRID_BUDGETS[:, 0]]
    assert np.array_equal(grid, want)
    assert np.all(grid <= 0.7) and np.any(grid > 0.69)


def test_grid_with_scalar_only_kl_equals_vectorized_kl():
    kl = inv.binary_kl()
    scalar_kl = inv.custom(lambda q, p: float(kl.eval(float(q), float(p))),
                           kl.loss_range)
    want = inv.invert_grid(kl, GRID_ALPHAS, GRID_BUDGETS)
    assert np.array_equal(inv.invert_grid(scalar_kl, GRID_ALPHAS, GRID_BUDGETS),
                          want)


# -- parametric comparators vs their closed inversions ---------------------------

def test_catoni_closed_inverse_matches_bisection():
    for gamma in (-0.1, -1.0, -4.0):
        comp = inv.catoni(gamma)
        for alpha in (0.1, 0.5, 0.9):
            for budget in (0.01, 0.3):
                closed = comp.exact_inverse(alpha, budget)
                if closed < 1.0:
                    bis = inv.invert_at_budget(comp, alpha, budget).rho
                    assert closed == pytest.approx(bis, abs=5e-9)


def test_catoni_exact_at_p_one():
    # ln(1 - p + p e^gamma) -> gamma as p -> 1, without cancellation
    assert inv.catoni(-10.66).eval(1.0, 1.0) == 0.0
    # e^-40 rounds 1 + expm1(gamma) to 0: no log of 0 here
    assert inv.catoni(-40.0).eval(0.5, 1.0) == 20.0


def test_catoni_broadcasts():
    comp = inv.catoni(-3.0)
    qs = np.array([[0.0], [0.4]])
    ps = np.array([0.0, 0.3, 0.5, 0.51, 0.9, 1.0])
    got = comp.eval(qs, ps)
    assert got.shape == (2, 6)
    for i, q in enumerate(qs[:, 0]):
        for j, p in enumerate(ps):
            assert got[i, j] == comp.eval(float(q), float(p))
            want = -3.0 * q - math.log(1.0 - p + p * math.exp(-3.0))
            assert got[i, j] == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_scaled_diff_inverse():
    comp = inv.scaled_diff(2.0)
    assert comp.exact_inverse(0.3, 0.5) == pytest.approx(0.55, rel=1e-14)
    bis = inv.invert_at_budget(comp, 0.3, 0.5).rho
    assert bis == pytest.approx(0.55, rel=1e-7)


def test_poisson_diff_inverse():
    t = 0.7
    comp = inv.poisson_diff(t)
    c = -math.expm1(-t)
    assert comp.exact_inverse(1.0, 0.2) == pytest.approx((0.7 + 0.2) / c, rel=1e-14)


# the four comparators as they were written by hand before each became the
# CGF line s q - K_p(s) of its family: the oracle of the lines
def _old_catoni(gamma):
    eg, emg = math.expm1(gamma), math.expm1(-gamma)

    def fn(q, p):
        p = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_mix = np.where(p > 0.5, gamma + np.log1p((1.0 - p) * emg),
                              np.log1p(p * eg))
        return gamma * np.asarray(q, dtype=float) - ln_mix
    return fn


def _old_poisson_diff(t):
    c = -math.expm1(-t)
    return lambda q, p: c * p - t * q


def _old_offset_diff(t, off):
    return lambda q, p: t * (p - q) + off


_UNIT = np.array([0.0, 1e-13, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-6,
                  1 - 1e-10, 1 - 1e-13, 1.0])
_HALF_LINE = np.array([0.0, 1e-6, 0.1, 0.5, 1.0, 3.0, 10.0])
_LINE = np.array([-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0])

CGF_LINE_CASES = (
    [(f"catoni-{g}", inv.catoni(g), _old_catoni(g), g, _UNIT)
     for g in (-708.0, -300.0, -50.0, -30.0, -5.0, -1.3, -1e-3, 1e-3, 1.3,
               30.0, 300.0, 708.0)]
    + [(f"poisson_diff-{t}", inv.poisson_diff(t), _old_poisson_diff(t), -t,
        _HALF_LINE) for t in (1e-3, 0.7, 10.0)]
    + [(f"laplace_diff-{t},{b}", inv.laplace_diff(t, b),
        _old_offset_diff(t, math.log1p(-(b * t) ** 2)), -t, _LINE)
       for t, b in ((1e-3, 5.0), (0.3, 1.0), (0.9, 1.0))]
    + [(f"gaussian_diff-{t},{v}", inv.gaussian_diff(t, v),
        _old_offset_diff(t, -0.5 * v * t * t), -t, _LINE)
       for t, v in ((1e-3, 5.0), (0.5, 1.0), (2.0, 0.25))])


@pytest.mark.parametrize("comp, old, s, grid",
                         [case[1:] for case in CGF_LINE_CASES],
                         ids=[case[0] for case in CGF_LINE_CASES])
def test_cgf_lines_match_the_hand_written_fns(comp, old, s, grid):
    # Relative to the line's terms: any float evaluation of s q - K_p(s),
    # K_p(s) ~ s p, errs by a few ulp of |s| max(|q|, |p|), and near q = p
    # the value itself can be far smaller than either term.  The grids
    # include the closed ends of the mean range, where K_p(s) = s p.
    q, p = np.meshgrid(grid, grid, indexing="ij")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = comp.eval(q, p)
    want = old(q, p)
    scale = np.maximum(np.abs(want), abs(s) * np.maximum(abs(q), abs(p)))
    assert np.all(np.abs(new - want) <= 1e-15 * scale)
    for i, j in ((0, 0), (-1, -1), (0, -1), (3, 5)):
        assert comp.eval(float(q[i, j]), float(p[i, j])) == new[i, j]


def test_laplace_and_gaussian_diff_inverse():
    comp = inv.laplace_diff(0.5, 1.0)
    off = math.log1p(-0.25)
    assert comp.exact_inverse(0.4, 0.3) == pytest.approx(
        0.4 + (0.3 - off) / 0.5, rel=1e-14)
    comp = inv.gaussian_diff(0.8, 2.0)
    assert comp.exact_inverse(0.1, 0.3) == pytest.approx(
        0.1 + (0.3 + 2.0 * 0.64 / 2) / 0.8, rel=1e-14)


# -- one-parameter infima ---------------------------------------------------------

def test_gaussian_diff_infimum_analytic():
    # inf_t [alpha + (budget + sigma2 t^2/2)/t] = alpha + sqrt(2 sigma2 budget)
    sigma2, alpha, beta, n = 0.25, 0.3, 2.0, 100
    q = BoundQuery(alpha, beta, n)
    res = inv.infimum_over_parameter(lambda t: inv.gaussian_diff(t, sigma2), q,
                                     (1e-8, 100.0))
    want = alpha + math.sqrt(2 * sigma2 * beta / n)
    assert res.rho == pytest.approx(want, rel=1e-9)
    assert res.param_star == pytest.approx(math.sqrt(2 * (beta / n) / sigma2), rel=1e-3)


def test_poisson_diff_infimum_zero_beta():
    # at budget 0 the infimum over t approaches alpha from above as t -> 0
    q = BoundQuery(1.0, 0.0, 50)
    res = inv.infimum_over_parameter(inv.poisson_diff, q, (1e-4, 200.0))
    assert res.rho >= 1.0
    assert res.rho == pytest.approx(1.0, rel=1e-3)


def test_infimum_all_capped_returns_cap():
    q = BoundQuery(0.3, 1000.0, 1)
    res = inv.infimum_over_parameter(lambda m: inv.catoni(-m), q,
                                     (1e-3, 50.0))
    assert res.rho == 1.0 and res.status == "capped_at_domain"


def test_infimum_all_divergent_raises():
    q = BoundQuery(1.0, 10.0, 10)

    def make(t):
        return inv.Comparator("flat", lambda qq, pp: 0.0 * t, (0.0, math.inf))

    with pytest.raises(inv.NoFiniteBound):
        inv.infimum_over_parameter(make, q, (0.1, 10.0))


# -- budget assembly ---------------------------------------------------------------

def test_budget_modes():
    # the per-correction budgets are checked at the bounds layer
    assert BoundQuery(0.1, 3.0, 10).budget() == pytest.approx(0.3, rel=1e-14)
    q = BoundQuery(0.1, 3.0, 10, delta=0.05)
    assert q.budget() == pytest.approx((3.0 - math.log(0.05)) / 10, rel=1e-14)
    q = BoundQuery(0.1, 3.0, 10, delta=0.05, ln_iota=1.7)
    assert q.budget() == pytest.approx((3.0 + 1.7 - math.log(0.05)) / 10, rel=1e-14)


def test_pac_dominates_average():
    comp = inv.cramer_of(fam.bernoulli())
    avg = inv.invert(comp, BoundQuery(0.2, 1.0, 30))
    pac = inv.invert(comp, BoundQuery(0.2, 1.0, 30, delta=0.1))
    assert pac.rho >= avg.rho


def test_query_validation():
    with pytest.raises(ValueError, match="beta"):
        BoundQuery(0.1, -1.0, 10)
    with pytest.raises(ValueError, match="n must"):
        BoundQuery(0.1, 1.0, 0)
    with pytest.raises(ValueError, match="delta"):
        BoundQuery(0.1, 1.0, 10, delta=1.5)
    with pytest.raises(ValueError, match="beta must be finite .* got inf"):
        BoundQuery(0.1, math.inf, 10)
    with pytest.raises(ValueError, match=r"beta must be finite .*inf\]"):
        BoundQuery(0.1, [1.0, math.inf], 10)
    with pytest.raises(ValueError, match="beta must be finite .* got nan"):
        BoundQuery(0.1, math.nan, 10)
    with pytest.raises(ValueError, match="ln_iota must be finite, got -inf"):
        BoundQuery(0.1, 1.0, 10, ln_iota=-math.inf)
    with pytest.raises(ValueError,
                       match=r"budget must be finite, got .*nan\]"):
        inv.invert_grid(inv.binary_kl(), [0.1, 0.2], [0.5, math.nan])


@pytest.mark.parametrize("n", [0, -3, 2.5, math.nan, math.inf])
def test_check_n_rejects_what_is_no_sample_size(n):
    # n = inf would make every budget 0 and rho = alpha, an unsafe bound
    with pytest.raises(ValueError, match=rf"^n must be at least 1.*, got {n}$"):
        inv.check_n(n)
    with pytest.raises(ValueError, match=rf"n must be at least 1.*, got {n}$"):
        BoundQuery(0.1, 1.0, n)
    with pytest.raises(ValueError,
                       match=rf"n must be at least 1.*, got {float(n)}$"):
        inv.check_n(np.array([10.0, n, 20.0]))   # names the bad element


@pytest.mark.parametrize("n", [1, 100, 100.0, np.array([1, 7, 100]),
                               np.array([[1.0], [2.0]])])
def test_check_n_accepts_integral_sample_sizes(n):
    inv.check_n(n)
    assert BoundQuery(0.1, 1.0, n).budget() == pytest.approx(1.0 / n)


BAD_LIBRARY_INPUT = """
from cgfbounds import bounds, families as fam, inversion as inv
from cgfbounds import upsilon as ups, verify as ver
calls = [
    lambda: inv.BoundQuery(0.1, -1.0, 10),
    lambda: inv.BoundQuery(0.1, 1.0, 0),
    lambda: inv.BoundQuery(0.1, 1.0, 10, delta=1.5),
    lambda: bounds.evaluate_kind("mls", fam.gaussian(1.0), 0.2, 1.0, 20, 0.05),
    lambda: bounds.evaluate_kind("mls", None, 0.2, 1.0, 20),
    lambda: bounds.evaluate_kind("pac_cramer_two_e_ceil", fam.bernoulli(), 0.2,
                                 1.0, 20, 0.05, u=-1.0),
    lambda: inv.catoni(0.0),
    lambda: inv.poisson_diff(0.0),
    lambda: inv.gaussian_diff(-1.0, 1.0),
    lambda: inv.gaussian_diff(0.5, float("nan")),
    lambda: inv.laplace_diff(0.5, 0.0),
    lambda: fam.gaussian(float("nan")),
    lambda: fam.gamma(float("inf")),
    lambda: inv.laplace_diff(2.0, 1.0),
    lambda: inv.infimum_over_parameter(inv.poisson_diff,
                                       inv.BoundQuery(1.0, 1.0, 10), (0.0, 1.0)),
    lambda: ups.compute_upsilon(inv.binary_kl(), fam.bernoulli(), 0),
    lambda: ups.upsilon_bernoulli_exact(inv.binary_kl(), 4, r_grid=(0.0, 0.5)),
    lambda: ups.upsilon_bernoulli_exact(
        inv.custom(lambda q, p: q + float("inf"), (0.0, 1.0)), 4),
    lambda: ups.correction_xi(-1.0, 0.0),
    lambda: ver.SyntheticProblem((0.5,), (1.0,), fam.bernoulli(), 1.0, 10, 5, 0),
    lambda: ver.SyntheticProblem((0.2, 0.5), (0.5, 0.5), fam.bernoulli(), 1.0,
                                 10, 0, 0),
    lambda: ver.run_trials(ver.SyntheticProblem(
        (0.2, 0.5), (0.5, 0.5), fam.gaussian(1.0), 1.0, 10, 5, 0),
        "pac_cramer_chernoff"),
    lambda: inv.BoundQuery(0.1, float("inf"), 10),
    lambda: inv.BoundQuery(0.1, 1.0, 10, ln_iota=float("nan")),
    lambda: inv.invert_at_budget(inv.binary_kl(), 0.1, float("nan")),
    lambda: ver.SyntheticProblem((0.2, 1.5), (0.5, 0.5), fam.bernoulli(), 1.0,
                                 10, 5, 0),
    lambda: ver.run_samplewise_comparison(ver.SyntheticProblem(
        (0.2, 0.5), (0.5, 0.5), fam.gaussian(1.0), 1.0, 10, 5, 0)),
    lambda: ver.run_samplewise_comparison(ver.SyntheticProblem(
        (0.5,) * 13, (1.0 / 13,) * 13, fam.bernoulli(), 1.0, 10, 5, 0)),
    lambda: bounds.evaluate_kind("average_cramer", None, 0.2, 1.0, 20),
    lambda: bounds.evaluate_kind("pac_cramer_xi", None, 0.2, 1.0, 20, 0.05),
    lambda: bounds.bound_values("average_cramer", None, [0.2], [1.0], 20),
    lambda: bounds.evaluate_kind("pac_cramer_xi", fam.bernoulli(), 0.2, 1.0, 20,
                                 0.05, u=7.0),
    lambda: inv.scaled_diff(float("nan")),
    lambda: inv.scaled_diff(float("inf")),
    lambda: inv.invert_at_budget(inv.cramer_of(fam.gaussian(1.0)),
                                 float("inf"), 0.1),
    lambda: inv.invert_grid(inv.scaled_diff(1.0), [0.1, float("-inf")], 0.1),
    lambda: inv.BoundQuery(0.1, 1.0, [10, 0]),
    lambda: bounds.bound_values("mls", fam.bernoulli(), 0.2, 1.0, [10, 20],
                                0.05),
    lambda: ver.run_samplewise_comparison(ver.SyntheticProblem(
        (0.2, 0.5), (0.5, 0.5), fam.bernoulli(), 1.0, 10, 5, 0), inner=0),
    lambda: ver.run_samplewise_comparison(ver.SyntheticProblem(
        (0.2, 0.5), (0.5, 0.5), fam.bernoulli(), 1.0, 10, 5, 0), outer=0),
    lambda: ver.run_samplewise_comparison(ver.SyntheticProblem(
        (0.2, 0.5), (0.5, 0.5), fam.bernoulli(), 1.0, 10, 5, 0), replicates=0),
    lambda: bounds.evaluate_kind("pac_cramer_xi", fam.bernoulli(), 0.1, 2.3,
                                 100),
    lambda: bounds.bound_values("pac_cramer_two_e_ceil", fam.bernoulli(),
                                [0.1, 0.2], 2.3, 100),
    lambda: bounds.evaluate_kind("pac_cramer_xi", fam.bernoulli(), 0.1, 2.3,
                                 100, 0.05, ln_upsilon=1.7),
]
for call in calls:
    try:
        call()
        print("returned")
    except ValueError as e:
        print("ValueError" if str(e) else "empty")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_input_validation_without_asserts(flags):
    # every bad input raises ValueError with a message, also under -O
    proc = subprocess.run([sys.executable, *flags, "-c", BAD_LIBRARY_INPUT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 44


def test_package_source_has_no_assert():
    # checks that python -O strips would let bad input through
    for path in sorted((ROOT / "src" / "cgfbounds").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Assert), (path.name, node.lineno)
            assert not (isinstance(node, ast.Name)
                        and node.id == "__debug__"), (path.name, node.lineno)
