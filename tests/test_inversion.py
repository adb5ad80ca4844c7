import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cgfbounds import bounds, families as fam
from cgfbounds import inversion as inv
from cgfbounds import upsilon as ups
from cgfbounds import verify as ver
from cgfbounds.conjugate import argmax_zoom
import exact
from poisson_oracle import invert_closed_form_poisson


# -- closed forms --------------------------------------------------------------

def test_poisson_closed_form_frozen():
    # bisection oracle frozen at tol 1e-12
    assert invert_closed_form_poisson(1.0, 1.0) == pytest.approx(
        3.1461932206205825, rel=1e-12)
    assert invert_closed_form_poisson(0.0, 2.5) == 2.5
    assert invert_closed_form_poisson(2.0, 0.0) == 2.0


def test_poisson_closed_form_matches_the_oracle():
    # the vectorized Halley root in w = rho/alpha - 1 against the scalar one
    # in u = rho/alpha, which loses digits as eps/w at a small budget/alpha,
    # and against mpmath's W to 2 ulps, on both sides of the seeds' switch
    # at budget/alpha = 1/2; alpha 0 or tiny gives the budget
    comp = inv.cramer_of(fam.poisson())
    rng = np.random.default_rng(7)
    alpha = rng.uniform(0.01, 20.0, 300)
    budget = np.exp(rng.uniform(-14.0, 6.0, 300))
    closed = comp.exact_inverse(alpha, budget)
    want = [invert_closed_form_poisson(a, b) for a, b in zip(alpha, budget)]
    assert np.all(np.abs(closed - want) <= 1e-11 * np.abs(want))
    rho = inv.invert(comp, alpha, budget).rho
    assert np.all(np.abs(rho - want) <= 1e-11 * np.abs(want))
    c = np.array([1e-12, 1e-6, 0.3, 0.5 - 1e-15, 0.5, 0.7, 40.0, 1e200])
    with mpmath.workdps(50):
        w = [float(-mpmath.lambertw(-mpmath.exp(-1 - mpmath.mpf(x)), -1) - 1)
             for x in c]
    closed = comp.exact_inverse(2.0, 2.0 * c)
    assert np.all(np.abs(closed - [2.0 * (1.0 + x) for x in w])
                  <= 2 * np.spacing(closed))
    assert inv.invert(comp, [0.0, 1e-322], 2.5).rho.tolist() == [2.5, 2.5]


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
    res = inv.invert(comp, 0.2, 0.0)
    assert res.rho == 0.2 and res.status == "budget_nonpositive"


def test_capped_at_domain():
    # Catoni stays finite at p = 1, so a large budget caps there
    comp = inv.catoni(-1.0)
    res = inv.invert(comp, 0.3, 10.0)
    assert res.rho == 1.0 and res.status == "capped_at_domain"


def test_non_monotone_rejected():
    comp = inv.Comparator("bad", lambda q, p: -(p - q), (-math.inf, math.inf))
    with pytest.raises(inv.NonMonotoneComparator):
        inv.invert(comp, 0.0, 1.0)


def test_no_finite_bound():
    comp = inv.Comparator("flat", lambda q, p: 0.0, (0.0, math.inf))
    with pytest.raises(inv.NoFiniteBound):
        inv.invert(comp, 1.0, 0.5)


def test_alpha_outside_range():
    comp = inv.cramer_of(fam.bernoulli())
    with pytest.raises(ValueError):
        inv.invert(comp, 1.5, 0.1)


# "plain" is a run that keeps its asserts; the same source under python -O
# is checked by test_structure.py::test_package_runs_the_same_under_python_o
@pytest.mark.parametrize("mode", ["plain"])
def test_no_finite_bound_reported_without_asserts(mode):
    # lambda/(2 alpha) = 0.375 < 0.5: no finite bound at alpha = 2, reported
    # by a NaN cell and by NoFiniteBound, never by an AssertionError
    comp = inv.cramer_of(fam.invgauss(1.5))
    rho = inv.invert(comp, [2.0, 2.0], [0.5, 0.01]).rho
    assert math.isnan(rho[0]) and math.isfinite(rho[1])
    with pytest.raises(inv.NoFiniteBound):
        inv.invert(comp, 2.0, 0.5)


def test_closed_form_without_finite_root_takes_no_bracket_doubling():
    # invgauss's closed form is +inf at budget 0.5 > lambda/(2 alpha) = 0.375:
    # no finite bound at once, with the bracket (alpha, inf), not after 200
    # doublings of an unbounded range
    comp = inv.cramer_of(fam.invgauss(1.5))
    calls = []
    counted = dataclasses.replace(
        comp, fn=lambda q, p: calls.append(1) or comp.fn(q, p))
    res = inv.invert(counted, [2.0, 2.0], [0.5, 0.01])
    assert len(calls) <= 10
    assert math.isnan(res.rho[0])
    assert res.rho[1] == pytest.approx(2.0 / (1.0 - math.sqrt(0.04 / 1.5)),
                                       rel=1e-14)
    assert list(res.status) == ["no_finite_bound", "converged"]
    assert (res.bracket[0][0], res.bracket[1][0]) == (2.0, math.inf)
    with pytest.raises(inv.NoFiniteBound,
                       match=r"budget 0\.5 not exceeded at any finite rho$"):
        inv.invert(comp, 2.0, 0.5)


def _numbers(res, cell=()):
    """rho, budget, bracket and iterations of a BoundResult, or of one cell
    of an array result, as float bytes: equal only bit for bit."""
    return np.array([np.asarray(v)[cell] for v in (
        res.rho, res.budget, *res.bracket, res.iterations)]).tobytes()


def test_invert_array_query_is_the_zero_d_calls():
    # one door: each cell of an array query holds its 0-d call's numbers
    # and status, and NaN where that call raises; a 0-d call answers in
    # Python floats.  lambda/(2 alpha) = 0.375 < 0.5 at alpha = 2.
    comp = inv.cramer_of(fam.invgauss(1.5))
    alphas, budgets = np.array([0.2, 0.9, 2.0]), np.array([[0.0], [0.3], [0.5]])
    res = inv.invert(comp, alphas, budgets)
    assert res.rho.shape == res.budget.shape == res.status.shape == (3, 3)
    for i, j in np.ndindex(3, 3):
        try:
            one = inv.invert(comp, alphas[j], budgets[i, 0])
        except inv.NoFiniteBound as e:
            assert f"budget {budgets[i, 0]} not exceeded" in str(e)
            assert np.isnan(res.rho[i, j])
            assert res.status[i, j] == "no_finite_bound"
            continue
        assert all(type(v) is float for v in (one.rho, one.budget,
                                              *one.bracket))
        assert type(one.iterations) is int and type(one.status) is str
        assert _numbers(one) == _numbers(res, (i, j))
        assert one.status == res.status[i, j]
    assert set(res.status.flat) == {"budget_nonpositive", "converged",
                                    "no_finite_bound"}


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
    grid = inv.invert(comp, GRID_ALPHAS, GRID_BUDGETS).rho
    want = [[inv.invert(comp, a, b).rho for a in GRID_ALPHAS]
            for b in GRID_BUDGETS[:, 0]]
    assert np.array_equal(grid, want)
    assert np.all(grid <= 0.7) and np.any(grid > 0.69)


def test_grid_with_scalar_only_kl_equals_vectorized_kl():
    kl = inv.binary_kl()
    scalar_kl = inv.custom(lambda q, p: float(kl.eval(float(q), float(p))),
                           kl.loss_range)
    want = inv.invert(kl, GRID_ALPHAS, GRID_BUDGETS).rho
    assert np.array_equal(inv.invert(scalar_kl, GRID_ALPHAS, GRID_BUDGETS).rho,
                          want)


def test_engine_does_not_loop_over_a_scalar_only_comparator():
    # float() of an array raises TypeError: built directly, the comparator
    # fails loudly; only custom retries it cell by cell
    kl = inv.binary_kl()
    comp = inv.Comparator("scalar_kl",
                          lambda q, p: float(kl.eval(float(q), float(p))),
                          kl.loss_range)
    with pytest.raises(TypeError):
        inv.invert(comp, GRID_ALPHAS, GRID_BUDGETS)


# -- parametric comparators -------------------------------------------------------

def test_catoni_exact_at_p_one():
    # ln(1 - p + p e^gamma) -> gamma as p -> 1, without cancellation
    assert inv.catoni(-10.66).eval(1.0, 1.0) == 0.0
    # e^-40 rounds 1 + expm1(gamma) to 0: no log of 0 here
    assert inv.catoni(-40.0).eval(0.5, 1.0) == 20.0


def test_catoni_is_the_bernoulli_cgf_line():
    comp = inv.catoni(-3.0)
    for q in (0.0, 0.4):
        for p in (0.0, 0.3, 0.5, 0.51, 0.9, 1.0):
            want = -3.0 * q - math.log(1.0 - p + p * math.exp(-3.0))
            assert comp.eval(q, p) == pytest.approx(want, rel=1e-14, abs=1e-15)


BUILTIN_COMPARATORS = {
    **{f"cramer[{f.kind}]": inv.cramer_of(f) for f in (
        fam.bernoulli(), fam.gaussian(1.3), fam.poisson(), fam.gamma(2.5),
        fam.laplace(0.8), fam.invgauss(1.7), fam.negbin(3.0))},
    "binary_kl": inv.binary_kl(),
    "scaled_diff[+0.5]": inv.scaled_diff(0.5),
    "scaled_diff[-0.5]": inv.scaled_diff(-0.5),
    "catoni": inv.catoni(-3.0),
    "poisson_diff": inv.poisson_diff(0.7),
    "laplace_diff": inv.laplace_diff(0.3, 1.0),
    "gaussian_diff": inv.gaussian_diff(0.5, 1.3),
}


def _five_points(lo, hi):
    """Five points of the loss range [lo, hi], each finite end among them."""
    if math.isfinite(hi):
        return np.linspace(lo, hi, 5)
    if math.isfinite(lo):
        return lo + np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    return np.array([-3.0, -1.0, 0.0, 0.5, 2.0])


@pytest.mark.parametrize("name", sorted(BUILTIN_COMPARATORS))
def test_builtin_comparator_broadcasts(name):
    # the engine calls a built-in comparator once on whole arrays and never
    # retries it cell by cell: the (q, p) grid must hold the scalar calls'
    # doubles, closed ends of the loss range included
    comp = BUILTIN_COMPARATORS[name]
    pts = _five_points(*comp.loss_range)
    got = np.asarray(comp.eval(pts[:, None], pts), dtype=float)
    want = np.array([[float(comp.eval(q, p)) for p in pts.tolist()]
                     for q in pts.tolist()])
    assert got.shape == (5, 5) and got.tobytes() == want.tobytes()


# cramer_of's comparator: cells with every p inside the open mean domain and
# every q in its closure skip family.cramer's checks; any other call makes
# them, and applies the point-mass rule at the domain's ends

def _cramer_comp(kind):
    comp = BUILTIN_COMPARATORS[f"cramer[{kind}]"]
    pts = _five_points(*comp.loss_range)
    lo, hi = comp.loss_range
    return comp, comp.params["family"], pts, pts[(pts > lo) & (pts < hi)]


@pytest.mark.parametrize("kind", fam.FAMILY_KINDS)
def test_cramer_of_interior_cells_are_family_cramers_doubles(kind,
                                                             monkeypatch):
    comp, family, q, p = _cramer_comp(kind)
    want = family.cramer(q[:, None], p)
    want_0d = [[family.cramer(a, b) for b in p.tolist()] for a in q.tolist()]

    def refuse(self, q, p):
        raise AssertionError("an interior cell reached family.cramer")

    monkeypatch.setattr(fam.BoundingFamily, "cramer", refuse)
    assert comp.eval(q[:, None], p).tobytes() == want.tobytes()
    for a, row in zip(q.tolist(), want_0d):
        for b, w in zip(p.tolist(), row):
            for args in ((a, b), (np.float64(a), np.asarray(b))):
                got = comp.eval(*args)
                assert type(got) is float and (
                    np.float64(got).tobytes() == np.float64(w).tobytes())


@pytest.mark.parametrize("kind", fam.FAMILY_KINDS)
def test_cramer_of_refuses_as_family_cramer(kind):
    comp, family, _, inside = _cramer_comp(kind)
    lo, hi = comp.loss_range
    mid = float(inside[1])
    outer = [x for x in (lo - 1.0, hi + 1.0) if math.isfinite(x)]
    for p in [math.nan] + outer:
        for pp in (p, np.array([mid, p])):
            with pytest.raises(ValueError) as exc:
                comp.eval(mid, pp)
            assert str(exc.value) == (
                f"mean {pp} outside the open domain of {kind}")
    for q in outer:
        for qq in (q, np.array([mid, q])):
            with pytest.raises(ValueError) as exc:
                comp.eval(qq, mid)
            assert str(exc.value) == (
                f"q={qq} outside the loss range of {kind}")


@pytest.mark.parametrize("kind", [k for k in fam.FAMILY_KINDS
                                  if k not in ("gaussian", "laplace")])
def test_cramer_of_is_the_point_mass_at_a_domain_end(kind):
    comp, family, q, inside = _cramer_comp(kind)
    ends = [e for e in comp.loss_range if math.isfinite(e)]
    for end in ends:
        assert comp.eval(end, end) == 0.0
        assert comp.eval(float(inside[0]), end) == math.inf
        got = comp.eval(q[:, None], np.array([end, inside[0]]))
        assert got[:, 0].tolist() == [0.0 if x == end else math.inf
                                      for x in q.tolist()]
        assert got[:, 1].tobytes() == family.cramer(q, inside[0]).tobytes()


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


# -- one-parameter infima ---------------------------------------------------------

def test_gaussian_diff_infimum_analytic():
    # inf_t [alpha + (budget + sigma2 t^2/2)/t] = alpha + sqrt(2 sigma2 budget)
    sigma2, alpha, beta, n = 0.25, 0.3, 2.0, 100
    res = inv.infimum_over_parameter(lambda t: inv.gaussian_diff(t, sigma2),
                                     alpha, inv.budget(beta, n), (1e-8, 100.0))
    want = alpha + math.sqrt(2 * sigma2 * beta / n)
    assert res.rho == pytest.approx(want, rel=1e-9)
    assert res.param_star == pytest.approx(math.sqrt(2 * (beta / n) / sigma2), rel=1e-3)


def test_poisson_diff_infimum_zero_beta():
    # at budget 0 the infimum over t approaches alpha from above as t -> 0
    res = inv.infimum_over_parameter(inv.poisson_diff, 1.0, inv.budget(0.0, 50),
                                     (1e-4, 200.0))
    assert res.rho >= 1.0
    assert res.rho == pytest.approx(1.0, rel=1e-3)


def test_infimum_all_capped_returns_cap():
    res = inv.infimum_over_parameter(lambda m: inv.catoni(-m), 0.3,
                                     inv.budget(1000.0, 1), (1e-3, 50.0))
    assert res.rho == 1.0 and res.status == "capped_at_domain"


def test_infimum_all_divergent_raises():
    def make(t):
        return inv.Comparator("flat", lambda qq, pp: 0.0 * t, (0.0, math.inf))

    with pytest.raises(inv.NoFiniteBound):
        inv.infimum_over_parameter(make, 1.0, inv.budget(10.0, 10), (0.1, 10.0))


def test_infimum_array_query_gives_nan_where_no_bound():
    # the flat comparator of the test above has no finite bound at any
    # parameter; for q >= 1 this one is flat, below it the plain difference.
    # Only a cell with a winning parameter takes part in the last solve.
    shapes = []

    def make(t):
        shapes.append(np.shape(t))
        return inv.Comparator(
            "flat_from_1", lambda qq, pp: np.where(qq < 1.0, t * (pp - qq), 0.0),
            (0.0, math.inf))

    def flat(t):
        shapes.append(np.shape(t))
        return inv.Comparator("flat", lambda qq, pp: 0.0 * t, (0.0, math.inf))

    res = inv.infimum_over_parameter(make, np.array([0.5, 1.0, 2.0]),
                                     inv.budget(10.0, 10), (0.1, 10.0))
    assert np.isnan(res.rho[1:]).all() and np.isnan(res.param_star[1:]).all()
    assert list(res.status) == ["converged", "no_finite_bound", "no_finite_bound"]
    assert res.rho[0] == pytest.approx(0.5 + 1.0 / 10.0, rel=1e-8)
    assert shapes[0] == (3, 64) and shapes[-1] == (1, 1)
    shapes.clear()
    res = inv.infimum_over_parameter(flat, np.array([0.5, 1.0]),
                                     inv.budget(10.0, 10), (0.1, 10.0))
    assert np.isnan(res.rho).all() and np.isnan(res.param_star).all()
    assert list(res.status) == ["no_finite_bound"] * 2
    assert shapes == [(2, 64)]


def test_infimum_no_finite_parameters_never_win_the_scan():
    # parameters below 1 have no finite bound (NaN from the bisection); if
    # NaN won np.argmax the scan would settle on t = 0.1 and report NaN
    def make(t):
        return inv.Comparator(
            "flat_below_1", lambda qq, pp: np.where(t >= 1.0, t * (pp - qq), 0.0),
            (0.0, math.inf))

    res = inv.infimum_over_parameter(make, 0.5, inv.budget(10.0, 10),
                                     (0.1, 10.0))
    assert res.rho == pytest.approx(0.5 + 1.0 / 10.0, rel=1e-8)
    assert res.param_star == pytest.approx(10.0, rel=1e-9)
    assert res.status == "converged"


def test_infimum_refuses_a_scalar_only_make_comp():
    # make_comp gets an array of parameters; a comparator that takes only
    # scalar (q, p) but holds that array must fail loudly, not report alpha
    def make(t):
        return inv.custom(lambda q, p: t * (float(p) - float(q)), (0.0, math.inf))

    with pytest.raises(ValueError, match="answered one cell with shape"):
        inv.infimum_over_parameter(make, 0.5, inv.budget(1.0, 10), (0.1, 10.0))


# the selfcheck grids, one per CGF line: alphas, make_comp, param_range
_BONS = np.geomspace(1e-3, 2.0, 10)
INFIMUM_GRIDS = {
    "catoni": (np.linspace(0.02, 0.9, 10), lambda m: inv.catoni(-m),
               (1e-3, 50.0)),
    "laplace_diff": (np.linspace(0.0, 2.0, 10),
                     lambda t: inv.laplace_diff(t, 1.0), (1e-8, 1.0 - 1e-12)),
    "gaussian_diff": (np.linspace(-3.0, 3.0, 10),
                      lambda t: inv.gaussian_diff(t, 1.0), (1e-8, 100.0)),
    "poisson_diff": (np.geomspace(0.1, 5.0, 10), inv.poisson_diff,
                     (1e-4, 200.0)),
}


def _per_cell_infimum(make_comp, alpha, budget, param_range):
    """(rho, param_star) as the infimum was computed before it broadcast:
    one cell at a time, each round's parameter values made one by one and
    inverted in one invert call, a value without a finite bound +inf."""
    lo, hi = param_range
    xs = np.linspace(math.log(lo), math.log(hi), 64)

    def neg_rho(x):
        params = np.array([math.exp(v) for v in x])
        rho = inv.invert(make_comp(params), np.full(len(x), alpha), budget).rho
        return -np.where(np.isnan(rho), math.inf, rho)

    x, v = argmax_zoom(lambda zs, rows: neg_rho(zs[0])[None], xs,
                       neg_rho(xs)[None])
    return -float(v[0]), math.exp(x[0])


def _selfcheck_query(alphas, n=100):
    """(alpha, budget) of selfcheck's grid."""
    a, beta = np.meshgrid(alphas, _BONS * n, indexing="ij")
    return a, inv.budget(beta, n)


@pytest.mark.parametrize("line", sorted(INFIMUM_GRIDS))
def test_batched_infimum_equals_the_per_cell_loop(line):
    # The batched parameter is np.exp(x) where the loop took math.exp(x),
    # and the two differ by an ulp on a few inputs: rho agrees within 4 ulp.
    # Near its minimum the bound is flat to rounding, so the zoom may settle
    # on another point of equal rho: param_star agrees within 1e-6.
    alphas, make, param_range = INFIMUM_GRIDS[line]
    alpha, budget = _selfcheck_query(alphas)
    res = inv.infimum_over_parameter(make, alpha, budget, param_range)
    assert res.rho.shape == res.param_star.shape == (10, 10)
    assert (res.status == "converged").all()
    want = np.array([_per_cell_infimum(make, a, b, param_range) for a, b in
                     zip(alpha.ravel(), budget.ravel())]).T
    rho, param_star = want.reshape(2, 10, 10)
    assert np.all(np.abs(res.rho - rho) <= 4 * np.spacing(np.abs(rho)))
    assert res.param_star == pytest.approx(param_star, rel=1e-6)


def test_zero_d_infimum_gives_floats():
    for make in (lambda m: inv.catoni(-m),
                 lambda m: dataclasses.replace(inv.catoni(-m),
                                               exact_inverse=None)):
        res = inv.infimum_over_parameter(make, 0.3, inv.budget(5.0, 100),
                                         (1e-3, 50.0))
        assert all(type(v) is float for v in
                   (res.rho, res.budget, *res.bracket, res.param_star))
        assert type(res.iterations) is int and res.status == "converged"


@pytest.mark.parametrize("alpha", [0.3, np.linspace(0.02, 0.9, 5)])
@pytest.mark.parametrize("closed", [True, False])
def test_infimum_builds_one_comparator_a_round(alpha, closed):
    # one for the 64-point scan, one per zoom round (at most 12), and one
    # last at each cell's winning parameter
    shapes = []

    def make(m):
        shapes.append(np.shape(m))
        comp = inv.catoni(-m)
        return comp if closed else dataclasses.replace(comp, exact_inverse=None)

    inv.infimum_over_parameter(make, alpha, inv.budget(5.0, 100), (1e-3, 50.0))
    assert 3 <= len(shapes) <= 1 + 12 + 1
    assert shapes[0] == (np.size(alpha), 64)
    assert all(s[1] == 17 for s in shapes[1:-1])
    assert shapes[-1] == (np.size(alpha), 1)


@pytest.mark.parametrize("param_range", [(0.0, 1.0), (-1.0, 1.0),
                                         (math.nan, 1.0), (1e-3, math.inf),
                                         (1e-3, math.nan)])
def test_infimum_refuses_a_param_range_end_not_finite_above_0(param_range):
    calls = []

    def make(t):
        calls.append(t)
        return inv.scaled_diff(t)

    with pytest.raises(ValueError, match="param_range ends must be finite and "
                       "above 0"):
        inv.infimum_over_parameter(make, 0.5, inv.budget(1.0, 10), param_range)
    assert calls == []


def test_infimum_takes_param_range_ends_in_either_order():
    alpha, budget = np.linspace(0.02, 0.9, 5), inv.budget(2.3, 100)
    up = inv.infimum_over_parameter(lambda m: inv.catoni(-m), alpha, budget,
                                    (1e-3, 50.0))
    down = inv.infimum_over_parameter(lambda m: inv.catoni(-m), alpha, budget,
                                      (50.0, 1e-3))
    assert down.rho == pytest.approx(up.rho, rel=1e-12)


def test_infimum_without_closed_form_bisects_in_one_batch():
    # catoni stripped of its exact_inverse: every round is one _bisect over
    # the broadcast grid, within the bisection tolerance of the closed form
    def bisected(m):
        return dataclasses.replace(inv.catoni(-m), exact_inverse=None)

    alpha, budget = _selfcheck_query(np.linspace(0.02, 0.9, 4))
    closed = inv.infimum_over_parameter(lambda m: inv.catoni(-m), alpha, budget,
                                        (1e-3, 50.0))
    res = inv.infimum_over_parameter(bisected, alpha, budget, (1e-3, 50.0))
    assert np.all(np.abs(res.rho - closed.rho) <= 2e-9)
    assert np.all(res.rho <= closed.rho + 1e-15)    # lo, the feasible end
    # each cell's bracket, steps and status are those of one inversion at
    # its best parameter
    for i in (0, 17, 39):
        a, b = alpha.flat[i], budget.flat[i]
        one = inv.invert(bisected(res.param_star.flat[i]), a, b)
        assert (one.rho, one.bracket, one.iterations, one.status) == (
            res.rho.flat[i], (res.bracket[0].flat[i], res.bracket[1].flat[i]),
            res.iterations.flat[i], res.status.flat[i])
        zero_d = inv.infimum_over_parameter(
            bisected, a, inv.budget(b * 100, 100), (1e-3, 50.0))
        assert zero_d.rho == pytest.approx(one.rho, abs=2e-9)
        # the closed form's cell is invert's at its best parameter: the
        # feasible closed-form root, with bracket (rho, rho) and 0 steps
        comp = inv.catoni(-closed.param_star.flat[i])
        one = inv.invert(comp, a, b)
        assert (one.rho, one.bracket, one.iterations, one.status) == (
            closed.rho.flat[i], (closed.bracket[0].flat[i],
                                 closed.bracket[1].flat[i]),
            closed.iterations.flat[i], closed.status.flat[i])
        assert one.bracket == (one.rho, one.rho) and one.iterations == 0
        assert comp.eval(a, one.rho) <= b


def _outcome(call):
    """What a call gives: its BoundResult, or its exception's type and text."""
    try:
        return call()
    except Exception as e:      # compared, not hidden
        return type(e), str(e)


# make_comp, alpha, budget, param_range: a closed form at each of the
# engine's rules (loss range, finite alpha, nonpositive budget, monotonicity)
# and at each status a finite budget gives it (converged, capped)
DIVERGENCES = {
    "converged": (lambda m: inv.catoni(-m), 0.3, 0.1, (1e-3, 50.0)),
    "capped": (lambda m: inv.catoni(-m), 0.3, 10.0, (1e-3, 50.0)),
    "alpha-below-range": (lambda m: inv.catoni(-m), -0.5, 0.1, (1e-3, 50.0)),
    "alpha-above-range": (lambda m: inv.catoni(-m), 2.0, 0.1, (1e-3, 50.0)),
    "budget-negative": (lambda m: inv.catoni(-m), 0.3, -0.05, (1e-3, 50.0)),
    "budget-far-below": (lambda m: inv.catoni(-m), 0.3, -1e3, (1e-3, 50.0)),
    "budget-zero": (lambda m: inv.catoni(-m), 0.0, 0.0, (1e-3, 50.0)),
    "decreasing-lines": (inv.catoni, 0.3, 0.1, (1e-3, 50.0)),
    "alpha-minus-inf": (lambda t: inv.laplace_diff(t, 1.0), -math.inf, 0.1,
                        (1e-8, 1.0 - 1e-12)),
    "alpha-plus-inf": (lambda t: inv.laplace_diff(t, 1.0), math.inf, 0.1,
                       (1e-8, 1.0 - 1e-12)),
}


@pytest.mark.parametrize("case", sorted(DIVERGENCES))
def test_closed_form_keeps_the_engine_rules(case):
    # a comparator's exact_inverse changes no refusal and no status: invert
    # and the infimum give what the same comparator gives without it
    make, alpha, budget, param_range = DIVERGENCES[case]
    bisected = lambda m: dataclasses.replace(make(m), exact_inverse=None)
    for query in (lambda m: inv.invert(m(1.0), alpha, budget),
                  lambda m: inv.infimum_over_parameter(m, alpha, budget,
                                                       param_range)):
        got = _outcome(lambda: query(make))
        want = _outcome(lambda: query(bisected))
        if isinstance(want, inv.BoundResult):
            assert got.status == want.status
            assert got.rho == pytest.approx(want.rho, abs=inv._TOL)
        else:
            assert got == want


# each closed-form constructor from u, v in [0, 1], and its alpha range
CLOSED_FORMS = {
    "catoni": (lambda u, v: inv.catoni(-1e-3 * 5e4 ** u), (0.0, 1.0)),
    "scaled_diff": (lambda u, v: inv.scaled_diff(1e-3 * 1e4 ** u),
                    (-10.0, 10.0)),
    "poisson_diff": (lambda u, v: inv.poisson_diff(1e-3 * 2e4 ** u),
                     (0.0, 10.0)),
    "laplace_diff": (lambda u, v: inv.laplace_diff(
        (1e-3 + 0.998 * u) / (0.1 * 30.0 ** v), 0.1 * 30.0 ** v),
        (-10.0, 10.0)),
    "gaussian_diff": (lambda u, v: inv.gaussian_diff(1e-3 * 1e4 ** u,
                                                     0.1 * 40.0 ** v),
                      (-10.0, 10.0)),
}


@pytest.mark.parametrize("budget", [0.05, 10.0])
def test_closed_form_is_kept_in_the_loss_range(budget):
    # a caller's closed form past the top of the range is clipped to it:
    # capped where the top is feasible, else stepped and then bisected
    comp = dataclasses.replace(inv.catoni(-1.0),
                               exact_inverse=lambda a, b: 2.0 + 0.0 * a)
    got = inv.invert(comp, 0.3, budget)
    want = inv.invert(dataclasses.replace(comp, exact_inverse=None), 0.3,
                      budget)
    assert (got.rho, got.status) == (want.rho, want.status)


# -- the safe side, against the exact root ------------------------------------

# each comparator that exact.form knows, from u, v in [0, 1], and its alphas
ORACLE = {
    **{f"cramer[{name}]": (lambda u, v, f=f: inv.cramer_of(f(0.1 * 40.0 ** v)),
                           box) for name, f, box in (
        ("bernoulli", lambda x: fam.bernoulli(), (0.0, 1.0)),
        ("gaussian", fam.gaussian, (-10.0, 10.0)),
        ("poisson", lambda x: fam.poisson(), (0.0, 10.0)),
        ("gamma", fam.gamma, (0.0, 10.0)),
        ("laplace", fam.laplace, (-10.0, 10.0)),
        ("invgauss", fam.invgauss, (0.0, 10.0)),
        ("negbin", fam.negbin, (0.0, 10.0)))},
    "binary_kl": (lambda u, v: inv.binary_kl(), (0.0, 1.0)),
    **CLOSED_FORMS,
}

# each comparator through invert, 0-d and on an array, and settle mode; the
# Cramer ones through bound_values too, the CGF lines through the infimum
ORACLE_CASES = ([(name, path) for name in sorted(ORACLE)
                 for path in ("invert", "settle")]
                + [(name, "bound_values") for name in sorted(ORACLE)
                   if name.startswith("cramer") or name == "binary_kl"]
                + [(line, "infimum") for line in sorted(INFIMUM_GRIDS)])


def _edges(comp, alpha, budget, rho=math.nan):
    """(rho* - width, rho*, rho* + 2 ulp(max(1, |alpha|, |rho*|))), width
    _bisect's stopping width; None where rho* is +inf (no finite bound)."""
    star = exact.supremum(comp, alpha, budget, rho)
    if star == mpmath.inf:
        return None
    scale = max(1.0, abs(float(star)))
    width = inv._TOL * (scale if comp.loss_range[1] == math.inf else 1.0)
    with mpmath.workdps(exact.DIGITS):
        return star - width, star, star + 2 * np.spacing(max(scale, abs(alpha)))


def _settle_losses(edges):
    """Losses settle mode must call not exceeded and exceeded if rho lies
    within edges: the least double at or above the low edge, the one after
    the greatest at or below the high edge; +inf twice, never exceeded."""
    if edges is None:
        return [math.inf, math.inf], [False, False]
    low, high = float(edges[0]), float(edges[2])
    low = low if low >= edges[0] else math.nextafter(low, math.inf)
    high = high if high <= edges[2] else math.nextafter(high, -math.inf)
    return [low, math.nextafter(high, math.inf)], [False, True]


def _invert_cells(comp, alpha, budget):
    """invert's rho, each cell the numbers and status of its 0-d call in
    floats, NaN where it raises; a closed form converges with no step."""
    res = inv.invert(comp, alpha, budget)
    for i, (a, b) in enumerate(zip(alpha.tolist(), budget.tolist())):
        try:
            one = inv.invert(comp, a, b)
        except inv.NoFiniteBound:
            assert res.status[i] == "no_finite_bound"
            continue
        assert {type(x) for x in (one.rho, one.budget, *one.bracket)} == {float}
        assert type(one.iterations) is int and one.status == res.status[i]
        assert _numbers(one) == _numbers(res, i)
        if comp.exact_inverse is not None and one.status == "converged":
            assert one.iterations == 0 and one.bracket == (one.rho, one.rho)
    return res.rho


@given(case=st.sampled_from(ORACLE_CASES), closed=st.booleans(),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       cells=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-300.0, 3.0)),
                      min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_every_door_errs_on_the_safe_side_of_the_exact_root(case, closed, u,
                                                            v, cells):
    # rho* - width <= rho <= rho* + 2 ulp(max(1, |alpha|, |rho*|)), rho* the
    # exact root, budgets from 1e-300 to 1e3; a float comp(alpha, rho) <=
    # budget passes wherever the float comparator errs low.  Where |alpha| >
    # |rho*| the ulp is alpha's, as a closed form alpha + X rounds X on that
    # scale: scaled_diff(0.1) at alpha -10, budget 1 gives 0.0 > rho* =
    # -5.55e-16.  closed=False strips the closed forms.
    name, path = case
    make, (lo, hi) = ORACLE[name]
    strip = (lambda c: c) if closed else (
        lambda c: dataclasses.replace(c, exact_inverse=None))
    comp = strip(make(u, v))
    a, e = np.array(cells).T
    alpha, budget = lo + (hi - lo) * a, 10.0 ** e
    comps = [comp] * len(alpha)
    if path == "invert":
        rho = _invert_cells(comp, alpha, budget)
    elif path == "bound_values":
        kind = "catoni_inf" if name == "binary_kl" else "average_cramer"
        rho = bounds.bound_values(kind, comp.params["family"], alpha, budget,
                                  1)
    elif path == "infimum":
        _, line, param_range = INFIMUM_GRIDS[name]
        res = inv.infimum_over_parameter(lambda m: strip(line(m)), alpha,
                                         budget, param_range)
        rho, comps = res.rho, [line(m) for m in res.param_star.tolist()]
    else:   # settle mode, the converged rho only the oracle's Newton start
        rho = inv._bisect(comp, alpha, budget)[0]
        losses, want = zip(*(_settle_losses(_edges(comp, *cell)) for cell in
                             zip(alpha.tolist(), budget.tolist(), rho.tolist())))
        got = inv._bisect(comp, np.repeat(alpha, 2), np.repeat(budget, 2),
                          np.ravel(losses))
        assert got.tolist() == list(np.ravel(want)), (alpha, budget, rho)
        return
    for c, a, b, r in zip(comps, alpha.tolist(), budget.tolist(),
                          rho.tolist()):
        edges = _edges(c, a, b, r)
        where = f"{c.form} at alpha={a!r}, budget={b!r}: rho={r!r}"
        if edges is None:
            assert math.isnan(r), f"{where}, rho* = +inf"
        else:
            assert edges[0] <= r <= edges[2], (
                f"{where}, rho - rho* = {float(r - edges[1]):.3g}")


# -- array-valued CGF lines ------------------------------------------------------

# constructor of an array parameter, good entries, a bad entry, its message
ARRAY_LINES = {
    "catoni": (inv.catoni, [-50.0, -1.3, -1e-3, 2.0], -709.5,
               r"catoni needs 0 < \|gamma\| < 709, got -709.5$"),
    "poisson_diff": (inv.poisson_diff, [1e-3, 0.7, 10.0], 0.0,
                     r"poisson_diff needs t > 0, got 0.0$"),
    "laplace_diff": (lambda t: inv.laplace_diff(t, 2.0), [1e-3, 0.2, 0.49],
                     0.5, r"needs 0 < t < 1/b, got t=0.5, b=2.0$"),
    "gaussian_diff": (lambda t: inv.gaussian_diff(t, 0.5), [1e-3, 0.5, 2.0],
                      math.nan, r"got t=nan, sigma2=0.5$"),
}


@pytest.mark.parametrize("line", sorted(ARRAY_LINES))
def test_array_constructor_names_its_bad_entry(line):
    make, good, bad, message = ARRAY_LINES[line]
    with pytest.raises(ValueError, match=message):
        make(np.array([good[0], bad, good[-1]]))
    with pytest.raises(ValueError, match=message):
        make(bad)


@pytest.mark.parametrize("line", sorted(ARRAY_LINES))
def test_array_constructor_matches_the_scalar_ones(line):
    make, good, _, _ = ARRAY_LINES[line]
    params = np.array(good)
    comp = make(params)
    if line == "catoni":
        q, p = np.array([0.0, 0.1, 0.5, 1.0]), np.array([0.05, 0.3, 0.9, 1.0])
    else:
        q, p = np.array([0.0, 0.4, 1.0, 3.0]), np.array([0.2, 0.5, 2.0, 3.5])
    alpha, budget = q[:, None], np.array([0.01, 0.3, 1.0, 2.0])[:, None]
    got_eval = comp.eval(q[:, None], p[:, None])
    got_inv = comp.exact_inverse(alpha, budget)
    assert got_eval.shape == got_inv.shape == (4, len(good))
    for j, v in enumerate(good):
        one = make(v)
        want_eval = one.eval(q, p)
        want_inv = one.exact_inverse(alpha[:, 0], budget[:, 0])
        scale = np.maximum(np.abs(want_eval), abs(v) * np.maximum(q, p))
        assert np.all(np.abs(got_eval[:, j] - want_eval) <= 4e-16 * scale)
        assert np.all(np.abs(got_inv[:, j] - want_inv)
                      <= 2 * np.spacing(np.abs(want_inv)))


@pytest.mark.parametrize("line", sorted(ARRAY_LINES))
def test_settle_mode_over_parameters_of_the_query_shape(line):
    # a CGF line whose parameter array has the query's shape: settle mode
    # gives the booleans losses > rho of the converged inversion
    make, good, _, _ = ARRAY_LINES[line]
    good = [v for v in good if v < 0] if line == "catoni" else good
    comp = make(np.tile(good, (5, 1)))
    alpha = np.broadcast_to(np.linspace(0.05, 0.9, 5)[:, None], (5, len(good)))
    budget = np.geomspace(0.01, 2.0, 5)[:, None]
    rho = inv._bisect(comp, alpha, budget)[0]
    pick = np.arange(rho.size).reshape(rho.shape) % 5
    losses = np.choose(pick, [rho, np.nextafter(rho, math.inf),
                              np.nextafter(rho, -math.inf), rho + 0.01,
                              np.full(rho.shape, math.nan)])
    got = inv._bisect(comp, alpha, budget, losses)
    assert np.array_equal(got, losses > rho)


def test_scalar_constructors_keep_float_params():
    # compute_upsilon's cgf_line rule and the CLI see float params, whatever
    # number type the caller passed
    for comp in (inv.catoni(-2), inv.catoni(np.float64(-2.0)),
                 inv.poisson_diff(1), inv.laplace_diff(np.float32(0.5), 1.0),
                 inv.gaussian_diff(2, 0.5)):
        assert all(type(v) is float for v in comp.params.values()
                   if not isinstance(v, tuple))
    assert inv.catoni(-2).params["gamma"] == -2.0


# -- budget assembly ---------------------------------------------------------------

def test_budget_modes():
    # the per-correction budgets are checked at the bounds layer
    assert inv.budget(3.0, 10) == pytest.approx(0.3, rel=1e-14)
    assert inv.budget(3.0, 10, delta=0.05) == pytest.approx(
        (3.0 - math.log(0.05)) / 10, rel=1e-14)
    assert inv.budget(3.0, 10, delta=0.05, ln_iota=1.7) == pytest.approx(
        (3.0 + 1.7 - math.log(0.05)) / 10, rel=1e-14)


BUDGET_INPUTS = {  # beta, n, ln_iota
    "scalar": (3.0, 10, 1.7),
    "int-scalar": (2, 7, 0.0),
    "list-beta": ([0.0, 1.0, 2.5], 10, 0.4),
    "list-n": (2.3, [10, 100, 1000], 0.0),
    "list-ln-iota": (2.3, 50, [0.0, 0.5, 3.1]),
    "arrays": (np.array([[0.1], [4.0]]), np.array([7, 70, 700]),
               np.array([0.3, 0.0, 2.2])),
}


@pytest.mark.parametrize("delta", [None, 0.05], ids=["average", "pac"])
@pytest.mark.parametrize("case", sorted(BUDGET_INPUTS))
def test_budget_is_the_inline_formula(case, delta):
    # (beta + ln_iota - ln delta)/n in that order of operations, the same
    # doubles, broadcast over every input
    beta, n, ln_iota = BUDGET_INPUTS[case]
    want = np.asarray(beta, dtype=float) + np.asarray(ln_iota, dtype=float)
    if delta is not None:
        want = want - math.log(delta)
    want = want / np.asarray(n, dtype=float)
    got = inv.budget(beta, n, delta, ln_iota)
    assert np.shape(got) == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf,
                                    [0.1, math.nan]])
@pytest.mark.parametrize("closed", [True, False])
def test_infimum_refuses_a_budget_that_is_not_finite(budget, closed):
    # as invert does, a closed form too, before any comparator is built
    built = []

    def make(m):
        built.append(m)
        comp = inv.catoni(-m)
        return comp if closed else dataclasses.replace(comp, exact_inverse=None)

    with pytest.raises(ValueError, match="^budget must be finite, got "):
        inv.infimum_over_parameter(make, 0.3, budget, (1e-3, 50.0))
    with pytest.raises(ValueError, match="^budget must be finite, got "):
        inv.invert(make(1.0), 0.3, budget)
    assert len(built) == 1


def test_pac_dominates_average():
    comp = inv.cramer_of(fam.bernoulli())
    avg, pac = (inv.invert(comp, 0.2, inv.budget(1.0, 30, delta))
                for delta in (None, 0.1))
    assert pac.rho >= avg.rho


def test_query_validation():
    with pytest.raises(ValueError, match="beta"):
        inv.budget(-1.0, 10)
    with pytest.raises(ValueError, match="n must"):
        inv.budget(1.0, 0)
    with pytest.raises(ValueError, match="delta"):
        inv.budget(1.0, 10, delta=1.5)
    with pytest.raises(ValueError, match="beta must be finite .* got inf"):
        inv.budget(math.inf, 10)
    with pytest.raises(ValueError, match=r"beta must be finite .*inf\]"):
        inv.budget([1.0, math.inf], 10)
    with pytest.raises(ValueError, match="beta must be finite .* got nan"):
        inv.budget(math.nan, 10)
    with pytest.raises(ValueError, match="ln_iota must be finite, got -inf"):
        inv.budget(1.0, 10, ln_iota=-math.inf)
    with pytest.raises(ValueError,
                       match=r"budget must be finite, got .*nan\]"):
        inv.invert(inv.binary_kl(), [0.1, 0.2], [0.5, math.nan])


@pytest.mark.parametrize("n", [0, -3, 2.5, math.nan, math.inf])
def test_check_n_rejects_what_is_no_sample_size(n):
    # n = inf would make every budget 0 and rho = alpha, an unsafe bound
    with pytest.raises(ValueError, match=rf"^n must be at least 1.*, got {n}$"):
        inv.check_n(n)
    with pytest.raises(ValueError, match=rf"n must be at least 1.*, got {n}$"):
        inv.budget(1.0, n)
    with pytest.raises(ValueError,
                       match=rf"n must be at least 1.*, got {float(n)}$"):
        inv.check_n(np.array([10.0, n, 20.0]))   # names the bad element


@pytest.mark.parametrize("n", [1, 100, 100.0, np.array([1, 7, 100]),
                               np.array([[1.0], [2.0]])])
def test_check_n_accepts_integral_sample_sizes(n):
    inv.check_n(n)
    assert inv.budget(1.0, n) == pytest.approx(1.0 / n)


# bad input, each refused by a ValueError with a message; each case is named
# for the call it makes and the input that call refuses
BAD_LIBRARY_INPUT = {
    "budget-beta": lambda: inv.budget(-1.0, 10),
    "budget-n": lambda: inv.budget(1.0, 0),
    "budget-delta": lambda: inv.budget(1.0, 10, delta=1.5),
    "kind-mls-gaussian": lambda: bounds.evaluate_kind(
        "mls", fam.gaussian(1.0), 0.2, 1.0, 20, 0.05),
    "kind-mls-delta": lambda: bounds.evaluate_kind("mls", None, 0.2, 1.0, 20),
    "kind-u": lambda: bounds.evaluate_kind(
        "pac_cramer_two_e_ceil", fam.bernoulli(), 0.2, 1.0, 20, 0.05, u=-1.0),
    "catoni-gamma": lambda: inv.catoni(0.0),
    "poisson_diff-t": lambda: inv.poisson_diff(0.0),
    "gaussian_diff-t": lambda: inv.gaussian_diff(-1.0, 1.0),
    "gaussian_diff-sigma2": lambda: inv.gaussian_diff(0.5, float("nan")),
    "laplace_diff-b": lambda: inv.laplace_diff(0.5, 0.0),
    "gaussian-sigma2": lambda: fam.gaussian(float("nan")),
    "gamma-k": lambda: fam.gamma(float("inf")),
    "laplace_diff-t": lambda: inv.laplace_diff(2.0, 1.0),
    "infimum-param-range": lambda: inv.infimum_over_parameter(
        inv.poisson_diff, 1.0, inv.budget(1.0, 10), (0.0, 1.0)),
    "upsilon-n": lambda: ups.compute_upsilon(inv.binary_kl(), fam.bernoulli(), 0),
    "bernoulli-exact-r-grid": lambda: ups.upsilon_bernoulli_exact(
        inv.binary_kl(), 4, r_grid=(0.0, 0.5)),
    "bernoulli-exact-comparator": lambda: ups.upsilon_bernoulli_exact(
        inv.custom(lambda q, p: q + float("inf"), (0.0, 1.0)), 4),
    "correction_xi": lambda: ups.correction_xi(-1.0, 0.0),
    "problem-m": lambda: ver.SyntheticProblem(
        (0.5,), (1.0,), fam.bernoulli(), 1.0, 10, 5, 0),
    "problem-trials": lambda: ver.SyntheticProblem(
        (0.2, 0.5), (0.5, 0.5), fam.bernoulli(), 1.0, 10, 0, 0),
    "trials-chernoff-gaussian": lambda: ver.run_trials(ver.SyntheticProblem(
        (0.2, 0.5), (0.5, 0.5), fam.gaussian(1.0), 1.0, 10, 5, 0),
        "pac_cramer_chernoff"),
    "budget-beta-inf": lambda: inv.budget(float("inf"), 10),
    "budget-ln-iota": lambda: inv.budget(1.0, 10, ln_iota=float("nan")),
    "invert-budget": lambda: inv.invert(inv.binary_kl(), 0.1, float("nan")),
    "problem-means": lambda: ver.SyntheticProblem(
        (0.2, 1.5), (0.5, 0.5), fam.bernoulli(), 1.0, 10, 5, 0),
    "samplewise-gaussian": lambda: ver.run_samplewise_comparison(
        ver.SyntheticProblem((0.2, 0.5), (0.5, 0.5), fam.gaussian(1.0), 1.0,
                             10, 5, 0)),
    "samplewise-m": lambda: ver.run_samplewise_comparison(ver.SyntheticProblem(
        (0.5,) * 13, (1.0 / 13,) * 13, fam.bernoulli(), 1.0, 10, 5, 0)),
    "kind-cramer-family": lambda: bounds.evaluate_kind(
        "average_cramer", None, 0.2, 1.0, 20),
    "kind-xi-family": lambda: bounds.evaluate_kind(
        "pac_cramer_xi", None, 0.2, 1.0, 20, 0.05),
    "values-cramer-family": lambda: bounds.bound_values(
        "average_cramer", None, [0.2], [1.0], 20),
    "kind-xi-u": lambda: bounds.evaluate_kind(
        "pac_cramer_xi", fam.bernoulli(), 0.2, 1.0, 20, 0.05, u=7.0),
    "scaled_diff-t-nan": lambda: inv.scaled_diff(float("nan")),
    "scaled_diff-t-inf": lambda: inv.scaled_diff(float("inf")),
    "invert-alpha-inf": lambda: inv.invert(inv.cramer_of(fam.gaussian(1.0)),
                                           float("inf"), 0.1),
    "invert-alpha-minus-inf": lambda: inv.invert(
        inv.scaled_diff(1.0), [0.1, float("-inf")], 0.1),
    "budget-n-array": lambda: inv.budget(1.0, [10, 0]),
    "values-mls-n-array": lambda: bounds.bound_values(
        "mls", fam.bernoulli(), 0.2, 1.0, [10, 20], 0.05),
    **{f"samplewise-{k}": lambda k=k: ver.run_samplewise_comparison(
        ver.SyntheticProblem((0.2, 0.5), (0.5, 0.5), fam.bernoulli(), 1.0, 10,
                             5, 0), **{k: 0})
       for k in ("inner", "outer", "replicates")},
    "kind-xi-delta": lambda: bounds.evaluate_kind(
        "pac_cramer_xi", fam.bernoulli(), 0.1, 2.3, 100),
    "values-two-e-ceil-delta": lambda: bounds.bound_values(
        "pac_cramer_two_e_ceil", fam.bernoulli(), [0.1, 0.2], 2.3, 100),
    "kind-xi-ln-upsilon": lambda: bounds.evaluate_kind(
        "pac_cramer_xi", fam.bernoulli(), 0.1, 2.3, 100, 0.05, ln_upsilon=1.7),
    "random_problem-c": lambda: ver.random_problem(
        fam.bernoulli(), 3, float("inf"), 10, 5, 0, 1),
    "problem-c": lambda: ver.SyntheticProblem(
        (0.2, 0.5), (0.5, 0.5), fam.bernoulli(), float("inf"), 10, 5, 0),
    "upsilon-seed": lambda: ups.compute_upsilon(inv.binary_kl(),
                                                fam.bernoulli(), 10, seed=1.5),
}


@pytest.mark.parametrize("case", sorted(BAD_LIBRARY_INPUT))
def test_bad_library_input_raises_value_error(case):
    with pytest.raises(ValueError) as exc:
        BAD_LIBRARY_INPUT[case]()
    assert str(exc.value)


# a library check, and the message it raises
CHECK_MESSAGES = {
    "family-kind": (lambda: fam.BoundingFamily("weibull"),
                    "unknown family kind 'weibull'"),
    "cramer-q": (lambda: fam.bernoulli().cramer(1.5, 0.5),
                 "q=1.5 outside the loss range of bernoulli"),
    "kind-family-none": (
        lambda: bounds.evaluate_kind("average_cramer", None, 0.1, 1.0, 10),
        "the average_cramer kind needs a family, got None"),
    "values-family-none": (
        lambda: bounds.bound_values("pac_cramer_xi", None, [0.1, 0.2], 1.0,
                                    10, 0.05),
        "the pac_cramer_xi kind needs a family, got None"),
    "mean-density": (lambda: ups.upsilon_quadrature(inv.scaled_diff(0.5),
                                                    fam.laplace(1.0), 5),
                     "no closed mean density for laplace"),
    "two-e-ceil-negative": (lambda: ups.correction_two_e_ceil(-1.0),
                            "u must be nonnegative, got -1.0"),
    "two-e-ceil-nan": (lambda: ups.correction_two_e_ceil(math.nan),
                       "u must be nonnegative, got nan"),
    # an infinite u has no ceiling: refused before math.ceil
    "two-e-ceil-inf": (lambda: ups.correction_two_e_ceil(math.inf),
                       "u must be nonnegative and finite, got inf"),
    "kind-u-inf": (
        lambda: bounds.evaluate_kind("pac_cramer_two_e_ceil", fam.bernoulli(),
                                     0.3, 1.0, 10, 0.05, u=math.inf),
        "u must be nonnegative and finite, got inf"),
    # Upsilon of a Cramer comparator is at least 1; a negative ln_upsilon
    # would make the bound the training loss
    **{f"chernoff-ln-upsilon-{v}": (
        lambda v=v: bounds.evaluate_kind("pac_cramer_chernoff",
                                         fam.bernoulli(), 0.3, 1.0, 10, 0.05,
                                         ln_upsilon=v),
        f"ln_upsilon must be finite and at least 0, got {v}")
       for v in (-5.0, math.nan, math.inf)},
}


@pytest.mark.parametrize("case", sorted(CHECK_MESSAGES))
def test_library_check_names_the_bad_input(case):
    call, message = CHECK_MESSAGES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
