import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgfbounds import bounds, families as fam, inversion as inv
from surface import difference_surface


def test_bound_kinds_frozen():
    assert bounds.BOUND_KINDS == (
        "average_cramer", "pac_cramer_chernoff", "pac_cramer_xi",
        "pac_cramer_two_e_ceil", "catoni_inf", "mls",
        "poisson_diff_inf", "laplace_diff_inf", "gaussian_diff_inf")


def test_poisson_diff_upper_bounds_cramer():
    # the oracle's infimum over a truncated t range sits on or above the
    # Cramer inversion, and the production kind matches it
    for alpha in (0.2, 1.0, 3.0):
        for bon in (0.01, 0.3, 1.0):
            ref = bounds.evaluate_kind("average_cramer", fam.poisson(), alpha,
                                       bon * 40, 40)
            orc = inv.infimum_over_parameter(inv.poisson_diff, alpha,
                                             inv.budget(bon * 40, 40),
                                             (1e-4, 200.0))
            dif = bounds.evaluate_kind("poisson_diff_inf", None, alpha,
                                       bon * 40, 40)
            assert orc.rho >= ref.rho - 1e-9
            assert dif.rho == pytest.approx(orc.rho, rel=1e-6)


def test_gaussian_diff_matches_closed_form():
    res = bounds.evaluate_kind("gaussian_diff_inf", None, 0.2, 3.0, 30,
                               sigma2=0.5)
    assert res.rho == pytest.approx(0.2 + math.sqrt(2 * 0.5 * 0.1), rel=1e-8)


def test_two_e_ceil_equals_explicit_iota():
    a = bounds.evaluate_kind("pac_cramer_two_e_ceil", fam.bernoulli(), 0.2,
                             1.0, 30, 0.05)
    b = bounds.evaluate_kind("pac_cramer_chernoff", fam.bernoulli(), 0.2, 1.0,
                             30, 0.05, ln_upsilon=math.log(2 * math.e * 30))
    assert a.rho == b.rho


def test_correction_budgets():
    # each correction's ln iota enters the budget (beta + ln iota - ln delta)/n
    f = fam.bernoulli()
    res = bounds.evaluate_kind("mls", None, 0.1, 3.0, 10, 0.05)
    want = (3.0 + math.log(2 * math.sqrt(10)) - math.log(0.05)) / 10
    assert res.budget == pytest.approx(want, rel=1e-14)
    res = bounds.evaluate_kind("pac_cramer_chernoff", f, 0.1, 3.0, 10, 0.05,
                               ln_upsilon=1.7)
    assert res.budget == pytest.approx((3.0 + 1.7 - math.log(0.05)) / 10,
                                       rel=1e-14)
    res = bounds.evaluate_kind("pac_cramer_two_e_ceil", f, 0.1, 3.0, 10, 0.05)
    want = (3.0 + math.log(2 * math.e * 10) - math.log(0.05)) / 10
    assert res.budget == pytest.approx(want, rel=1e-14)
    res = bounds.evaluate_kind("pac_cramer_two_e_ceil", f, 0.1, 3.0, 10, 0.05,
                               u=3.5)
    want = (3.0 + math.log(2 * math.e * 4) - math.log(0.05)) / 10
    assert res.budget == pytest.approx(want, rel=1e-14)
    res = bounds.evaluate_kind("pac_cramer_xi", f, 0.5, 2.0, 10, 0.05)
    xi = math.pi ** 2 * (1 + min(10 * 0.5, 2.0)) ** 2 / 3
    want = (2.0 + math.log(xi) - math.log(0.05)) / 10
    assert res.budget == pytest.approx(want, rel=1e-14)


def test_monotonicity_in_delta_n_beta():
    f = fam.gaussian(1.0)
    def xi(alpha, beta, n, delta):
        return bounds.evaluate_kind("pac_cramer_xi", f, alpha, beta, n,
                                    delta).rho

    r1 = xi(0.1, 2.0, 50, 0.1)
    r2 = xi(0.1, 2.0, 50, 0.01)
    assert r2 > r1
    r3 = xi(0.1, 2.0, 500, 0.1)
    assert r3 < r1
    r4 = xi(0.1, 8.0, 50, 0.1)
    assert r4 > r1


def test_chernoff_refused_where_divergent():
    with pytest.raises(bounds.CorrectionDivergent):
        bounds.evaluate_kind("pac_cramer_chernoff", fam.poisson(), 0.5, 1.0,
                             20, 0.05, ln_upsilon=0.0)
    with pytest.raises(bounds.CorrectionDivergent):
        bounds.evaluate_kind("pac_cramer_chernoff", fam.gamma(2.0),
                             0.5, 1.0, 20, 0.05)
    with pytest.raises(ValueError, match="ln_upsilon"):
        bounds.evaluate_kind("pac_cramer_xi", fam.bernoulli(), 0.2, 1.0, 20,
                             0.05, ln_upsilon=1.0)
    with pytest.raises(ValueError):
        bounds.evaluate_kind("pac_cramer_sqrt", fam.bernoulli(), 0.2, 1.0, 20,
                             0.05)


def test_chernoff_bernoulli_between_reference_and_xi():
    ref = bounds.evaluate_kind("average_cramer", fam.bernoulli(), 0.2, 1.0,
                               40, 0.05).rho
    ch = bounds.evaluate_kind("pac_cramer_chernoff", fam.bernoulli(),
                              0.2, 1.0, 40, 0.05).rho
    assert ref - 1e-9 <= ch <= 1.0


@pytest.mark.parametrize("n", [1, 2, 5, 10, 50, 100, 500, 2000])
def test_chernoff_bernoulli_at_most_mls(n):
    # ln Upsilon of the binary kl is the Shtarkov sum, at most ln(2 sqrt n),
    # mls's correction, and both invert the same kl
    grid = (np.linspace(0.0, 0.95, 12), np.geomspace(1e-4, 3.0, 12), n)
    for delta in (0.01, 0.05, 0.5):
        s = difference_surface("pac_cramer_chernoff", "mls", grid,
                               family=fam.bernoulli(), delta=delta)
        assert not np.isnan(s).any() and s.max() <= 1e-9, (n, delta)


N_ARRAY = np.array([1, 7, 50, 400])


@pytest.mark.parametrize("kind,family,delta", [
    ("average_cramer", fam.poisson(), None),
    ("average_cramer", fam.laplace(1.0), None),
    ("pac_cramer_xi", fam.bernoulli(), 0.05),
    ("catoni_inf", fam.bernoulli(), None),
    ("gaussian_diff_inf", fam.gaussian(1.0), 0.05)])
def test_bound_values_array_n_equals_scalar_n(kind, family, delta):
    alphas = np.array([[0.1], [0.3]])
    got = bounds.bound_values(kind, family, alphas, 2.0, N_ARRAY, delta)
    assert got.shape == (2, 4)
    for i, alpha in enumerate(alphas[:, 0]):
        for j, n in enumerate(N_ARRAY.tolist()):
            assert got[i, j] == bounds.bound_values(kind, family, alpha, 2.0,
                                                    n, delta)


@pytest.mark.parametrize("kind", bounds._SCALAR_N)
def test_scalar_n_kinds_refuse_an_array_n(kind):
    with pytest.raises(ValueError, match=f"the {kind} kind needs a scalar n"):
        bounds.bound_values(kind, fam.bernoulli(), 0.2, 1.0, N_ARRAY, 0.05)


def test_binary_only_kinds_reject_other_families():
    # the binary kl's loss range [0, 1] covers only bernoulli's means
    with pytest.raises(ValueError, match=r"^comparator binary_kl has loss "
                       r"range \[0.0, 1.0\], .* of the gaussian family$"):
        bounds.evaluate_kind("mls", fam.gaussian(1.0), 0.2, 1.0, 20, 0.05)
    with pytest.raises(ValueError, match=r"^comparator binary_kl .* does not "
                       r"cover the mean domain \(0.0, inf\) of the poisson"):
        bounds.evaluate_kind("catoni_inf", fam.poisson(), 0.2, 1.0, 20, 0.05)
    with pytest.raises(ValueError, match="unknown bound kind"):
        bounds.evaluate_kind("samplewise_average", fam.bernoulli(),
                             0.2, 1.0, 20, 0.05)


@pytest.mark.parametrize("n", [0, -3, 2.5, math.nan, math.inf])
def test_every_bound_door_takes_n_only_as_a_sample_size(n):
    # an infinite n would give a zero budget and rho = alpha, an unsafe bound
    with pytest.raises(ValueError, match="n must be at least 1"):
        bounds.evaluate_kind("average_cramer", fam.bernoulli(), 0.1, 2.3, n)
    with pytest.raises(ValueError, match=rf"n must be at least 1.*, got {n}$"):
        bounds.bound_values("average_cramer", fam.bernoulli(), 0.1, 2.3,
                            np.array([10, 100, n, 50]))


def test_integral_float_n_is_the_integer_n():
    f = fam.bernoulli()
    assert bounds.evaluate_kind("average_cramer", f, 0.1, 2.3, 100.0).rho == \
        bounds.evaluate_kind("average_cramer", f, 0.1, 2.3, 100).rho
    ns = np.array([1, 10, 100])
    assert bounds.bound_values("average_cramer", f, 0.1, 2.3, ns).tolist() == \
        bounds.bound_values("average_cramer", f, 0.1, 2.3, ns * 1.0).tolist()


CORRECTED_KINDS = ("mls", "pac_cramer_chernoff", "pac_cramer_xi",
                   "pac_cramer_two_e_ceil")


@pytest.mark.parametrize("kind", CORRECTED_KINDS)
def test_corrected_kinds_require_delta(kind):
    # a union correction is a confidence term; without delta there is none
    with pytest.raises(ValueError, match=f"the {kind} kind requires delta"):
        bounds.evaluate_kind(kind, fam.bernoulli(), 0.1, 2.3, 100)
    with pytest.raises(ValueError, match=f"the {kind} kind requires delta"):
        bounds.bound_values(kind, fam.bernoulli(), [0.1, 0.2], 2.3, 100)


@pytest.mark.parametrize("kind", [k for k in bounds.BOUND_KINDS
                                  if k != "pac_cramer_chernoff"])
def test_only_chernoff_takes_ln_upsilon(kind):
    with pytest.raises(ValueError, match="only pac_cramer_chernoff takes "
                       f"ln_upsilon, not {kind}"):
        bounds.evaluate_kind(kind, fam.bernoulli(), 0.1, 2.3, 100, 0.05,
                             ln_upsilon=1.7)


@pytest.mark.parametrize("kind", [k for k in bounds.BOUND_KINDS
                                  if k != "pac_cramer_two_e_ceil"])
def test_only_two_e_ceil_takes_u(kind):
    with pytest.raises(ValueError, match="only pac_cramer_two_e_ceil takes "
                       f"u, not {kind}"):
        bounds.evaluate_kind(kind, fam.bernoulli(), 0.1, 2.3, 100, 0.05, u=3.5)


# kind: (family, form, params["family"]) of the comparator the kind inverts
# at sigma2=0.25 and b=1; poisson_diff_inf and laplace_diff_inf take no
# comparator from a family of another type
KIND_COMPARATORS = {
    "average_cramer": (fam.gamma(2.0), "cramer[gamma:k=2]", fam.gamma(2.0)),
    "pac_cramer_chernoff": (fam.bernoulli(), "cramer[bernoulli]",
                            fam.bernoulli()),
    "pac_cramer_xi": (fam.poisson(), "cramer[poisson]", fam.poisson()),
    "pac_cramer_two_e_ceil": (fam.gaussian(0.5), "cramer[gaussian:sigma2=0.5]",
                              fam.gaussian(0.5)),
    "catoni_inf": (None, "binary_kl", fam.bernoulli()),
    "mls": (fam.bernoulli(), "binary_kl", fam.bernoulli()),
    "poisson_diff_inf": (fam.gamma(2.0), "cramer[poisson]", fam.poisson()),
    "laplace_diff_inf": (fam.gaussian(1.0), "cramer[laplace:b=1]",
                         fam.laplace(1.0)),
    "gaussian_diff_inf": (None, "cramer[gaussian:sigma2=0.25]",
                          fam.gaussian(0.25)),
}


@pytest.mark.parametrize("kind", bounds.BOUND_KINDS)
def test_check_kind_returns_the_comparator_the_kind_inverts(kind):
    family, form, member = KIND_COMPARATORS[kind]
    comp = bounds.check_kind(kind, family, 0.05, sigma2=0.25, b=1.0)
    assert (comp.form, comp.params) == (form, {"family": member})
    comp, _ = bounds._kind_query(kind, family, 0.3, 1.0, 20, 0.05, 0.25, 1.0)
    assert (comp.form, comp.params) == (form, {"family": member})


def test_delta_enters_every_budget():
    # with delta, an uncorrected kind inverts at (beta - ln delta)/n, flagged
    # reference_only; catoni_inf and average_cramer are then the same kl
    # inversion over bernoulli
    f = fam.bernoulli()
    avg = bounds.evaluate_kind("average_cramer", f, 0.1, 2.3, 100, 0.05)
    cat = bounds.evaluate_kind("catoni_inf", f, 0.1, 2.3, 100, 0.05)
    assert avg.budget == pytest.approx((2.3 - math.log(0.05)) / 100, rel=1e-14)
    assert (avg.rho, avg.flag) == (cat.rho, cat.flag) == (cat.rho,
                                                          "reference_only")
    chernoff = bounds.evaluate_kind("pac_cramer_chernoff", f, 0.1, 2.3, 100,
                                    0.05)
    assert chernoff.flag is None and chernoff.rho > avg.rho


def test_catoni_inf_flags():
    assert bounds.evaluate_kind("catoni_inf", None, 0.3, 1.0, 30).flag is None
    res = bounds.evaluate_kind("catoni_inf", None, 0.3, 1.0, 30, delta=0.05)
    assert res.flag == "reference_only"


PARAMETRIC_CASES = {
    "catoni_inf": (fam.bernoulli(), 0.3),
    "poisson_diff_inf": (fam.poisson(), 0.3),
    "laplace_diff_inf": (fam.laplace(1.0), 0.3),
    "gaussian_diff_inf": (fam.gaussian(0.5), 0.2),
}


@pytest.mark.parametrize("kind", sorted(PARAMETRIC_CASES))
def test_parametric_infima_flag_reference_only_with_delta(kind):
    # an infimum over the parameter carries no union correction
    family, alpha = PARAMETRIC_CASES[kind]
    plain = bounds.evaluate_kind(kind, family, alpha, 1.0, 20)
    assert plain.flag is None and plain.param_star is None
    res = bounds.evaluate_kind(kind, family, alpha, 1.0, 20, 0.05)
    assert res.flag == "reference_only" and res.param_star is None
    assert res.rho > plain.rho


# bad parametric input, and the first word of its message: the argument, or
# the comparator whose loss range the family's means leave
BAD_PARAMETRIC_INPUT = [
    (lambda: bounds.evaluate_kind("catoni_inf", fam.poisson(), 0.2, 1.0, 20),
     "comparator"),
    (lambda: bounds.evaluate_kind("gaussian_diff_inf", None, 0.2, 1.0, 20),
     "sigma2"),
    (lambda: bounds.evaluate_kind("gaussian_diff_inf", None, 0.2, 1.0, 20,
                                  sigma2=0.0), "sigma2"),
    (lambda: bounds.evaluate_kind("laplace_diff_inf", None, 0.2, 1.0, 20), "b"),
    (lambda: bounds.evaluate_kind("laplace_diff_inf", None, 0.2, 1.0, 20,
                                  b=-1.0), "b"),
    (lambda: bounds.bound_values("laplace_diff_inf", fam.bernoulli(),
                                 [0.2, 0.3], 1.0, 20), "b"),
]


@pytest.mark.parametrize("call, word", BAD_PARAMETRIC_INPUT, ids=[
    "catoni-poisson", "gaussian-no-sigma2", "gaussian-sigma2-zero",
    "laplace-no-b", "laplace-b-negative", "laplace-over-bernoulli"])
def test_parametric_input_errors_name_the_argument(call, word):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).split()[0] == word


def test_parametric_nuisance_only_from_a_family_of_its_type():
    # a Gaussian variance is no Laplace scale: b must be given, and then the
    # bound is the one over laplace(b)
    with pytest.raises(ValueError, match=r"^b must be .* laplace_diff_inf, "
                       r"got None; only a laplace family"):
        bounds.evaluate_kind("laplace_diff_inf", fam.gaussian(2.0), 0.1, 1.0, 10)
    with pytest.raises(ValueError, match=r"^sigma2 must .* gaussian_diff_inf"):
        bounds.bound_values("gaussian_diff_inf", fam.laplace(2.0), [0.1],
                            1.0, 10)
    given = bounds.evaluate_kind("laplace_diff_inf", fam.gaussian(2.0), 0.1,
                                 1.0, 10, b=2.0).rho
    own = bounds.evaluate_kind("laplace_diff_inf", fam.laplace(2.0), 0.1,
                               1.0, 10).rho
    assert given == own == pytest.approx(1.39523, abs=1e-5)
    # an explicit value still wins over the family's own
    assert bounds.evaluate_kind("gaussian_diff_inf", fam.gaussian(4.0), 0.1,
                                1.0, 10, sigma2=0.25).rho == bounds.evaluate_kind(
        "gaussian_diff_inf", fam.gaussian(0.25), 0.1, 1.0, 10).rho


def test_poisson_diff_inf_refuses_families_with_negative_means():
    for family in (fam.gaussian(1.0), fam.laplace(1.0)):
        with pytest.raises(ValueError, match=r"^comparator cramer\[poisson\] "
                           r"has loss range \[0.0, inf\], which does not cover "
                           rf"the mean domain \(-inf, inf\) of the {family.kind}"
                           " family$"):
            bounds.evaluate_kind("poisson_diff_inf", family, 0.5, 1.0, 10)
    # nonnegative losses keep the Poisson Cramer inversion
    for family in (None, fam.bernoulli(), fam.gamma(2.0)):
        assert bounds.evaluate_kind("poisson_diff_inf", family, 0.5, 1.0,
                                    10).rho == pytest.approx(0.886125, abs=1e-6)


# the oracle: each kind's comparator family, the parameter range that the
# per-cell infimum scanned before the identity route, and the comparator
# D_t(q, p) in exact arithmetic for the feasibility check
ORACLES = {
    "catoni_inf": lambda fa: (
        (lambda m: inv.catoni(-m)), (1e-3, 50.0),
        lambda m, q, p: -m * q - mpmath.log(1 - p + p * mpmath.exp(-m))),
    "poisson_diff_inf": lambda fa: (
        inv.poisson_diff, (1e-4, 200.0),
        lambda t, q, p: -mpmath.expm1(-t) * p - t * q),
    "laplace_diff_inf": lambda fa: (
        (lambda t: inv.laplace_diff(t, fa.nuisance)),
        (1e-8, (1.0 - 1e-12) / fa.nuisance),
        lambda t, q, p: t * (p - q) + mpmath.log1p(-(fa.nuisance * t) ** 2)),
    "gaussian_diff_inf": lambda fa: (
        (lambda t: inv.gaussian_diff(t, fa.nuisance)), (1e-8, 100.0),
        lambda t, q, p: t * (p - q) - fa.nuisance * t * t / 2),
}


def _optimal_parameter(kind, family, alpha, rho):
    """The parameter at which the comparator family touches its supremum."""
    if kind == "catoni_inf":
        if not (0.0 < alpha < 1.0 and 0.0 < rho < 1.0):
            return math.nan
        return (math.log(rho) + math.log1p(-alpha)
                - math.log(alpha) - math.log1p(-rho))
    if kind == "poisson_diff_inf":
        return math.log(rho / alpha) if alpha > 0.0 else math.nan
    if kind == "gaussian_diff_inf":
        return (rho - alpha) / family.nuisance
    # laplace: d/dt [t d + ln(1 - b^2 t^2)] = 0 with d = rho - alpha
    d, b = rho - alpha, family.nuisance
    return 2.0 * d / (b * b * (1.0 + math.sqrt(1.0 + 4.0 * d * d / (b * b))))


PROPERTY_FAMILIES = {
    "catoni_inf": (st.just(fam.bernoulli()), (0.0, 1.0)),
    "poisson_diff_inf": (st.just(fam.poisson()), (0.0, 5.0)),
    "laplace_diff_inf": (st.sampled_from([fam.laplace(b) for b in (0.5, 1, 2)]),
                         (-3.0, 3.0)),
    "gaussian_diff_inf": (st.sampled_from([fam.gaussian(s) for s in
                                           (0.01, 0.25, 1.0, 4.0)]),
                          (-3.0, 3.0)),
}


@st.composite
def parametric_cells(draw):
    kind = draw(st.sampled_from(sorted(PROPERTY_FAMILIES)))
    families, (lo, hi) = PROPERTY_FAMILIES[kind]
    cells = draw(st.lists(st.tuples(st.floats(lo, hi), st.floats(0.0, 5.0)),
                          min_size=1, max_size=5))
    return kind, draw(families), cells


@given(case=parametric_cells())
@settings(max_examples=60, deadline=None)
def test_identity_route_against_oracle(case):
    kind, family, cells = case
    n, tol = 10, 1e-9
    alphas = [a for a, _ in cells]
    betas = [budget * n for _, budget in cells]
    grid = bounds.bound_values(kind, family, alphas, betas, n)
    make, (t_lo, t_hi), exact = ORACLES[kind](family)
    ts = [mpmath.mpf(t) for t in np.geomspace(t_lo, t_hi, 50)]
    for (alpha, budget), beta, rho_grid in zip(cells, betas, grid):
        rho = bounds.evaluate_kind(kind, family, alpha, beta, n).rho
        assert rho_grid == rho
        # feasible for every comparator of the family
        with mpmath.workdps(40):
            worst = max(exact(t, mpmath.mpf(alpha), mpmath.mpf(rho)) for t in ts)
        assert worst <= budget + 1e-12 * max(1.0, budget)
        orc = inv.infimum_over_parameter(make, alpha, inv.budget(beta, n),
                                         (t_lo, t_hi)).rho
        assert rho <= orc + tol * max(1.0, abs(rho))
        t_star = _optimal_parameter(kind, family, alpha, rho)
        if t_lo < t_star < t_hi:
            assert rho == pytest.approx(orc, abs=1e-6)


def test_identity_beyond_truncated_range():
    # at sigma2 = 1e-4 and budget 1 the optimal t = sqrt(2 B / sigma2) is
    # about 141, past the old scan's t <= 100.  The reported value is the
    # identity alpha + sqrt(2 sigma2 B): the infimum over every t > 0, so it
    # is tighter than the truncated infimum, and still a valid bound because
    # it is the inversion of the Gaussian Cramer function itself.
    sigma2, alpha, n = 1e-4, 0.3, 10
    res = bounds.evaluate_kind("gaussian_diff_inf", None, alpha, n * 1.0, n,
                               sigma2=sigma2)
    want = alpha + math.sqrt(2.0 * sigma2)
    assert res.rho == pytest.approx(want, rel=1e-8) and res.rho <= want
    orc = inv.infimum_over_parameter(lambda t: inv.gaussian_diff(t, sigma2),
                                     alpha, inv.budget(n * 1.0, n),
                                     (1e-8, 100.0))
    assert orc.param_star == pytest.approx(100.0, rel=1e-6)
    assert res.rho < orc.rho - 5e-4
    t_star = math.sqrt(2.0 / sigma2)
    assert inv.gaussian_diff(t_star, sigma2).eval(alpha, res.rho) <= 1.0


@pytest.mark.parametrize("family", [fam.bernoulli(), fam.gaussian(0.5),
                                    fam.poisson(), fam.gamma(2.0),
                                    fam.laplace(1.0), fam.invgauss(1.5),
                                    fam.negbin(3.0)], ids=fam.family_spec)
def test_grid_average_bound_is_the_per_pair_scalar_bound(family):
    # one grid inversion gives the scalar inversions' values bit for bit
    lo, hi = family.mean_domain
    alphas = [0.3, 0.7] if math.isfinite(hi) else [0.0 if lo == 0.0 else -0.4,
                                                   0.3, 1.7]
    pairs = [(a, b) for a in alphas for b in (0.0, 0.05, 0.3)]
    want = [bounds.evaluate_kind("average_cramer", family, a, b, 1).rho
            for a, b in pairs]
    got = bounds.bound_values("average_cramer", family, *zip(*pairs), 1)
    assert got.tolist() == want


# -- the optimality theorem: the Cramer function is the best CGF line ---------

SEVEN = [fam.bernoulli(), fam.gaussian(1.0), fam.poisson(), fam.gamma(2.0),
         fam.laplace(1.0), fam.invgauss(1.5), fam.negbin(3.0)]


def _alphas(family, points):
    lo, hi = family.mean_domain
    if math.isfinite(hi):
        return np.linspace(0.02, 0.9, points)
    return np.geomspace(0.2, 5.0, points) if lo == 0.0 else \
        np.linspace(-2.0, 2.0, points)


def _cgf_line_end(family):
    """min(1e3, t_end): the lines s q - K_p(s) with s = -t < 0 exist for t
    up to t_end, the CGF domain's lower end (the same at every mean p here)
    negated and, where finite, pulled in by one part in 10^12."""
    lower = family.t_domain(float(_alphas(family, 2)[0]))[0]
    return min(1e3, -lower * (1.0 - 1e-12))


@pytest.mark.parametrize("family", SEVEN, ids=fam.family_spec)
def test_cramer_inversion_is_the_infimum_over_cgf_lines(family):
    # the paper's optimality theorem: the Cramer function is the sup of the
    # CGF lines, so its inversion is the best of their bounds, cell by cell
    # of an 8 x 8 (alpha, beta/n) grid, NaN in the same cells; both sides
    # are bisected, so both sit below the supremum within the stopping width
    n = 100
    a, bon = np.meshgrid(_alphas(family, 8), np.geomspace(1e-3, 2.0, 8),
                         indexing="ij")
    lines = inv.infimum_over_parameter(
        lambda t: inv._cgf_line("cgf_line", family, -t, {}, None),
        a, inv.budget(bon * n, n), (1e-6, _cgf_line_end(family))).rho
    cramer = inv.invert(dataclasses.replace(inv.cramer_of(family),
                                            exact_inverse=None),
                        a, inv.budget(bon * n, n)).rho
    assert np.array_equal(np.isnan(lines), np.isnan(cramer))
    ok = ~np.isnan(cramer)
    assert np.all(np.abs(lines[ok] - cramer[ok]) <= 1e-8 * np.abs(cramer[ok]))


@st.composite
def cgf_line_cells(draw):
    family = draw(st.sampled_from(SEVEN))
    lo, hi = _alphas(family, 2)
    alpha = draw(st.floats(lo, hi))
    s = -draw(st.floats(1e-6, 1.0)) * min(50.0, _cgf_line_end(family))
    return family, alpha, draw(st.floats(1e-4, 2.0)), s


@given(cell=cgf_line_cells())
@settings(max_examples=100, deadline=None)
def test_no_single_cgf_line_beats_the_cramer_bound(cell):
    # each line s q - K_p(s), s < 0, lies below the Cramer function, so its
    # bound lies above the Cramer bound (NaN: no finite bound), up to the
    # width 1e-9 max(1, |lo|) at which bisection stops
    family, alpha, budget, s = cell
    line = inv.invert(inv._cgf_line("cgf_line", family, s, {}, None),
                      [alpha], [budget]).rho[0]
    rho = bounds.bound_values("average_cramer", family, alpha, budget, 1)
    if math.isnan(rho):
        assert math.isnan(line)
    else:
        assert not line < rho - 1e-9 * max(1.0, abs(rho))


def test_grid_average_bound_is_nan_without_a_finite_bound():
    got = bounds.bound_values("average_cramer", fam.invgauss(1.5),
                              [0.3, 0.5], [0.1, 2.0], 1)
    assert math.isfinite(got[0]) and math.isnan(got[1])
    with pytest.raises(inv.NoFiniteBound):
        bounds.evaluate_kind("average_cramer", fam.invgauss(1.5), 0.5, 2.0, 1)


@pytest.mark.parametrize("kind,family,delta", [
    ("average_cramer", fam.bernoulli(), None),
    ("average_cramer", fam.invgauss(1.5), None),
    ("pac_cramer_xi", fam.poisson(), 0.05),
    ("catoni_inf", None, None)])
@pytest.mark.parametrize("over", ["alpha", "n"])
def test_evaluate_kind_array_query_is_the_zero_d_calls(kind, family, delta,
                                                       over):
    # evaluate_kind inverts through the one door: an array alpha or n gives
    # arrays holding the 0-d calls' numbers bit for bit, and a 0-d call
    # answers in Python floats
    alphas, ns = (([0.1, 0.2, 0.4], 100) if over == "alpha"
                  else (0.2, [1, 10, 100]))
    res = bounds.evaluate_kind(kind, family, alphas, 2.3, ns, delta)
    assert res.rho.shape == res.status.shape == (3,)
    for i, (alpha, n) in enumerate(np.broadcast(alphas, ns)):
        one = bounds.evaluate_kind(kind, family, float(alpha), 2.3, int(n),
                                   delta)
        assert all(type(v) is float for v in (one.rho, one.budget,
                                              *one.bracket))
        assert type(one.iterations) is int and one.status == res.status[i]
        assert np.array([one.rho, one.budget, *one.bracket,
                         one.iterations]).tobytes() == np.array([
            res.rho[i], res.budget[i], res.bracket[0][i], res.bracket[1][i],
            res.iterations[i]]).tobytes()


def test_bound_values_zero_d_without_finite_bound_is_nan():
    # lambda/(2 alpha) = 0.1875 < beta/n = 1: evaluate_kind raises, and
    # bound_values, which never raises for a divergent bound, gives NaN
    family = fam.invgauss(0.75)
    got = bounds.bound_values("average_cramer", family, 2.0, 1.0, 1)
    assert np.shape(got) == () and math.isnan(got)
    with pytest.raises(inv.NoFiniteBound, match=r": budget 1\.0 not exceeded"):
        bounds.evaluate_kind("average_cramer", family, 2.0, 1.0, 1)


@pytest.mark.parametrize("family", [fam.poisson(), fam.gamma(2.0)],
                         ids=fam.family_spec)
def test_chernoff_kind_refused_before_upsilon(family, monkeypatch):
    def no_upsilon(*args, **kwargs):
        raise AssertionError("compute_upsilon was called")

    monkeypatch.setattr(bounds, "compute_upsilon", no_upsilon)
    with pytest.raises(bounds.CorrectionDivergent, match="xi or two_e_ceil"):
        bounds.evaluate_kind("pac_cramer_chernoff", family, 0.5, 1.0, 20, 0.05)
    assert np.isnan(bounds.bound_values("pac_cramer_chernoff", family,
                                        [0.5], [1.0], 20, 0.05)).all()


UNBOUNDED_FAMILIES = [fam.gaussian(1.0), fam.poisson(), fam.gamma(2.0),
                      fam.invgauss(1.5), fam.negbin(2.0), fam.laplace(1.0)]


@pytest.mark.parametrize("family", UNBOUNDED_FAMILIES, ids=fam.family_spec)
def test_chernoff_refused_off_bernoulli_by_proof(family, monkeypatch):
    # these Upsilon values are infinite; a sampled estimate is finite and
    # would certify nothing, so no Upsilon is computed and none is accepted
    def no_upsilon(*args, **kwargs):
        raise AssertionError("compute_upsilon was called")

    monkeypatch.setattr(bounds, "compute_upsilon", no_upsilon)
    reason = "1/|d|" if family.kind == "laplace" else "Shtarkov"
    with pytest.raises(bounds.CorrectionDivergent, match=reason):
        bounds.evaluate_kind("pac_cramer_chernoff", family, 1.0, 5.0, 100, 0.05)
    with pytest.raises(bounds.CorrectionDivergent, match=reason):
        bounds.evaluate_kind("pac_cramer_chernoff", family, 1.0, 5.0, 100,
                             0.05, ln_upsilon=1.5)


def test_surface_nan_on_divergence():
    # chernoff over poisson diverges in every cell
    s = difference_surface("pac_cramer_chernoff", "average_cramer",
                           (np.array([0.5]), np.array([0.1]), 20),
                           family=fam.poisson(), delta=0.05)
    assert math.isnan(s[0, 0])


# -- settled violations: _per_kind given losses is losses > bound_values ----

def _kinds_of(family):
    """The kinds a family takes with a delta, the Chernoff kind's row NaN
    off bernoulli."""
    kinds = ["average_cramer", "pac_cramer_chernoff", "pac_cramer_xi",
             "pac_cramer_two_e_ceil"]
    if family.kind == "bernoulli":
        kinds += ["mls", "catoni_inf"]
    if family.mean_domain[0] >= 0.0:
        kinds.append("poisson_diff_inf")
    if family.kind in ("laplace", "gaussian"):
        kinds.append(f"{family.kind}_diff_inf")
    return kinds


MEAN_BOXES = {"bernoulli": (0.0, 1.0), "gaussian": (-3.0, 3.0),
              "laplace": (-3.0, 3.0)}


@st.composite
def settle_cases(draw):
    family = draw(st.sampled_from(SEVEN))
    kinds = draw(st.lists(st.sampled_from(_kinds_of(family)), min_size=1,
                          max_size=4, unique=True))
    lo, hi = MEAN_BOXES.get(family.kind, (0.0, 5.0))
    cells = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 50.0),
                                    st.floats(0.0, 1.0),
                                    st.sampled_from(["free", "rho", "above",
                                                     "below", "nan"]),
                                    st.integers(0, 3)),
                          min_size=1, max_size=8))
    n = draw(st.integers(1, 200))
    delta = draw(st.floats(0.01, 0.5))
    return family, kinds, lo, hi, cells, n, delta


@given(case=settle_cases())
@settings(max_examples=80, deadline=None)
def test_exceeds_is_losses_above_the_converged_bound(case):
    # each loss sits anywhere in the family's box, on a kind's converged
    # bound, one double above or below it, or NaN: settling a cell gives
    # the bit its converged bound gives
    family, kinds, lo, hi, cells, n, delta = case
    alpha = np.array([lo + u * (hi - lo) for u, *_ in cells])
    beta = np.array([b for _, b, *_ in cells])
    bound = bounds.bound_values(kinds, family, alpha, beta, n, delta)
    losses = []
    for j, (_, _, u, where, row) in enumerate(cells):
        rho = bound[row % len(kinds), j]
        free = lo + u * (hi - lo)
        losses.append({"free": free, "nan": math.nan,
                       "rho": rho, "above": np.nextafter(rho, math.inf),
                       "below": np.nextafter(rho, -math.inf)}[where]
                      if not math.isnan(rho) or where == "nan" else free)
    losses = np.array(losses)
    got = bounds._per_kind(kinds, family, alpha, beta, n, delta,
                           losses=losses)
    assert got.dtype == bool
    assert np.array_equal(got, losses > bound)


SETTLE_EDGES = {
    # a converged cell; capped at the end of the mean range (rho = 1, at
    # alpha = 1 as kl(q, 1) is +inf for q < 1); a budget of 0 (rho =
    # alpha); no finite bound, 2 alpha B >= lambda (NaN)
    "converged": (fam.gaussian(0.5), "average_cramer", 0.3, 2.0, 20),
    "capped": (fam.bernoulli(), "average_cramer", 1.0, 2.0, 20),
    "budget_0": (fam.poisson(), "average_cramer", 0.7, 0.0, 20),
    "no_finite": (fam.invgauss(1.5), "average_cramer", 2.0, 10.0, 20),
}


@pytest.mark.parametrize("edge", sorted(SETTLE_EDGES))
def test_exceeds_at_the_bound_and_one_double_above(edge):
    family, kind, alpha, beta, n = SETTLE_EDGES[edge]
    res = bounds.evaluate_kind(kind, family, [alpha], beta, n)
    rho = res.rho[0]
    if edge == "no_finite":
        assert math.isnan(rho)
        losses = np.array([0.0, alpha, 1e300, math.inf])
        want = [False] * 4
    else:
        assert res.status[0] == {"converged": "converged",
                                 "capped": "capped_at_domain",
                                 "budget_0": "budget_nonpositive"}[edge]
        assert rho == {"capped": 1.0, "budget_0": alpha}.get(edge, rho)
        losses = np.array([rho, np.nextafter(rho, math.inf),
                           np.nextafter(rho, -math.inf), math.nan])
        want = [False, True, False, False]
    got = bounds._per_kind([kind], family, alpha, beta, n, None,
                           losses=losses)
    assert got.tolist() == [want]
    assert np.array_equal(got[0], losses > bounds.bound_values(
        kind, family, alpha, beta, n))
