import math
import re
import warnings
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgfbounds import families as fam
from cgfbounds.rng import make_generator

ALL = [fam.bernoulli(), fam.gaussian(1.3), fam.poisson(), fam.gamma(2.5),
       fam.laplace(0.8), fam.invgauss(1.7), fam.negbin(3.0)]

INTERIOR = {
    "bernoulli": (0.15, 0.85),
    "gaussian": (-2.0, 2.0),
    "poisson": (0.1, 4.0),
    "gamma": (0.1, 4.0),
    "laplace": (-2.0, 2.0),
    "invgauss": (0.1, 4.0),
    "negbin": (0.1, 4.0),
}


def mid(family):
    lo, hi = INTERIOR[family.kind]
    return 0.5 * (lo + hi) if lo < 0 else math.sqrt(lo * hi)


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
@pytest.mark.parametrize("t", [0.01, -0.3])
def test_cgf_t_domain_and_sample_take_a_list_of_means(family, t):
    # as cramer does: a list is the float array of its entries, and a
    # scalar mean keeps the Python-float path
    lo, hi = INTERIOR[family.kind]
    means = [lo, mid(family), hi]
    got, want = family.cgf(means, t), family.cgf(np.array(means), t)
    assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    for a, b in zip(family.t_domain(means), family.t_domain(np.array(means))):
        assert np.array_equal(a, b)
    assert np.array_equal(family.sample(means, (4, 3), make_generator(0, 1)),
                          family.sample(np.array(means), (4, 3),
                                        make_generator(0, 1)))
    for i, p in enumerate(means):
        one = family.cgf(p, t)
        assert type(one) is float and one == got[i]


# -- closed forms against frozen oracle values --------------------------------

def test_binary_kl_frozen():
    # mpmath 50-digit oracle: 0.7 ln(7/3) + 0.3 ln(3/7)
    assert fam.binary_kl(0.7, 0.3) == pytest.approx(0.33891914415488145, rel=1e-14)
    assert fam.binary_kl(0.5, 0.5) == 0.0
    assert fam.binary_kl(0.0, 0.3) == pytest.approx(-math.log(0.7), rel=1e-14)
    assert fam.binary_kl(1.0, 0.3) == pytest.approx(-math.log(0.3), rel=1e-14)


def test_bernoulli_cramer_is_binary_kl():
    f = fam.bernoulli()
    for q, p in [(0.2, 0.6), (0.9, 0.5), (0.5, 0.5)]:
        assert f.cramer(q, p) == pytest.approx(fam.binary_kl(q, p), rel=1e-14)


def test_gaussian_cramer_quadratic():
    f = fam.gaussian(2.0)
    assert f.cramer(1.0, 3.0) == pytest.approx(4.0 / 4.0, rel=1e-14)
    assert f.cramer(-1.0, 1.0) == pytest.approx(4.0 / 4.0, rel=1e-14)


def test_poisson_cramer():
    f = fam.poisson()
    q, p = 2.0, 0.5
    assert f.cramer(q, p) == pytest.approx(p - q + q * math.log(q / p), rel=1e-14)
    assert f.cramer(0.0, 0.7) == pytest.approx(0.7, rel=1e-14)


def test_gamma_cramer():
    f = fam.gamma(5.0)
    q, p = 0.4, 1.1
    assert f.cramer(q, p) == pytest.approx(
        5.0 * (q / p - 1.0 - math.log(q / p)), rel=1e-14)
    assert f.cramer(0.0, 1.0) == math.inf


def test_laplace_cramer_frozen():
    f = fam.laplace(1.0)
    # mpmath oracle for q=0, p=3, b=1: s = sqrt(10)
    assert f.cramer(0.0, 3.0) == pytest.approx(1.4293624018229567, rel=1e-13)
    s = math.hypot(2.0 - 0.5, 1.0)
    want = s - 1.0 + math.log(2.0 / (s + 1.0))
    assert f.cramer(0.5, 2.0) == pytest.approx(want, rel=1e-13)


def test_laplace_cramer_small_gap_limit():
    # near the diagonal the rate behaves as (q-p)^2 / (4 b^2)
    b, h = 0.7, 1e-4
    f = fam.laplace(b)
    assert f.cramer(1.0, 1.0 + h) == pytest.approx(h * h / (4 * b * b), rel=1e-3)


def test_invgauss_cramer():
    f = fam.invgauss(2.0)
    q, p = 0.5, 1.5
    assert f.cramer(q, p) == pytest.approx(
        2.0 * (q - p) ** 2 / (2.0 * p * p * q), rel=1e-13)


def test_negbin_cramer():
    f = fam.negbin(3.0)
    q, p, r = 0.6, 1.4, 3.0
    want = r * math.log((p + r) / (q + r)) + q * math.log(
        q * (p + r) / (p * (q + r)))
    assert f.cramer(q, p) == pytest.approx(want, rel=1e-13)
    assert f.cramer(0.0, 1.4) == pytest.approx(r * math.log((1.4 + r) / r), rel=1e-13)


# V(m), the variance at mean m, of the six natural exponential families with
# quadratic variance function (Morris, Natural exponential families with
# quadratic variance functions, Ann. Statist. 1982); laplace is not one and
# keeps the frozen oracle values above
NEF_VARIANCE = {
    "bernoulli": lambda m, v: m * (1 - m),
    "gaussian": lambda m, v: v,
    "poisson": lambda m, v: m,
    "gamma": lambda m, v: m * m / v,
    "invgauss": lambda m, v: m ** 3 / v,
    "negbin": lambda m, v: m + m * m / v,
}


@st.composite
def nef_points(draw):
    kind = draw(st.sampled_from(sorted(NEF_VARIANCE)))
    v = None if kind in ("bernoulli", "poisson") else draw(st.floats(0.2, 5.0))
    family = fam.BoundingFamily(kind, v)
    lo, hi = family.mean_domain
    if math.isfinite(hi):       # q on the closed range, p inside
        q, p = draw(st.floats(0.0, 1.0)), draw(st.floats(1e-3, 1.0 - 1e-3))
    elif lo == 0.0:             # gamma and invgauss are +inf at q = 0
        q_lo = 1e-3 if kind in ("gamma", "invgauss") else 0.0
        q, p = draw(st.floats(q_lo, 10.0)), draw(st.floats(1e-3, 10.0))
    else:
        q, p = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    return family, q, p


@given(point=nef_points())
@settings(max_examples=150, deadline=None)
# negbin's closed form has a q ln r term whose r rounds to 0 at q = 5e-324
@example(point=(fam.negbin(4.0), 5e-324, 4.0))
def test_cramer_is_the_integral_of_the_variance_function(point):
    # for a natural exponential family Lambda*(q, p) = int_p^q (q - m)/V(m) dm,
    # here in 30-digit mpmath, independent of the closed forms under test
    family, q, p = point
    variance = NEF_VARIANCE[family.kind]
    with mpmath.workdps(30):
        v = None if family.nuisance is None else mpmath.mpf(family.nuisance)
        want = float(mpmath.quad(lambda m: (q - m) / variance(m, v), [p, q]))
    assert family.cramer(q, p) == pytest.approx(want, rel=1e-9, abs=1e-13)


def test_laplace_cgf_frozen():
    f = fam.laplace(1.0)
    assert f.cgf(1.0, 0.5) == pytest.approx(0.5 - math.log(0.75), rel=1e-14)


@pytest.mark.parametrize("b", [0.5, 1.0, 3.0])
def test_laplace_cgf_against_mpmath(b):
    # t p - ln(1 - (b t)^2) at the doubles t, p; rounding b t alone was
    # 8.3e-13 relative off at b t = 1 - 1e-6
    for bt in (0.5, 0.9, 1 - 1e-6, 1 - 1e-12):
        t = bt / b
        for p in (-1.0, 0.25):
            with mpmath.workdps(50):
                want = float(t * mpmath.mpf(p)
                             - mpmath.log(1 - (mpmath.mpf(b) * t) ** 2))
            got = fam.laplace(b).cgf(p, t)
            assert abs(got - want) <= 4 * math.ulp(want), (bt, p, got, want)


BERNOULLI_PS = (1e-13, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-6, 1 - 1e-10,
                1 - 1e-13)


@pytest.mark.parametrize("p", BERNOULLI_PS + (2.6e-14,))
def test_bernoulli_cgf_against_decimal(p):
    # ln(1 - p + p e^t) in 60-digit decimal at the exact double p; the
    # log1p(p expm1(t)) form alone is 6.4e-11 off at p = 1 - 1e-13, t = -50,
    # and the logaddexp form 6.5e-16 off at p = 2.6e-14, t = 30.65
    getcontext().prec = 60
    for t in (-708, -300, -50, -5, 20, 30.65, 300, 708):
        d = Decimal(p)
        want = float((1 - d + d * Decimal(t).exp()).ln())
        got = fam.bernoulli().cgf(p, float(t))
        assert abs(got - want) <= 4e-16 * abs(want), (t, got, want)


@pytest.mark.parametrize("p", BERNOULLI_PS)
def test_bernoulli_cgf_on_the_conjugate_probe_ladder(p):
    # numeric_conjugate probes t = +-2^j, j = -20..20; each value finite,
    # with no overflow or log-of-0 warning, as array and as scalar
    ts = np.array([s * 2.0 ** j for j in range(-20, 21) for s in (1, -1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = fam.bernoulli().cgf(p, ts)
        assert np.all(np.isfinite(vals))
        assert all(fam.bernoulli().cgf(p, float(t)) == v
                   for t, v in zip(ts, vals))


def test_cramer_broadcasts():
    f = fam.poisson()
    qs = np.array([0.5, 1.0, 2.0])
    out = f.cramer(qs, 1.0)
    assert out.shape == (3,)
    assert out[1] == 0.0
    assert f.cramer(1.0, np.array([0.5, 1.0])).shape == (2,)


# -- CGF structure -------------------------------------------------------------

@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_cgf_zero_at_origin_and_mean_slope(family):
    p = mid(family)
    assert family.cgf(p, 0.0) == 0.0
    h = 1e-6
    slope = (family.cgf(p, h) - family.cgf(p, -h)) / (2 * h)
    assert slope == pytest.approx(p, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_cgf_midpoint_convex(family):
    p = mid(family)
    lo, hi = family.t_domain(p)
    ts = np.linspace(max(lo, -3.0) * 0.9, min(hi, 3.0) * 0.9, 9)
    for t1, t2 in zip(ts, ts[2:]):
        m = 0.5 * (t1 + t2)
        assert family.cgf(p, m) <= 0.5 * (family.cgf(p, t1) + family.cgf(p, t2)) + 1e-12


def test_cgf_domain_errors():
    g = fam.gamma(2.0)
    with pytest.raises(ValueError):
        g.cgf(1.0, 2.0)          # t >= k/p
    l = fam.laplace(2.0)
    with pytest.raises(ValueError):
        l.cgf(0.0, 0.5)          # |t| >= 1/b
    ig = fam.invgauss(1.0)
    with pytest.raises(ValueError):
        ig.cgf(1.0, 0.5)         # t >= lambda/(2 p^2)


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_scalar_cgf_is_the_zero_d_array_cgf(family):
    # a scalar p and t are checked with plain float comparisons, arrays with
    # numpy; both give the same doubles, and a NaN t passes both
    lo, hi = INTERIOR[family.kind]
    for p in np.linspace(lo, hi, 5).tolist():
        t_lo, t_hi = family.t_domain(p)
        for t in (max(t_lo, -3.0) * 0.9, -1e-9, 0.0, 0.5 * min(t_hi, 3.0),
                  min(t_hi, 3.0) * 0.9, math.nan):
            got = family.cgf(p, t)
            want = family.cgf(np.asarray(p), np.asarray(t))
            assert type(got) is float and type(want) is float
            assert got == want or (math.isnan(got) and math.isnan(want))
            assert np.array_equal(family.cgf(np.array([p, p]), t),
                                  [got, got], equal_nan=True)


@pytest.mark.parametrize("family, p, t, message", [
    (fam.gamma(2.0), 1.0, 2.0, "t=2.0 outside the CGF domain (-inf, 2.0)"),
    (fam.laplace(2.0), 0.0, 0.5, "t=0.5 outside the CGF domain (-0.5, 0.5)"),
    (fam.laplace(2.0), 0.0, -0.5, "t=-0.5 outside the CGF domain (-0.5, 0.5)"),
    (fam.invgauss(1.0), 1.0, 0.5, "t=0.5 outside the CGF domain (-inf, 0.5)"),
    (fam.bernoulli(), 1.5, 0.1, "mean 1.5 outside the open domain of bernoulli"),
    (fam.bernoulli(), 1.0, 0.1, "mean 1.0 outside the open domain of bernoulli"),
    (fam.gaussian(1.0), math.nan, 0.1,
     "mean nan outside the open domain of gaussian"),
    (fam.poisson(), 0, 0.1, "mean 0 outside the open domain of poisson"),
    # a numpy scalar p names the same Python-float domain ends
    (fam.gamma(2.0), np.float64(1.0), 2.0,
     "t=2.0 outside the CGF domain (-inf, 2.0)"),
    (fam.invgauss(1.0), np.float64(1.0), 0.5,
     "t=0.5 outside the CGF domain (-inf, 0.5)"),
    (fam.negbin(3.0), np.float64(3.0), 1.0,
     "t=1.0 outside the CGF domain (-inf, 0.6931471805599453)"),
])
def test_scalar_cgf_errors(family, p, t, message):
    # the messages of the scalar checks, as the numpy checks wrote them
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        family.cgf(p, t)


def test_invgauss_t_domain_at_a_tiny_mean():
    # lambda/(2 p^2) overflows to +inf where p * p underflows to 0, instead
    # of dividing by zero
    ig = fam.invgauss(1.0)
    assert ig.t_domain(1e-170) == (-math.inf, math.inf)
    assert ig.t_domain(1e-100) == (-math.inf, 1.0 / 2e-100 / 1e-100)
    assert ig.cgf(1e-170, -0.1) == pytest.approx(-1e-171, rel=1e-15)


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_cramer_nonnegative_zero_on_diagonal(family):
    lo, hi = INTERIOR[family.kind]
    for q in np.linspace(lo, hi, 5):
        assert family.cramer(float(q), float(q)) == 0.0
        for p in np.linspace(lo, hi, 5):
            assert family.cramer(float(q), float(p)) >= 0.0


@given(q=st.floats(0.01, 0.99), p=st.floats(0.01, 0.99))
def test_bernoulli_cramer_pinsker(q, p):
    assert fam.bernoulli().cramer(q, p) >= 2.0 * (q - p) ** 2 - 1e-12


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_cramer_nondecreasing_upward(family):
    lo, hi = INTERIOR[family.kind]
    q = lo
    vals = [family.cramer(q, float(p)) for p in np.linspace(q, hi, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# -- sampling ------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_sample_mean_matches(family):
    p = mid(family)
    x = family.sample(p, 200_000, make_generator(11))
    se = x.std() / math.sqrt(len(x))
    assert abs(x.mean() - p) < 5 * se + 1e-9


def test_sample_variances():
    x = fam.gaussian(2.0).sample(0.0, 100_000, make_generator(3))
    assert x.var() == pytest.approx(2.0, rel=0.05)
    x = fam.laplace(1.0).sample(0.0, 100_000, make_generator(4))
    assert x.var() == pytest.approx(2.0, rel=0.05)
    # negbin variance p (1 + p/r)
    x = fam.negbin(3.0).sample(2.0, 100_000, make_generator(5))
    assert x.var() == pytest.approx(2.0 * (1 + 2.0 / 3.0), rel=0.05)


def test_sample_deterministic_by_seed():
    f = fam.gamma(2.0)
    a = f.sample(1.0, 100, make_generator(9))
    b = f.sample(1.0, 100, make_generator(9))
    assert np.array_equal(a, b)


class _Uniforms:
    """A stand-in Generator whose random(size) hands out fixed uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return self.u.reshape(size).copy()


def _old_laplace(p, v, u):
    # the sampler's inverse CDF as first written, with the sign product
    u = u - 0.5
    return p - v * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def test_laplace_draw_bit_identical_to_sign_form():
    # U = 0, 1/2 and 1/2 -+ one ulp, 1 - 2^-53 (the largest double below 1)
    edge = np.array([0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                     1.0 - 2.0 ** -53, 2.0 ** -53, 0.25, 0.75])
    rand = make_generator(3, 1).random(4 * 50 - edge.size)
    u = np.concatenate((edge, rand)).reshape(50, 4)
    means = np.array([0.0, -1.5, 0.3, 1e-3])
    for v in (1.0, 0.8, 2.5e-3, 7.0):
        f = fam.laplace(v)
        with np.errstate(divide="ignore"):   # u = 0 gives an infinite draw
            want = _old_laplace(means, v, u)
            got = f._draw(means, u.shape, _Uniforms(u))
            scalar = f._draw(-0.7, u.size, _Uniforms(u))
            want_scalar = _old_laplace(-0.7, v, u.ravel())
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(scalar, want_scalar)


@pytest.mark.parametrize("family", [
    fam.bernoulli(), fam.gaussian(1.3), fam.poisson(), fam.gamma(2.5),
    fam.laplace(0.8), fam.invgauss(1.7), fam.negbin(3.0)],
    ids=lambda f: f.kind)
def test_draw_into_a_buffer_equals_a_fresh_draw(family):
    means = np.array([0.2, 0.45, 0.7])
    want = family._draw(means, (9, 3), make_generator(5, 1))
    buf = np.full((9, 3), -7.0)
    got = family._draw(means, (9, 3), make_generator(5, 1), buf)
    assert got is buf and np.array_equal(buf, want)
    flat = np.empty(40)
    assert family._draw(0.3, 40, make_generator(5, 2), flat) is flat
    assert np.array_equal(flat, family._draw(0.3, 40, make_generator(5, 2)))


@pytest.mark.parametrize("v", [1.0, 1.3, 0.02, 40.0])
def test_gaussian_draw_is_rng_normal(v):
    means = np.array([-2.0, 0.0, 0.37, 5.5])
    for key in range(20):
        got = fam.gaussian(v)._draw(means, (25, 4), make_generator(11, key))
        want = make_generator(11, key).normal(means, math.sqrt(v), (25, 4))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("family", [fam.bernoulli(), fam.gaussian(2.0),
                                    fam.laplace(0.8)], ids=lambda f: f.kind)
def test_draw_places_one_standard_draw(family):
    # _draw(p) is the p-free standard draw _draw(None) placed at p, so one
    # standard draw placed at each of several means gives each its own draw
    means = np.array([[0.2, 0.45, 0.7], [0.6, 0.1, 0.35], [0.3, 0.3, 0.9]])
    std = family._draw(None, (9, 3), make_generator(5, 1))
    for row in means:
        placed = family._place(row, std, np.empty((9, 3)))
        assert np.array_equal(placed,
                              family._draw(row, (9, 3), make_generator(5, 1)))
    stacked = family._place(means[:, None], std, np.empty((3, 9, 3)))
    assert np.array_equal(stacked, [family._draw(row, (9, 3), make_generator(
        5, 1)) for row in means])


# -- spec strings and validation ------------------------------------------------

@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_spec_round_trip(family):
    assert fam.parse_family(fam.family_spec(family)) == family


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(fam.FAMILY_KINDS),
       v=st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
def test_spec_round_trip_any_nuisance(kind, v):
    family = fam.BoundingFamily(kind, None if kind in ("bernoulli", "poisson")
                                else v)
    assert fam.parse_family(fam.family_spec(family)) == family


def test_spec_keeps_short_names():
    assert fam.family_spec(fam.gaussian(1.0)) == "gaussian:sigma2=1"
    assert fam.family_spec(fam.laplace(0.5)) == "laplace:b=0.5"
    assert fam.family_spec(fam.negbin(2)) == "negbin:r=2"
    # :g keeps six digits; a nuisance it cannot carry is written in full
    assert fam.family_spec(fam.gamma(2.0000001)) == "gamma:k=2.0000001"


def test_parse_family_strings():
    assert fam.parse_family("gaussian:sigma2=1").nuisance == 1.0
    assert fam.parse_family("invgauss:lambda=2.5").nuisance == 2.5
    with pytest.raises(ValueError):
        fam.parse_family("cauchy")
    with pytest.raises(ValueError, match="gamma needs k in"):
        fam.parse_family("gamma:k=-1")


def test_family_name_and_key_read_without_case_or_spaces():
    assert fam.parse_family(" Gaussian : sigma2 = 2 ") == fam.gaussian(2.0)
    assert fam.parse_family("POISSON") == fam.parse_family("poisson:") \
        == fam.poisson()


@pytest.mark.parametrize("spec, words", [
    ("gaussian:s=1", ["'s=1' has an unknown key", "gaussian takes sigma2"]),
    ("gamma:k", ["'k' is not key=value", "gamma takes k"]),
    ("gaussian", ["gaussian needs sigma2=<value>"]),
    ("poisson:x=1", ["'x=1' has an unknown key", "poisson takes no keys"]),
    ("gaussian:sigma2=1,sigma2=2", ["'sigma2=2' repeats a key"]),
    ("gamma:k=x", ["k needs a number, got 'x'"]),
])
def test_family_spec_errors_name_the_spec_and_the_key(spec, words):
    # the grammar and messages of comparator specs
    with pytest.raises(ValueError) as exc:
        fam.parse_family(spec)
    for word in [f"family spec {spec!r}"] + words:
        assert word in str(exc.value)


def test_parse_spec_returns_values_in_key_order():
    keys_of = {"laplace_diff": ("t", "b"), "kl": ()}
    assert fam.parse_spec("laplace_diff:b=2,t=0.5", keys_of, "comparator") \
        == ("laplace_diff", (0.5, 2.0))
    assert fam.parse_spec("kl", keys_of, "comparator") == ("kl", ())
    with pytest.raises(ValueError, match="unknown comparator 'x' in spec "
                       "'x'; use laplace_diff, kl"):
        fam.parse_spec("x", keys_of, "comparator")


def test_mean_domain_checks():
    with pytest.raises(ValueError):
        fam.bernoulli().cgf(1.5, 0.1)
    with pytest.raises(ValueError):
        fam.poisson().cramer(1.0, -0.5)


@pytest.mark.parametrize("call", [
    lambda f: f.cramer(0.0, math.nan),
    lambda f: f.cgf(math.nan, 0.1),
    lambda f: f.sample(math.nan, 3, make_generator(0)),
    lambda f: f.sample(np.array([0.5, math.nan]), (2, 2), make_generator(0)),
], ids=["cramer", "cgf", "sample", "sample_array"])
def test_nan_mean_is_rejected(call):
    # NaN fails every comparison, so an outside test would let it through
    with pytest.raises(ValueError, match=r"mean .*nan.* outside the open domain"):
        call(fam.gaussian(1.0))


def test_nuisance_validation():
    with pytest.raises(ValueError):
        fam.gaussian(-1.0)
    with pytest.raises(ValueError):
        fam.BoundingFamily("bernoulli", 2.0)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, 0, -1])
@pytest.mark.parametrize("kind", ["gaussian", "gamma", "laplace", "invgauss",
                                  "negbin"])
def test_nuisance_must_be_positive_and_finite(kind, v):
    # a NaN fails every comparison, so only an inside test rejects it
    key = fam._LAWS[kind].key
    for make, got in [(lambda: fam.BoundingFamily(kind, v), str(v)),
                      (lambda: fam.parse_family(f"{kind}:{key}={v}"),
                       str(float(v)))]:
        with pytest.raises(ValueError, match=rf"^{kind} needs {key} in "
                           rf"\(0, inf\), got {re.escape(got)}$"):
            make()
