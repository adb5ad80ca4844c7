"""The numpy special functions against scipy.special, the reference."""

import math

import numpy as np
import pytest
from scipy import special

from cgfbounds import _special as sp
from cgfbounds import families as fam

INF, NAN = math.inf, math.nan


def assert_ulp(got, want, maxulp=4):
    """Same NaN and infinity pattern, finite values within maxulp ulp."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    fin = np.isfinite(want)
    assert np.array_equal(got[~fin & ~np.isnan(want)], want[~fin & ~np.isnan(want)])
    assert np.array_equal(np.isfinite(got), fin)
    diff = np.abs(got[fin] - want[fin])
    assert (diff <= maxulp * np.spacing(np.abs(want[fin]))).all(), diff.max()


# 1e-300 against 1e10 and 1e300 against 1e-300 under- and overflow x / y
EDGES = np.array([0.0, -0.0, 1e-300, 0.3, 1.0, 2.5, 1e10, 1e300, -0.7, -2.0,
                  INF, -INF, NAN])


def edge_pairs():
    x, y = np.meshgrid(EDGES, EDGES, indexing="ij")
    return x.ravel(), y.ravel()


def random_pairs(seed, size=20000):
    rng = np.random.default_rng(seed)
    x = rng.random(size) * 10.0 ** rng.uniform(-8, 3, size)
    y = rng.random(size) * 10.0 ** rng.uniform(-8, 3, size)
    x[::7] = 0.0
    y[::11] *= -1.0
    return x, y


@pytest.mark.parametrize("name", ["rel_entr", "xlogy", "xlog1py"])
@pytest.mark.parametrize("seed", [0, 1])
def test_zero_log_functions_match_scipy(name, seed):
    ours, ref = getattr(sp, name), getattr(special, name)
    for x, y in (random_pairs(seed), edge_pairs()):
        with np.errstate(all="ignore"):
            want = ref(x, y)
        assert_ulp(ours(x, y), want)
    # every ratio near 1, where the logarithm is small, and none near it
    x = np.random.default_rng(seed).uniform(0.1, 0.9, 1000)
    for ratio in (1.0 + 1e-9, 5.0):
        assert_ulp(ours(x, x * ratio), ref(x, x * ratio))


def test_rel_entr_edges():
    assert sp.rel_entr(0.0, 0.0) == 0.0 and sp.rel_entr(0.0, 2.0) == 0.0
    assert sp.rel_entr(0.0, INF) == 0.0
    for x, y in ((0.5, 0.0), (0.5, -1.0), (-0.5, 0.5), (0.0, -1.0)):
        assert sp.rel_entr(x, y) == INF
    assert math.isnan(sp.rel_entr(NAN, 0.5)) and math.isnan(sp.rel_entr(0.0, NAN))
    # just past the end of the Bernoulli mean range the kl is infinite
    assert fam.binary_kl(0.9, 1 + 2e-9) == INF
    assert type(sp.rel_entr(0.2, 0.4)) is np.float64


@pytest.mark.parametrize("x,y", [(NAN, 0.5), (0.5, NAN), (0.5, 1.0),
                                 (1.0, 0.5), (0.0, 0.3), (-0.3, -0.4),
                                 (5e-324, 1e-323)],
                         ids=["nan_x", "nan_y", "r_half", "r_two", "x_zero",
                              "both_negative", "subnormal_r_half"])
def test_rel_entr_fast_path_edges(x, y):
    # one edge cell among cells that take the fast path (x > 0, x/y in
    # (1/2, 2)) sends the whole array down the slow path, alone and in 0-d;
    # on both paths a caller's d = x - y gives the doubles of no d
    xs, ys = np.array([0.3, 0.4, x, 0.7]), np.array([0.35, 0.3, y, 0.5])
    assert_ulp(sp.rel_entr(xs, ys), special.rel_entr(xs, ys))
    assert_ulp(sp.rel_entr(x, y), special.rel_entr(x, y))
    for a, b in ((xs, ys), (x, y), (xs[[0, 1, 3]], ys[[0, 1, 3]])):
        assert (np.asarray(sp.rel_entr(a, b, np.subtract(a, b))).tobytes()
                == np.asarray(sp.rel_entr(a, b)).tobytes())


def test_rel_entr_of_nothing():
    for shape in ((0,), (2, 0)):
        got = sp.rel_entr(np.empty(shape), np.empty(shape))
        assert got.shape == shape and got.dtype == float
    assert sp.rel_entr(np.empty(0), 0.5).shape == (0,)


def test_xlogy_zero_rule():
    assert sp.xlogy(0.0, 0.0) == 0.0 and sp.xlogy(0.0, -1.0) == 0.0
    assert sp.xlog1py(0.0, -1.0) == 0.0 and sp.xlog1py(0.0, -2.0) == 0.0
    assert math.isnan(sp.xlogy(0.0, NAN)) and math.isnan(sp.xlog1py(0.0, NAN))
    assert sp.xlogy(2.0, 0.0) == -INF


def test_gammaln_matches_scipy():
    rng = np.random.default_rng(3)
    x = np.concatenate((rng.random(5000) * 10.0 ** rng.uniform(-3, 4, 5000),
                        np.arange(1.0, 2002.0),
                        -rng.uniform(0.0, 50.0, 2000)))
    got, want = sp.gammaln(x), special.gammaln(x)
    assert (np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))).all()
    edges = np.array([INF, NAN, 1.0, 2.0])
    assert_ulp(sp.gammaln(edges), special.gammaln(edges), maxulp=0)
    assert sp.gammaln(5) == math.lgamma(5) and np.ndim(sp.gammaln(5)) == 0
    for pole in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            sp.gammaln([1.5, pole])


LSE_CASES = {
    "vector": (np.array([-1.0, 0.0, 2.0, 2.0, -INF]), {}),
    "tiny_result": (np.array([0.0, -40.0, -700.0]), {}),
    "all_minus_inf": (np.array([-INF, -INF]), {}),
    "plus_inf": (np.array([1.0, INF]), {}),
    "nan": (np.array([1.0, NAN]), {}),
    "rows": (np.array([[0.0, 1.0, 2.0], [-INF, -INF, -INF], [5.0, -INF, 5.0]]),
             {"axis": 1}),
    "rows_keepdims": (np.array([[0.0, 1.0, 2.0], [-INF, -INF, -INF]]),
                      {"axis": 1, "keepdims": True}),
    "cols": (np.array([[0.0, 1.0], [-INF, -3.0], [7.0, -INF]]), {"axis": 0}),
    "last_axis": (np.arange(24.0).reshape(2, 3, 4) - 30.0, {"axis": -1}),
    "all_keepdims": (np.arange(6.0).reshape(2, 3), {"keepdims": True}),
}


@pytest.mark.parametrize("name", sorted(LSE_CASES))
def test_logsumexp_matches_scipy(name):
    a, kw = LSE_CASES[name]
    got, want = sp.logsumexp(a, **kw), special.logsumexp(a, **kw)
    assert np.shape(got) == np.shape(want)
    assert_ulp(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_logsumexp_random_arrays(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 10.0 ** rng.uniform(-2, 3), (40, 257))
    a[rng.random(a.shape) < 0.05] = -INF
    for kw in ({}, {"axis": 0}, {"axis": 1}, {"axis": 1, "keepdims": True}):
        assert_ulp(sp.logsumexp(a, **kw), special.logsumexp(a, **kw))
    assert sp.logsumexp([-INF, -INF]) == -INF


@pytest.mark.parametrize("t", [20, 400, 2000])
def test_binomial_tail_root_against_betaincinv(t):
    # the Clopper-Pearson limits at 95%: close to betaincinv, and the upper
    # limit never below it, nor the lower limit above it
    for k in range(t + 1):
        if k < t:
            want = special.betaincinv(k + 1, t - k, 0.975)
            hi = sp.binomial_tail_root(k, t, 0.025)
            assert abs(hi - want) <= 1e-12 * want, (k, hi, want)
            assert hi >= want * (1.0 - 1e-15), (k, hi, want)
        if k > 0:
            want = special.betaincinv(k, t - k + 1, 0.025)
            lo = sp.binomial_tail_root(k, t, 0.025, upper=True)
            assert abs(lo - want) <= 1e-12 * want, (k, lo, want)
            assert lo <= want * (1.0 + 1e-15), (k, lo, want)


def test_binomial_tail_root_refuses_tails_without_a_root():
    for args in ((5, 5, 0.025), (0, 5, 0.025, True), (2, 5, 0.0), (6, 5, 0.5)):
        with pytest.raises(ValueError, match="no tail root"):
            sp.binomial_tail_root(*args)
