import math

import numpy as np
import pytest

from cgfbounds import conjugate as con
from cgfbounds import families as fam

ALL = [fam.bernoulli(), fam.gaussian(1.3), fam.poisson(), fam.gamma(2.5),
       fam.laplace(0.8), fam.invgauss(1.7), fam.negbin(3.0)]

GRIDS = {
    "bernoulli": np.linspace(0.1, 0.9, 5),
    "gaussian": np.linspace(-2.0, 2.0, 5),
    "poisson": np.geomspace(0.2, 4.0, 5),
    "gamma": np.geomspace(0.2, 4.0, 5),
    "laplace": np.linspace(-2.0, 2.0, 5),
    "invgauss": np.geomspace(0.2, 4.0, 5),
    "negbin": np.geomspace(0.2, 4.0, 5),
}


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_conjugate_matches_closed_cramer(family):
    grid = GRIDS[family.kind]
    for q in grid:
        for p in grid:
            closed = family.cramer(float(q), float(p))
            res = con.family_conjugate(family, float(q), float(p))
            assert res.value == pytest.approx(closed, rel=1e-8, abs=1e-9), (q, p)


def test_divergent_outside_mean_range():
    bern = fam.bernoulli()
    with pytest.raises(con.ConjugateDivergent):
        con.numeric_conjugate(lambda t: bern.cgf(0.4, t), 1.5,
                              bern.t_domain(0.4))
    poi = fam.poisson()
    with pytest.raises(con.ConjugateDivergent):
        con.numeric_conjugate(lambda t: poi.cgf(1.0, t), -0.2,
                              poi.t_domain(1.0))


def test_supremum_at_infinity_Bernoulli_edge():
    # q = 1: sup_t t - ln(1 - p + p e^t) = -ln p, attained only in the limit
    bern = fam.bernoulli()
    res = con.numeric_conjugate(lambda t: bern.cgf(0.3, t), 1.0,
                                bern.t_domain(0.3))
    assert res.value == pytest.approx(-math.log(0.3), rel=1e-6)
    assert res.at_boundary and math.isinf(res.t_star)


def test_gamma_finite_end_polish():
    # supremum near the finite end t -> k/p for q far above p
    g = fam.gamma(2.0)
    res = con.family_conjugate(g, 8.0, 0.5)
    assert res.value == pytest.approx(g.cramer(8.0, 0.5), rel=1e-8)


def test_diagonal_is_zero():
    for family in ALL:
        q = float(GRIDS[family.kind][2])
        res = con.family_conjugate(family, q, q)
        assert abs(res.value) <= 1e-10


# -- cellwise: the one per-cell evaluator ------------------------------------

def counted(fn):
    calls = []

    def wrapped(*args):
        calls.append(args)
        return fn(*args)
    return wrapped, calls


def scalar_only(fn):
    def wrapped(*args):
        if any(np.ndim(a) for a in args):
            raise TypeError("scalar arguments only")
        return fn(*args)
    return wrapped


QS = np.linspace(0.1, 0.9, 4)
RS = np.linspace(0.2, 0.8, 3)[:, None]


def test_cellwise_calls_a_broadcasting_fn_once():
    fn, calls = counted(lambda q, r: q * r - q)
    got = con.cellwise(fn, QS, RS)
    assert len(calls) == 1 and calls[0][0] is QS and calls[0][1] is RS
    assert np.array_equal(got, QS * RS - QS)


def test_cellwise_scalar_only_fn_goes_cell_by_cell():
    want = con.cellwise(fam.binary_kl, QS, RS)
    fn, calls = counted(scalar_only(fam.binary_kl))
    got = con.cellwise(fn, QS, RS)
    assert got.shape == (3, 4) and np.array_equal(got, want)
    assert len(calls) == 1 + 12
    assert all(type(a) is float for args in calls[1:] for a in args)


def test_cellwise_wrong_shape_fn_goes_cell_by_cell():
    # a function that reduces its input answers the array call in the wrong shape
    got = con.cellwise(lambda q, r: float(np.sum(q)) * r, QS, RS)
    assert np.array_equal(got, QS * RS)


def test_cellwise_scalar_arguments_give_a_0d_array():
    got = con.cellwise(scalar_only(lambda q, r: q - r), 0.75, 0.25)
    assert got.shape == () and float(got) == 0.5


def test_cellwise_raising_cell_gives_fill_or_reraises():
    def fn(q, r):
        if np.any(np.asarray(q) > 0.5):
            raise ValueError(f"q={q} too large")
        return q + r

    got = con.cellwise(fn, QS, 1.0, fill=math.inf)
    assert np.array_equal(got, np.where(QS > 0.5, math.inf, QS + 1.0))
    with pytest.raises(ValueError, match=r"q=0\.63.* too large"):
        con.cellwise(fn, QS, 1.0)


def test_cellwise_type_error_in_a_cell_propagates():
    def fn(q):
        raise TypeError("never defined")

    with pytest.raises(TypeError, match="never defined"):
        con.cellwise(fn, QS, fill=math.inf)


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_numeric_conjugate_scalar_only_cgf_equals_vectorized(family):
    grid = GRIDS[family.kind]
    for q in (float(grid[0]), float(grid[3])):
        p = float(grid[2])
        dom = family.t_domain(p)
        want = con.numeric_conjugate(lambda t: family.cgf(p, t), q, dom)
        got = con.numeric_conjugate(scalar_only(lambda t: family.cgf(p, t)),
                                    q, dom)
        assert got == want


def test_t_domain_is_a_pair_and_zero_is_probed_inside_it():
    # a plain (lower, upper) pair: 0 is a probe point exactly when it is
    # interior, which holds for every family's CGF domain
    assert con.numeric_conjugate(lambda t: 0.5 * t * t, 1.0,
                                 (-math.inf, math.inf)).value == 0.5
    for family in ALL:
        lo, hi = family.t_domain(float(GRIDS[family.kind][2]))
        assert lo < 0.0 < hi and 0.0 in con._probe_points(lo, hi)
    assert 0.0 not in con._probe_points(0.0, 1.0)
    assert 0.0 not in con._probe_points(-1.0, 0.0)
