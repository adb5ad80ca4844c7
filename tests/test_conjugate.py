import math

import numpy as np
import pytest

from cgfbounds import cli
from cgfbounds import conjugate as con
from cgfbounds import families as fam
from cgfbounds import inversion as inv

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


# -- the custom door: a caller's comparator goes through cellwise -------------

def test_custom_raising_cell_is_inf_and_infeasible():
    def fn(q, r):
        if np.any(np.asarray(r) > 0.5):
            raise ValueError(f"r={r} too large")
        return r - q

    comp = inv.custom(fn, (0.0, 1.0))
    got = comp.eval(0.25, RS)
    assert np.array_equal(got, np.where(RS > 0.5, math.inf, RS - 0.25))
    # the budget allows every r, but the cells past r = 0.5 are infeasible
    res = inv.invert(comp, 0.1, 1.0)
    assert res.status == "converged" and 0.5 - 1e-9 <= res.rho <= 0.5


def test_custom_type_error_in_a_cell_propagates():
    def fn(q, r):
        raise TypeError("never defined")

    with pytest.raises(TypeError, match="never defined"):
        inv.invert(inv.custom(fn, (0.0, 1.0)), QS, 1.0)


def test_custom_array_answer_to_a_cell_raises():
    # a scalar-only fn that holds an array of parameters answers each cell
    # with an array; filling that cell would hide the fault
    ts = np.array([1.0, 2.0])

    def fn(q, r):
        return ts * (float(r) - float(q))

    with pytest.raises(ValueError, match=r"answered one cell with shape \(2,\)"):
        inv.custom(fn, (0.0, 1.0)).eval(QS, RS)


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


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_family_cgf_broadcasts_over_the_probe_ladder(family):
    # numeric_conjugate calls a built-in CGF once on the whole ladder; every
    # point must be the scalar call's double (Poisson's expm1 overflows to
    # inf past t ~ 709, on the array and on the scalar alike)
    for p in GRIDS[family.kind]:
        ts = np.array(con._probe_points(*family.t_domain(float(p))))
        with np.errstate(over="ignore"):
            got = family.cgf(float(p), ts)
            want = np.array([family.cgf(float(p), t) for t in ts.tolist()])
        assert got.shape == ts.shape and got.tobytes() == want.tobytes()


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


# -- argmax_zoom ----------------------------------------------------------------

def recorded(f):
    """f, plus the list of every point it is asked for."""
    seen = []

    def g(xs):
        seen.extend(np.asarray(xs).tolist())
        return f(np.asarray(xs))
    return g, seen


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["first", "last"])
def test_argmax_zoom_best_at_an_end_stays_in_the_end_cell(sign):
    # a monotone f peaks at one end of the grid: the zoom keeps to the one
    # cell next to it, and no point there beats the grid point itself
    xs = np.linspace(0.0, 1.0, 6)
    f, seen = recorded(lambda x: sign * x)
    x, v = con.argmax_zoom(f, xs, f(xs))
    end, cell = (xs[0], xs[:2]) if sign < 0 else (xs[-1], xs[-2:])
    assert (x, v) == (end, sign * end)
    zoomed = seen[len(xs):]
    assert zoomed and cell[0] <= min(zoomed) and max(zoomed) <= cell[1]


def test_argmax_zoom_keeps_the_grid_point_on_a_tie():
    # f is flat at its max on [0.3, 0.7]: zoom points there tie with the
    # grid point 0.4 and must not replace it
    def plateau(x):
        return -np.maximum(np.abs(x - 0.5) - 0.2, 0.0)

    xs = np.array([0.0, 0.4, 1.0])
    f, seen = recorded(plateau)
    assert con.argmax_zoom(f, xs, f(xs)) == (0.4, 0.0)
    zoomed = np.array(seen[len(xs):])
    assert np.any((zoomed != 0.4) & (plateau(zoomed) == 0.0))


def test_argmax_zoom_flat_grid_returns_the_grid_point():
    xs = np.linspace(-1.0, 1.0, 9)
    f, seen = recorded(lambda x: np.full(x.shape, 2.5))
    assert con.argmax_zoom(f, xs, f(xs)) == (-1.0, 2.5)
    assert len(seen) == len(xs) + con._ZOOM_POINTS    # one flat round


def test_argmax_zoom_takes_a_strictly_better_zoom_point():
    xs = np.linspace(0.0, 1.0, 5)
    x, v = con.argmax_zoom(lambda x: -(x - 0.3) ** 2, xs, -(xs - 0.3) ** 2)
    assert x == pytest.approx(0.3, abs=1e-9) and v > -(0.25 - 0.3) ** 2


def scalar_zoom(f, xs, vals):
    """argmax_zoom as it was first written, one row at a time: the oracle of
    the batched maximizer."""
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    for _ in range(con._ZOOM_ROUNDS):
        zs = np.linspace(a, b, con._ZOOM_POINTS)
        zvals = np.asarray(f(zs), dtype=float)
        j = int(np.argmax(zvals))
        top = float(zvals[j])
        if top > best_v:
            best_x, best_v = float(zs[j]), top
        if top - float(np.min(zvals)) <= 4e-16 * max(1.0, abs(top)):
            break
        a, b = zs[max(j - 1, 0)], zs[min(j + 1, con._ZOOM_POINTS - 1)]
    return best_x, best_v


# one function per row: a smooth peak (all rounds), a flat row (one round),
# a plateau whose zoom points tie with the grid point, a best point at
# either end, a tall peak whose values go flat to rounding a few rounds in,
# and a row
# that is -inf on the left half
ZOOM_ROWS = [
    lambda x: -(x - 0.3137) ** 2,
    lambda x: np.full(np.shape(x), 2.5),
    lambda x: -np.maximum(np.abs(x - 0.5) - 0.2, 0.0),
    lambda x: x,
    lambda x: -x,
    lambda x: 1e6 - (x - 0.61) ** 2,
    lambda x: np.where(x < 0.5, -np.inf, -(x - 0.7) ** 2),
]
ZOOM_XS = np.array([0.0, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0])


def test_batched_argmax_zoom_equals_a_per_row_loop():
    seen = []

    def f(zs, rows):
        seen.append(rows.tolist())
        return np.array([ZOOM_ROWS[r](z) for r, z in zip(rows, zs)])

    vals = np.array([g(ZOOM_XS) for g in ZOOM_ROWS])
    xs, vs = con.argmax_zoom(f, ZOOM_XS, vals)
    want = [scalar_zoom(g, ZOOM_XS, g(ZOOM_XS)) for g in ZOOM_ROWS]
    assert list(zip(xs.tolist(), vs.tolist())) == want
    # each row stops in its own round and leaves the later ones
    rounds = [sum(r in rows for rows in seen) for r in range(len(ZOOM_ROWS))]
    assert rounds[3] == con._ZOOM_ROUNDS and rounds[1] == 1, rounds
    assert len(set(rounds)) >= 4
    assert all(sorted(rows) == rows for rows in seen)


def test_one_row_argmax_zoom_equals_the_scalar_zoom():
    for g in ZOOM_ROWS:
        got = con.argmax_zoom(g, ZOOM_XS, g(ZOOM_XS))
        assert got == scalar_zoom(g, ZOOM_XS, g(ZOOM_XS))
        assert all(type(v) is float for v in got)


def test_zoom_points_are_linspace():
    a = np.array([0.0, -1.0, 0.3, 5e-324, 2.0])
    b = np.array([1.0, 3.0, 0.3, 1e-323, 2.0 + 2.0 ** -51])
    got = con._zoom_points(a, b)
    for r in range(len(a)):
        assert np.array_equal(got[r], np.linspace(a[r], b[r],
                                                  con._ZOOM_POINTS))


@pytest.mark.parametrize("spec", cli._DEFAULT_CHECK_FAMILIES)
def test_numeric_conjugate_over_an_array_of_q_equals_per_q(spec):
    family = fam.parse_family(spec)
    grid = cli._CHECK_GRIDS[family.kind]
    for p in grid.tolist():
        got = con.family_conjugate(family, grid, p)
        assert got.value.shape == got.t_star.shape == grid.shape
        for k, q in enumerate(grid.tolist()):
            want = con.family_conjugate(family, q, p)
            assert (got.value[k], got.at_boundary[k]) == (want.value,
                                                          want.at_boundary)
            assert np.array_equal(got.t_star[k], want.t_star, equal_nan=True)


def test_array_of_q_with_one_outside_the_mean_range_diverges():
    bern, poi = fam.bernoulli(), fam.poisson()
    with pytest.raises(con.ConjugateDivergent, match=r"q=1\.5"):
        con.family_conjugate(bern, np.array([0.2, 1.5, 0.7]), 0.4)
    with pytest.raises(con.ConjugateDivergent, match=r"q=-0\.2"):
        con.family_conjugate(poi, np.array([[0.5, 2.0], [-0.2, 1.0]]), 1.0)
    # the edge q = 1 is attained in the limit, in an array as on its own
    res = con.family_conjugate(bern, np.array([0.5, 1.0]), 0.3)
    assert res.at_boundary.tolist() == [False, True]
    assert res.t_star[1] == math.inf
