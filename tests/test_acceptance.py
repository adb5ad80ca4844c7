"""End-to-end acceptance checks; one printed verdict line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import dataclasses
import math
import time

import numpy as np

from cgfbounds import bounds, conjugate, verify
from cgfbounds import families as fam
from cgfbounds import inversion as inv
from cgfbounds import upsilon as ups
from cgfbounds.rng import make_generator
from poisson_oracle import invert_closed_form_poisson
from surface import difference_surface


def verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def interior_grid(family, points=20):
    lo, hi = family.mean_domain
    if math.isfinite(hi):
        span = hi - lo
        return np.linspace(lo + 0.01 * span, hi - 0.01 * span, points)
    if lo == 0.0:
        return np.geomspace(0.05, 8.0, points)
    return np.linspace(-4.0, 4.0, points)


def test_c01_conjugate_oracle_suite():
    fams = (fam.bernoulli(), fam.gaussian(1.0), fam.poisson(), fam.gamma(2.0),
            fam.laplace(1.0), fam.invgauss(1.5), fam.negbin(3.0))
    t0 = time.perf_counter()
    worst = 0.0
    for family in fams:
        grid = interior_grid(family)
        for p in grid:      # one array call over the q grid per (family, p)
            closed = family.cramer(grid, float(p))
            res = conjugate.family_conjugate(family, grid, float(p))
            worst = max(worst, float(np.abs(closed - res.value).max()))
    dt = time.perf_counter() - t0
    verdict(1, "conjugate-vs-closed 7x20x20", worst < 1e-7 and dt < 5.0,
            f"max err {worst:.3g}, {dt:.2f}s")


def test_c02_catoni_mls_identity():
    # one broadcast infimum and one bound_values call give the doubles of
    # the 900 0-d query pairs
    t0 = time.perf_counter()
    a, bon = np.meshgrid(np.linspace(0.02, 0.9, 30), np.geomspace(1e-3, 2.0, 30),
                         indexing="ij")
    orc = inv.infimum_over_parameter(lambda m: inv.catoni(-m), a,
                                     inv.budget(bon * 100, 100),
                                     (1e-3, 50.0)).rho
    ca = bounds.bound_values("catoni_inf", None, a, bon * 100, 100)
    worst = float(np.abs(orc - ca).max())
    dt = time.perf_counter() - t0
    verdict(2, "catoni-infimum equals kl 30x30", worst <= 1e-6 and dt < 30.0,
            f"max err {worst:.3g}, {dt:.2f}s")


def test_c03_laplace_equivalence():
    t0 = time.perf_counter()
    # alpha from -1: the Laplace loss range is the whole line
    a, bon = np.meshgrid(np.linspace(-1.0, 2.0, 31), np.geomspace(1e-3, 2.0, 30),
                         indexing="ij")
    ref = inv.infimum_over_parameter(lambda t: inv.laplace_diff(t, 1.0), a,
                                     inv.budget(bon * 60, 60),
                                     (1e-8, 1.0 - 1e-12)).rho
    dif = bounds.bound_values("laplace_diff_inf", None, a, bon * 60, 60, b=1.0)
    worst = float(np.abs(ref - dif).max())
    dt = time.perf_counter() - t0
    verdict(3, "laplace diff equals cramer 31x30", worst <= 1e-6 and dt < 30.0,
            f"max err {worst:.3g}, {dt:.2f}s")


def test_c04_mls_envelope():
    t0 = time.perf_counter()
    comp, bern = inv.binary_kl(), fam.bernoulli()
    floor, margin = math.inf, -math.inf
    for n in range(1, 501):
        v = ups.compute_upsilon(comp, bern, n).value
        floor = min(floor, v - math.log(2.0))
        margin = max(margin, v - math.log(2.0 * math.sqrt(n)))
    one = ups.compute_upsilon(comp, bern, 1).value
    exact1 = abs(one - math.log(2.0)) <= 1e-12
    dt = time.perf_counter() - t0
    verdict(4, "ln 2 <= ln Upsilon_kl(n) <= ln(2 sqrt n), n <= 500",
            floor >= -1e-12 and margin <= 1e-9 and exact1 and dt < 120.0,
            f"least slack {floor:.3g}, max slack {margin:.3g}, "
            f"|Upsilon(1)-2| exact, {dt:.1f}s")


def test_c05_bounded_loss_surface():
    alphas = np.linspace(0.02, 0.98, 50)
    bons = np.geomspace(1e-3, 5.0, 50)
    s = difference_surface("gaussian_diff_inf", "average_cramer",
                           (alphas, bons, 100), family=fam.bernoulli(),
                           clamp=True, sigma2=0.25)
    nonneg = bool(np.all(s >= 0.0))
    # the corner where the sub-gaussian bound clamps and the kl bound
    # saturates must be flat zero at working precision; one grid call gives
    # the doubles of the 2,500 scalar evaluate_kind calls
    a, bon = np.meshgrid(alphas, bons, indexing="ij")
    sub = a + np.sqrt(2 * 0.25 * bon)
    kl = bounds.bound_values("average_cramer", fam.bernoulli(), a, bon * 100,
                             100)
    corner = (sub >= 1.0) & (kl >= 1.0 - 1e-6)
    saturated = int(corner.sum())
    flat = bool(np.all(s[corner] <= 1e-6))
    verdict(5, "bounded-loss surface 50x50", nonneg and flat and saturated > 0,
            f"min {s.min():.3g}, {saturated} saturated cells flat")


def test_c06_poisson_surface():
    # fig1b's grid and a beta = 0 column, where both bounds are alpha
    alphas = np.linspace(0.05, 3.0, 50)
    bons = np.concatenate(([0.0], np.geomspace(1e-3, 2.0, 50)))
    s = difference_surface("poisson_diff_inf", "average_cramer",
                           (alphas, bons, 100), family=fam.poisson())
    verdict(6, "poisson diff surface 50x51", bool(np.all(s >= -1e-9)),
            f"min {s.min():.3g}")


def test_c07_gamma_n_dependence():
    t0 = time.perf_counter()
    f = fam.gamma(5.0)
    rho = {n: bounds.evaluate_kind("average_cramer", f, 1.0, 1000.0, n).rho
           for n in (100, 1000, 10**4, 10**5)}
    d1 = 100.0 * (1.0 - rho[1000] / rho[100])
    d2 = 100.0 * (1.0 - rho[10**5] / rho[10**4])
    dt = time.perf_counter() - t0
    verdict(7, "gamma bound decay 89%/13%",
            abs(d1 - 89.0) <= 2.0 and abs(d2 - 13.0) <= 2.0 and dt < 10.0,
            f"{d1:.2f}% and {d2:.2f}%, {dt:.2f}s")


def test_c08_divergence_detection():
    pois = ups.compute_upsilon(inv.cramer_of(fam.poisson()), fam.poisson(), 10)
    gam = ups.compute_upsilon(inv.cramer_of(fam.gamma(2.0)), fam.gamma(2.0), 10)
    series_err = max(abs(ups.upsilon_poisson_series(inv.poisson_diff(t), 10).value)
                     for t in (0.2, 1.0, 5.0))
    ok = (pois.mode == "divergent" and gam.mode == "divergent"
          and series_err <= 1e-8)
    verdict(8, "divergent Upsilon flagged, diff identity",
            ok, f"modes {pois.mode}/{gam.mode}, series err {series_err:.3g}")


def test_c09_reference_floor():
    cases = {fam.bernoulli(): (np.linspace(0.05, 0.9, 6),
                               ("mls", "pac_cramer_xi", "pac_cramer_two_e_ceil",
                                "pac_cramer_chernoff")),
             fam.gaussian(0.5): (np.linspace(-1.0, 1.5, 6),
                                 ("pac_cramer_xi", "pac_cramer_two_e_ceil",
                                  "gaussian_diff_inf")),
             fam.poisson(): (np.linspace(0.1, 2.5, 6),
                             ("pac_cramer_xi", "pac_cramer_two_e_ceil",
                              "poisson_diff_inf"))}
    n, delta = 100, 0.05
    worst, cells = math.inf, 0
    for family, (alphas, kinds) in cases.items():
        for a in alphas:
            for beta in np.geomspace(0.1, 20.0, 6):
                ref = bounds.evaluate_kind("average_cramer", family, float(a),
                                           float(beta), n, delta).rho
                for kind in kinds:
                    r = bounds.evaluate_kind(kind, family, float(a),
                                             float(beta), n, delta)
                    worst = min(worst, r.rho - ref)
                    cells += 1
    verdict(9, "reference floor under certified kinds",
            worst >= -1e-9, f"min slack {worst:.3g} over {cells} cells")


def test_c10_monte_carlo_validity():
    t0 = time.perf_counter()
    summaries = verify.default_suite()
    over = [s for s in summaries if s["cp95_high"] > 0.05]
    dt = time.perf_counter() - t0
    verdict(10, "verify suite violation rates",
            not over and dt < 120.0,
            f"{len(summaries)} runs, {len(over)} over delta, {dt:.1f}s")


def test_c11_samplewise_dominance():
    bad = []
    for seed in range(20):
        rng = make_generator(seed, 31337)
        means = tuple(float(x) for x in rng.uniform(0.05, 0.95, 5))
        p = verify.SyntheticProblem(means, (0.2,) * 5, fam.bernoulli(),
                                    1.0, 10, 1, seed)
        cmp = verify.run_samplewise_comparison(p)
        se = math.hypot(cmp.se_samplewise, cmp.se_full)
        if cmp.samplewise > cmp.full + 2.0 * se:
            bad.append(seed)
    verdict(11, "samplewise at most full on 20 problems",
            not bad, f"violating seeds {bad or 'none'}")


def test_c12_closed_form_vs_bisection(monkeypatch):
    monkeypatch.setattr(inv, "_TOL", 1e-12)
    rng = np.random.default_rng(20260818)
    comp = dataclasses.replace(inv.cramer_of(fam.poisson()), exact_inverse=None)
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(0.01, 20.0))
        budget = float(rng.uniform(1e-6, 50.0))
        closed = invert_closed_form_poisson(alpha, budget)
        bis = float(inv._bisect(comp, alpha, budget)[0])
        worst = max(worst, abs(closed - bis) / abs(closed))
    verdict(12, "poisson closed form vs bisection",
            worst <= 1e-9, f"max rel err {worst:.3g}")
