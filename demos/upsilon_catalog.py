"""The moment quantity Upsilon across the comparator catalog.

Comparators built from a family's own CGF integrate to exactly one, the
binary kl enumerates to a finite O(sqrt(n)) value, and the Cramer
comparators of continuous families blow up.
"""

import math

from cgfbounds import families as fam
from cgfbounds import inversion as inv
from cgfbounds import upsilon as ups

n = 20
cases = [
    ("kl over bernoulli", inv.binary_kl(), fam.bernoulli()),
    ("catoni(-2) over bernoulli", inv.catoni(-2.0), fam.bernoulli()),
    ("poisson_diff(0.5) over poisson", inv.poisson_diff(0.5), fam.poisson()),
    ("gaussian_diff over gaussian", inv.gaussian_diff(0.5, 1.0), fam.gaussian(1.0)),
    ("scaled_diff(0.3) over gaussian", inv.scaled_diff(0.3), fam.gaussian(1.0)),
    ("cramer over poisson", inv.cramer_of(fam.poisson()), fam.poisson()),
    ("cramer over gamma", inv.cramer_of(fam.gamma(2.0)), fam.gamma(2.0)),
]

print("n = %d" % n)
print("%-34s %-12s %s" % ("comparator", "mode", "ln Upsilon"))
for name, comp, family in cases:
    est = ups.compute_upsilon(comp, family, n)
    val = "divergent" if math.isinf(est.value) else "%.6f" % est.value
    print("%-34s %-12s %s" % (name, est.mode, val))

print("\nenvelope check: ln Upsilon_kl(n) vs ln(2 sqrt n)")
for m in (1, 5, 20, 100, 500):
    v = ups.compute_upsilon(inv.binary_kl(), fam.bernoulli(), m).value
    print("  n=%3d   %8.5f <= %8.5f" % (m, v, math.log(2 * math.sqrt(m))))
