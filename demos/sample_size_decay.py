"""How fast the average bound shrinks with the sample size for heavy budgets.

In the small-n regime the gamma bound decays roughly like 1/n^2 (the
inversion is still far out on the Cramer function's flat shoulder); once n
is comparable to beta the usual 1/sqrt(n) regime takes over.
"""

import numpy as np

from cgfbounds import bounds, families as fam

family = fam.gamma(5.0)
alpha, beta = 1.0, 1000.0

print("gamma(k=5), alpha=%g, beta=%g" % (alpha, beta))
print("%8s %12s %10s" % ("n", "bound", "local slope"))
prev = None
for n in np.geomspace(100, 100000, 13):
    n = int(round(n))
    rho = bounds.evaluate_kind("average_cramer", family, alpha, beta, n).rho
    slope = ""
    if prev is not None:
        slope = "%10.2f" % (np.log(rho / prev[1]) / np.log(n / prev[0]))
    print("%8d %12.6f %s" % (n, rho, slope))
    prev = (n, rho)

r100, r1k, r10k, r100k = bounds.bound_values("average_cramer", family, alpha,
                                             beta, [100, 1000, 10**4, 10**5])
print("\ndecrease 10^2 -> 10^3: %.1f%%" % (100 * (1 - r1k / r100)))
print("decrease 10^4 -> 10^5: %.1f%%" % (100 * (1 - r100k / r10k)))
