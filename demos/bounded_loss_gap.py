"""Where the binary-kl bound beats the sub-gaussian one for bounded losses."""

import numpy as np

from cgfbounds import bounds, families as fam

n = 100
alphas = np.linspace(0.05, 0.95, 7)
bons = np.geomspace(1e-3, 5.0, 7)

a, bon = np.meshgrid(alphas, bons, indexing="ij")


def clamped(kind):
    """One bound kind over the (alpha, beta/n) grid, capped at 1."""
    v = bounds.bound_values(kind, fam.bernoulli(), a, bon * n, n, sigma2=0.25)
    return np.minimum(v, 1.0)


surface = clamped("gaussian_diff_inf") - clamped("average_cramer")

print("sub-gaussian bound minus kl bound, both clamped at 1, n=%d" % n)
print("rows: training loss alpha; columns: divergence budget beta/n")
header = "alpha\\b/n " + " ".join("%8.3g" % b for b in bons)
print(header)
for i, a in enumerate(alphas):
    print("%9.2f " % a + " ".join("%8.4f" % surface[i, j]
                                  for j in range(len(bons))))

worst = np.unravel_index(np.argmax(surface), surface.shape)
print("\nlargest gap %.4f at alpha=%.2f, beta/n=%.3g"
      % (surface[worst], alphas[worst[0]], bons[worst[1]]))
print("the gap vanishes in the corner where both bounds saturate at 1")
