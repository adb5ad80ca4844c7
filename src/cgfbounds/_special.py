"""The special functions the package needs, in numpy and math only.

rel_entr, xlogy and xlog1py use the 0 ln 0 = 0 convention, logsumexp keeps
its largest terms out of the sum for precision, gammaln is math.lgamma per
element, binomial_tail_root inverts a binomial tail in p for the
Clopper-Pearson limits, and two_product gives a product's rounding error.
Scalars in give numpy scalars out, as for a ufunc.
"""

import math

import numpy as np

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny     # the least normal double
# a.min() and a.max() over every axis, without the methods' Python layer,
# which costs a 0-d query more than the reduction itself
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


def rel_entr(x, y, d=None):
    """x ln(x/y) for x, y > 0; 0 for x = 0 <= y; NaN for NaN; +inf otherwise.

    ln(x/y) is taken as scipy takes it: log1p(d/y), d the caller's exact
    x - y where x or y was rounded, while x/y lies in (1/2, 2), exact to
    rounding there, and ln x - ln y where x/y under- or overflows.  Each
    logarithm runs only if some element needs it, and the edge cases are
    patched only where present.  The common case, every x/y in (1/2, 2) and
    every x > 0, is told by three reductions, each false on a NaN.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = x - y if d is None else d
        r = x / y
        if r.size == 0 or (_MIN(r, None) > 0.5 and _MAX(r, None) < 2.0
                           and _MIN(x, None) > 0):
            return (x * np.log1p(d / y))[()]  # y > 0, x/y normal
        near = (r > 0.5) & (r < 2.0)
        if near.any():
            out = x * np.where(near, np.log1p(d / y), np.log(r))
        else:
            out = x * np.log(r)
        if not (x.min() > 0 and r.min() >= _TINY and r.max() < math.inf):
            out = np.select([(x > 0) & (r >= _TINY) & (r < math.inf),
                             (x > 0) & (y > 0), (x == 0) & (y >= 0),
                             np.isnan(x) | np.isnan(y)],
                            [out, x * (np.log(x) - np.log(y)), 0.0, math.nan],
                            math.inf)
    return out[()]


def _x_times(log, x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * log(y)
    zero = (x == 0) & ~np.isnan(y)
    return (np.where(zero, 0.0, out) if zero.any() else out)[()]


def xlogy(x, y):
    """x ln y, and 0 where x == 0 and y is not NaN."""
    return _x_times(np.log, x, y)


def xlog1py(x, y):
    """x ln(1 + y), and 0 where x == 0 and y is not NaN."""
    return _x_times(np.log1p, x, y)


def two_product(a, b):
    """(y, e), y the rounded a b and e = a b - y exactly (Dekker's product:
    each factor split in 26-bit halves, whose products are exact); e is 0
    where a factor's split overflows, past 1.3e300, or y is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.multiply(a, b)
        a1, b1 = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))
        e = ((a1 * b1 - y) + a1 * (b - b1) + (a - a1) * b1) + (a - a1) * (
            b - b1)
    return y, np.where(np.isfinite(e), e, 0.0)


def gammaln(x):
    """math.lgamma per element: ln |Gamma(x)|, ValueError at the poles."""
    a = np.asarray(x, dtype=float)
    out = np.fromiter(map(math.lgamma, a.ravel().tolist()), float, a.size)
    return out.reshape(a.shape)[()]


def logsumexp(a, axis=None, keepdims=False):
    """ln sum exp(a) over axis; -inf for an all -inf reduction.

    The m maximal terms are summed apart, as m e^0, so a result near 0
    keeps its relative precision: ln(m (1 + s/m)) + max, s the other terms.
    The exponentials are made in place in one temporary the size of a.
    """
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.sum(top, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.where(top, -math.inf, a)
        e -= shift
        s = np.sum(np.exp(e, out=e), axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
    if not keepdims:
        out = out.reshape(()) if axis is None else np.squeeze(out, axis=axis)
    return out[()]


def binomial_tail_root(k, t, target, upper=False):
    """The p with P(Bin(t, p) <= k) = target, or P(Bin(t, p) >= k) with upper.

    Safeguarded Newton on the log tail, which is concave in p.  ln C(t, j)
    is a running sum of ln((t - j + 1)/j), so no large lgamma values
    cancel.  The root is moved outward, to the side where the tail is below
    target (up for the lower tail, down for the upper one), by 16 roundings
    of the log terms over the slope plus 4 ulp of p: a limit compared with
    delta never passes by rounding.  One-term tails (k = 0 lower, k = t
    upper) are closed forms.
    """
    if not (0 <= k <= t and 0.0 < target < 1.0) or k == (0 if upper else t):
        raise ValueError(f"no tail root for k={k}, t={t}, target={target}, "
                         f"upper={upper}")
    ln_target = math.log(target)
    if not upper and k == 0:
        return -math.expm1(ln_target / t)
    if upper and k == t:
        return math.exp(ln_target / t)
    top = t if upper else k
    ln_c = np.concatenate(([0.0], np.cumsum(np.log((t - np.arange(top))
                                                   / np.arange(1.0, top + 1)))))
    # the tail's j in order away from k: ln C(t, j) and j - k
    ln_c = ln_c[k:] if upper else ln_c[::-1]
    dj = np.arange(len(ln_c)) * (1.0 if upper else -1.0)
    p = (k + 0.5) / (t + 1.0)   # inside the root
    below, above = 0.0, 1.0
    for _ in range(100):
        ln_p, ln_q = math.log(p), math.log1p(-p)
        # ln P(Bin = j) - k ln p - (t - k) ln(1 - p)
        terms = ln_c + dj * (ln_p - ln_q)
        m = float(terms.max())
        ln_sum = m + math.log(float(np.exp(terms - m).sum()))
        g = ln_sum + k * ln_p + (t - k) * ln_q - ln_target
        if (g > 0) == upper:
            above = p
        else:
            below = p
        # d/dp of the tail is P(Bin = k) times k/p (upper) or -(t-k)/(1-p)
        rate = k / p if upper else (k - t) / (1.0 - p)
        slope = rate * math.exp(float(terms[0]) - ln_sum)
        scale = abs(float(ln_c[0])) + k * abs(ln_p) + (t - k) * abs(ln_q)
        pad = 16.0 * _EPS * scale / abs(slope) + 4.0 * _EPS * p
        step = g / slope
        p -= step
        if abs(step) <= pad:
            break
        if not below < p < above:
            p = 0.5 * (below + above)
    return max(p - pad, 0.0) if upper else min(p + pad, 1.0)
