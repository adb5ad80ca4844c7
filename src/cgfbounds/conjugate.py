"""Numeric convex conjugate of a CGF over its finiteness interval.

Computes sup_t { q t - cgf(t) } by probing a dyadic ladder of t values,
bracketing the (concave) objective's maximizer, and polishing by grid zoom.
Detects supremum-at-infinity and genuine divergence.  Also houses the
package's one 1-D maximizer, argmax_zoom, which the Bernoulli Upsilon and the
parametric-infimum oracle share, and its one per-cell evaluator, cellwise,
through which every comparator and CGF call on arrays goes; this module
imports nothing from the package.
"""

import math
from dataclasses import dataclass

import numpy as np

_ZOOM_POINTS = 17   # points per zoom round; a round keeps 2 of its 16 cells
_ZOOM_ROUNDS = 12   # the bracket shrinks 8-fold a round, to 8^-12 ~ 1.5e-11


class ConjugateDivergent(Exception):
    """The supremum of q t - cgf(t) grows without bound."""


@dataclass
class ConjugateResult:
    value: float
    t_star: float
    at_boundary: bool = False


def argmax_zoom(f, a, b):
    """Best (x, f(x)) seen while zooming a grid in on the max of f on [a, b].

    f maps a 1-d array of points to their values in one call.  Each round
    evaluates f at _ZOOM_POINTS evenly spaced points and keeps the two cells
    around the best one; it stops once a round's values are flat to rounding
    or after _ZOOM_ROUNDS rounds.  f is assumed unimodal on [a, b].
    """
    best_x, best_v = math.nan, -math.inf
    for _ in range(_ZOOM_ROUNDS):
        xs = np.linspace(a, b, _ZOOM_POINTS)
        vals = np.asarray(f(xs), dtype=float)
        i = int(np.argmax(vals))
        top = float(vals[i])
        if top > best_v:
            best_x, best_v = float(xs[i]), top
        if top - float(np.min(vals)) <= 4e-16 * max(1.0, abs(top)):
            break
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, _ZOOM_POINTS - 1)]
    return best_x, best_v


def cellwise(fn, *args, fill=None):
    """fn(*args) as a float array of the arguments' broadcast shape.

    Makes one call of fn on the arguments as given, not broadcast first, so
    a function that takes only a scalar in one argument still gets one call.
    If that call raises ValueError, OverflowError or TypeError, or returns
    the wrong shape, fn is called once per cell with Python floats.  A cell
    that raises ValueError or OverflowError becomes fill; with fill=None it
    re-raises.
    """
    shape = np.broadcast(*args).shape
    try:
        out = np.asarray(fn(*args), dtype=float)
        if out.shape == shape:
            return out
    except (ValueError, OverflowError, TypeError):
        pass
    cells = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        try:
            out[idx] = fn(*(float(c[idx]) for c in cells))
        except (ValueError, OverflowError):
            if fill is None:
                raise
            out[idx] = fill
    return out


def _objective_on_grid(cgf, q, ts):
    """q t - cgf(t) on an array of t; -inf where the CGF raises or gives NaN."""
    tarr = np.asarray(ts, dtype=float)
    with np.errstate(all="ignore"):
        vals = q * tarr - cellwise(cgf, tarr, fill=math.inf)
    return np.where(np.isnan(vals), -math.inf, vals)


def _probe_points(tdom):
    lo, hi = tdom.effective()
    pts = set()
    if lo <= 0.0 < hi:
        if lo < 0.0 or tdom.sided == "nonneg_only":
            pts.add(0.0)
    # cap the ladder at 2^20: beyond that, q t - cgf(t) is a difference of
    # near-equal O(t) floats and its O(1) value drowns in rounding noise
    for j in range(-20, 21):
        m = 2.0 ** j
        if lo < m < hi:
            pts.add(m)
        if lo < -m < hi:
            pts.add(-m)
    if math.isfinite(hi):
        d0 = (hi - lo) / 2.0 if math.isfinite(lo) else max(1.0, abs(hi))
        for j in range(1, 46):
            t = hi - d0 * 2.0 ** -j
            if lo < t < hi:
                pts.add(t)
    if math.isfinite(lo) and lo != 0.0:
        d0 = (hi - lo) / 2.0 if math.isfinite(hi) else max(1.0, abs(lo))
        for j in range(1, 46):
            t = lo + d0 * 2.0 ** -j
            if lo < t < hi:
                pts.add(t)
    return sorted(pts)


def _tail_result(ts, vals, sign, q, best):
    if sign > 0:
        v1, v2, v3 = vals[-3], vals[-2], vals[-1]
    else:
        v1, v2, v3 = vals[2], vals[1], vals[0]
    d12, d23 = v2 - v1, v3 - v2
    if d23 > 1e-9 * max(1.0, abs(v3)) and d23 > 0.5 * d12:
        raise ConjugateDivergent(
            f"conjugate objective still growing at the probe-ladder end for q={q}")
    return ConjugateResult(best, sign * math.inf, True)


def numeric_conjugate(cgf, q, t_domain):
    """Maximize q t - cgf(t) over the open interval t_domain.

    Parameters
    ----------
    cgf : callable
        CGF of t, called through cellwise, so it need not take arrays; may
        raise ValueError outside its finiteness interval.
    q : float
        Query point of the conjugate.
    t_domain : TDomain
        Finiteness interval, possibly restricted to t >= 0.

    Returns
    -------
    ConjugateResult
        value, argmax t_star (+-inf if the supremum is attained in the
        limit), and an at_boundary flag.

    Raises
    ------
    ConjugateDivergent
        If the objective grows without bound along an unbounded direction,
        i.e. q lies outside the closure of the family's mean range.
    """
    ts = _probe_points(t_domain)
    assert ts, "empty probe set for conjugate search"
    vals = _objective_on_grid(cgf, q, ts)
    i = int(np.argmax(vals))
    if vals[i] == -math.inf:
        return ConjugateResult(-math.inf, math.nan, False)
    lo, hi = t_domain.effective()
    # an end value within rounding noise of the maximum means the objective
    # plateaus (or keeps growing) toward that end; let the tail rule decide
    near = 1e-9 * max(1.0, abs(vals[i]))
    if math.isinf(hi) and vals[-1] >= vals[i] - near:
        return _tail_result(ts, vals, +1.0, q, vals[i])
    if math.isinf(lo) and vals[0] >= vals[i] - near:
        return _tail_result(ts, vals, -1.0, q, vals[i])
    if i in (0, len(ts) - 1):
        return ConjugateResult(vals[i], ts[i], True)
    t_star, val = argmax_zoom(lambda t: _objective_on_grid(cgf, q, t),
                              ts[i - 1], ts[i + 1])
    if vals[i] > val:
        t_star, val = ts[i], vals[i]
    return ConjugateResult(val, t_star, False)


def family_conjugate(family, q, p):
    """Numeric Cramer value of a family at (q, p), independent of closed forms."""
    return numeric_conjugate(lambda t: family.cgf(p, t), q, family.t_domain(p))
