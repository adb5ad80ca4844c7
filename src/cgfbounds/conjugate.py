"""Numeric convex conjugate of a CGF over its finiteness interval.

Computes sup_t { q t - cgf(t) } by probing a dyadic ladder of t values,
bracketing the (concave) objective's maximizer, and polishing by grid zoom.
Detects supremum-at-infinity and genuine divergence.  Also houses the
package's one scan-and-zoom maximizer, argmax_zoom, which the conjugate, the
Bernoulli Upsilon and the parametric-infimum oracle share, and cellwise, the
per-cell evaluator that wraps a caller's CGF here and a caller's comparator
in inversion.custom; this module imports nothing from the package.
"""

import functools
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


_ZOOM_STEPS = np.arange(_ZOOM_POINTS, dtype=float)


def _zoom_points(a, b):
    """np.linspace(a[r], b[r], _ZOOM_POINTS) per row r, the same doubles."""
    step = (b - a) / (_ZOOM_POINTS - 1)
    zs = step[:, None] * _ZOOM_STEPS
    if np.count_nonzero(step) < len(step):    # linspace's subnormal rule
        zero = step == 0.0
        zs[zero] = _ZOOM_STEPS / (_ZOOM_POINTS - 1) * (b - a)[zero, None]
    zs += a[:, None]
    zs[:, -1] = b
    return zs


def argmax_zoom(f, xs, vals):
    """Best (x, f(x)) of the grid xs, refined by zooming in, row by row.

    vals holds f on xs: a 1-d array, or a 2-d (rows, len(xs)) array with
    one function per row.  Each row zooms on its max between its best grid
    point's neighbours, clamped to the grid.  A round evaluates every row
    still zooming at _ZOOM_POINTS evenly spaced points in one call of f and
    keeps, per row, the two cells around the best one; a zoom point replaces
    the row's best only if strictly better, and a row leaves the later
    rounds once its values are flat to rounding, or after _ZOOM_ROUNDS
    rounds.  f is assumed unimodal on each bracket.  With 1-d vals, f maps
    a 1-d array of points to their values and the result is one (x, value)
    pair of floats: the one-row case.  With 2-d vals, f(zs, rows) maps the
    (len(rows), points) zoom points of the rows still zooming (their
    indices into vals) to their values, and the result is a pair of arrays,
    one entry per row.  The per-row rules are a few comparisons of Python
    floats, so the one-row case costs no more than a scalar loop would.
    """
    vals, xs = np.asarray(vals, dtype=float), np.asarray(xs, dtype=float)
    one = vals.ndim == 1
    if one:
        vals = vals[None]
    i = vals.argmax(axis=1)
    best_x, best_v = xs[i].tolist(), vals[np.arange(len(vals)), i].tolist()
    a, b = xs[[(max(k - 1, 0), min(k + 1, len(xs) - 1))
               for k in i.tolist()]].T
    rows = list(range(len(vals)))
    for _ in range(_ZOOM_ROUNDS):
        zs = _zoom_points(a, b)
        zvals = (np.asarray(f(zs[0]), dtype=float)[None] if one
                 else np.asarray(f(zs, np.array(rows)), dtype=float))
        live, ends = [], []
        for r, z, zv, j, low in zip(rows, zs.tolist(), zvals.tolist(),
                                    zvals.argmax(axis=1).tolist(),
                                    zvals.min(axis=1).tolist()):
            top = zv[j]
            if top > best_v[r]:
                best_x[r], best_v[r] = z[j], top
            if not top - low <= 4e-16 * max(1.0, abs(top)):    # not flat
                live.append(r)
                ends.append((z[max(j - 1, 0)],
                             z[min(j + 1, _ZOOM_POINTS - 1)]))
        if not live:
            break
        rows = live
        a, b = np.array(ends).T
    if one:
        return best_x[0], best_v[0]
    return np.array(best_x), np.array(best_v)


def cellwise(fn, *args):
    """fn(*args) as a float array of the arguments' broadcast shape.

    Makes one call of fn on the arguments as given, not broadcast first, so
    a function that takes only a scalar in one argument still gets one call.
    If that call raises ValueError, OverflowError or TypeError, or returns
    the wrong shape, fn is called once per cell with Python floats.  A cell
    that raises ValueError or OverflowError is +inf; a TypeError propagates,
    and a cell answered with an array raises ValueError.
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
            v = fn(*(float(c[idx]) for c in cells))
        except (ValueError, OverflowError):
            v = math.inf
        if np.ndim(v):      # e.g. a scalar-only fn that holds an array parameter
            raise ValueError(f"{getattr(fn, '__qualname__', fn)} answered one "
                             f"cell with shape {np.shape(v)}, not a number")
        out[idx] = v
    return out


def _objective_on_grid(cgf, q, ts):
    """q t - cgf(t), broadcast; -inf where the CGF is +inf or NaN.

    The CGF is evaluated once, on the array ts, whatever the shape of q."""
    with np.errstate(all="ignore"):
        vals = q * ts - cgf(ts)
    return np.where(np.isnan(vals), -math.inf, vals)


def _probe_points(lo, hi):
    pts = {0.0} if lo < 0.0 < hi else set()
    # cap the ladder at 2^20: beyond that, q t - cgf(t) is a difference of
    # near-equal O(t) floats and its O(1) value drowns in rounding noise
    for j in range(-20, 21):
        m = 2.0 ** j
        if lo < m < hi:
            pts.add(m)
        if lo < -m < hi:
            pts.add(-m)
    # and 45 points closing in on each finite end from inside
    for end, other, inward in ((hi, lo, -1.0), (lo, hi, 1.0)):
        if math.isfinite(end):
            d0 = (hi - lo) / 2.0 if math.isfinite(other) else max(1.0, abs(end))
            pts.update(t for t in (end + inward * d0 * 2.0 ** -j
                                   for j in range(1, 46)) if lo < t < hi)
    return sorted(pts)


def _growing_at_end(vals, sign):
    """Per row, whether the objective still climbs at the `sign` end."""
    v1, v2, v3 = (vals[:, -3], vals[:, -2], vals[:, -1]) if sign > 0 else (
        vals[:, 2], vals[:, 1], vals[:, 0])
    with np.errstate(invalid="ignore"):             # -inf - -inf
        d12, d23 = v2 - v1, v3 - v2
        return (d23 > 1e-9 * np.maximum(1.0, np.abs(v3))) & (d23 > 0.5 * d12)


def numeric_conjugate(cgf, q, t_domain):
    """Maximize q t - cgf(t) over the open interval t_domain = (lower, upper).

    Parameters
    ----------
    cgf : callable
        CGF of t, wrapped in cellwise here, so it need not take arrays; a
        point where it raises ValueError or OverflowError counts as +inf.
    q : float or array
        Query point(s) of the conjugate.  An array of q shares one probe
        ladder, one CGF evaluation on it and one batched argmax_zoom; each
        q gets the same doubles as on its own.
    t_domain : tuple
        The CGF's finiteness interval as a nonempty open (lower, upper) pair,
        such as BoundingFamily.t_domain(p) returns.

    Returns
    -------
    ConjugateResult
        value, argmax t_star (+-inf if the supremum is attained in the
        limit), and an at_boundary flag: floats and a bool for a scalar q,
        arrays of q's shape for an array.

    Raises
    ------
    ConjugateDivergent
        If the objective grows without bound along an unbounded direction,
        i.e. some q lies outside the closure of the family's mean range.
    """
    cgf = functools.partial(cellwise, cgf)
    lo, hi = t_domain
    ts = np.array(_probe_points(lo, hi))
    qs = np.asarray(q, dtype=float).reshape(-1, 1)
    vals = _objective_on_grid(cgf, qs, ts)
    i = np.argmax(vals, axis=1)
    value = vals[np.arange(len(qs)), i]
    t_star, at_boundary = ts[i], np.zeros(len(qs), dtype=bool)
    dead = value == -math.inf
    t_star[dead] = math.nan
    # an end value within rounding noise of the maximum means the objective
    # plateaus (or keeps growing) toward that end; the tail rule decides
    near = value - 1e-9 * np.maximum(1.0, np.abs(value))
    up = ~dead & math.isinf(hi) & (vals[:, -1] >= near)
    down = ~dead & ~up & math.isinf(lo) & (vals[:, 0] >= near)
    growing = (up & _growing_at_end(vals, +1.0)) | (
        down & _growing_at_end(vals, -1.0))
    if growing.any():
        raise ConjugateDivergent("conjugate objective still growing at the "
                                 f"probe-ladder end for q={qs[growing][0, 0]}")
    t_star[up], t_star[down] = math.inf, -math.inf
    at_boundary[up | down | (~dead & ((i == 0) | (i == len(ts) - 1)))] = True
    zoom = ~(dead | at_boundary)
    if zoom.any():
        qz = qs[zoom]
        t_star[zoom], value[zoom] = argmax_zoom(
            lambda t, rows: _objective_on_grid(cgf, qz[rows], t), ts,
            vals[zoom])
    if np.ndim(q) == 0:
        return ConjugateResult(float(value[0]), float(t_star[0]),
                               bool(at_boundary[0]))
    shape = np.shape(q)
    return ConjugateResult(value.reshape(shape), t_star.reshape(shape),
                           at_boundary.reshape(shape))


def family_conjugate(family, q, p):
    """Numeric Cramer value of a family at (q, p), independent of closed forms.

    q may be an array: one numeric_conjugate call over the CGF at one p."""
    return numeric_conjugate(lambda t: family.cgf(p, t), q, family.t_domain(p))
