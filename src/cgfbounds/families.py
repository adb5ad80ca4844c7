"""Mean-parameterized bounding distribution families.

Each family fixes one nuisance parameter (variance, shape, scale, ...) and is
indexed by its mean p.  It exposes the cumulant-generating function (CGF) of
the member with mean p, the finiteness interval of that CGF, the closed-form
Cramer function (the convex conjugate of the CGF, equal to a KL divergence
between family members), and reproducible sampling.  Each fact about how a
family behaves is a field of its one record in _LAWS, which BoundingFamily
looks up as family.law; upsilon, verify and cli read the record too, and
none of them tests a family's name.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._special import gammaln, rel_entr, two_product, xlogy

_INF = math.inf


def binary_kl(q, p):
    """kl(q, p) = q ln(q/p) + (1-q) ln((1-q)/(1-p)), with 0 ln 0 = 0; both
    terms take d = q - p, as (1-q) - (1-p) can err by more than the kl."""
    d = np.subtract(q, p)
    return rel_entr(q, p, d) + rel_entr(1.0 - q, 1.0 - p, -d)


# -- the laws' functions of more than one expression ------------------------

def _below(hi):
    """The CGF domain (-inf, hi), hi a Python float for a scalar mean."""
    return -_INF, hi if np.ndim(hi) else float(hi)


def _bernoulli_cgf(p, t, v):
    # log1p(x), x = p expm1(t), is exact near t = 0 but loses digits
    # once 1 + x < 1/2 (p > 1/2 only), and expm1 overflows past
    # t = 709; the logaddexp form ln((1-p) + p e^t) serves there
    x = p * np.expm1(np.minimum(t, 709.0))
    out = np.log1p(x)
    far = (t > 709.0) | (x < -0.5)
    if far.any():
        out = np.where(far, np.logaddexp(np.log1p(-p), np.log(p) + t), out)
    return out


def _gamma_cramer(q, p, v):
    rat = q / p
    return np.where(q > 0, v * (rat - 1.0 - np.log(np.where(q > 0, rat, 1.0))),
                    _INF)


def _laplace_cramer(q, p, v):
    # s/v - 1 + ln(2v/(s+v)) with s = hypot(q-p, v), written as
    # u - ln(1 + u/2), u = s/v - 1: no cancellation near q = p
    d = q - p
    u = (d / v) * (d / (np.hypot(d, v) + v))
    return u - np.log1p(0.5 * u)


def _invgauss_cramer(q, p, v):
    r = (q - p) / p   # not (q-p)^2 / p^2: p^2 q underflows
    return np.where(q > 0, v * r * r / (2.0 * np.where(q > 0, q, 1.0)), _INF)


def _negbin_cramer(q, p, v):
    # q ln(q/s) - v ln((q+v)/w), s = p (q+v)/w and w = p+v, each logarithm
    # from d = q - p as in binary_kl (q - s = v d/w)
    d, w = q - p, p + v
    return (rel_entr(q, p * (q + v) / w, v * d / w)
            - v / (q + v) * rel_entr(q + v, w, d))


def _poisson_cramer_inverse(q, budget, v):
    # q (1 + w), w > 0 the root of w - log1p(w) = c = budget/q, which is
    # -W_{-1}(-e^{-1-c}) - 1 (Corless et al. 1996): seeded by the branch-point
    # series below c = 1/2 and by c + log1p(c) above, then three Halley
    # steps, after which w is at its last bit for every c; where c overflows
    # (q = 0 too) the root is budget + q (1 + ln(p/q)), budget to rounding
    c = budget / q
    s = np.sqrt(-2.0 * np.expm1(-c))
    w = np.where(c < 0.5, s * (1.0 + s * (1.0 / 3.0 + s * (11.0 / 72.0))),
                 c + np.log1p(c))
    for _ in range(3):
        f = w - np.log1p(w) - c
        d1 = w / (1.0 + w)      # f'; f'' / f' = 1 / (w (1 + w))
        w = w - f / (d1 - 0.5 * f / w / (1.0 + w))
    return np.where(c < _INF, q * (1.0 + w), budget)


def _invgauss_cramer_inverse(q, budget, v):
    # q / (1 - s) = q (1 + s) v / (v - 2 q budget), s = sqrt(2 q budget / v),
    # with 2 q budget = h + l, as the rounding of h alone would cost eps/(1 -
    # s); the Cramer function stays below v / (2 q) as p grows, so there is
    # no finite root once s >= 1
    h, l = two_product(2.0 * q, budget)
    den = (v - h) - l
    return np.where(den > 0.0, q * (1.0 + np.sqrt(h / v)) * v / den, _INF)


def _laplace_draw(p, size, rng, out, v):
    # the Laplace law with mean 0 and scale 1 by the inverse CDF
    # -sign(u) ln(1 - 2|u|), u = U - 1/2, in place; copysign gives
    # the same doubles as the sign product, u = +-0 too
    u = rng.random(size)
    u -= 0.5
    np.abs(u, out=out)
    out *= -2.0
    np.log1p(out, out=out)
    np.copysign(out, u, out=out)


def _gaussian_ln_pdf_mean(r, n, xs, v):
    s2 = v / n
    return -0.5 * np.log(2.0 * math.pi * s2) - (xs - r) ** 2 / (2.0 * s2)


def _gamma_ln_pdf_mean(r, n, xs, v):
    a = n * v  # shape of the sum; mean of the sum is n r
    scale = r / a
    return xlogy(a - 1.0, xs) - xs / scale \
        - gammaln(a) - a * math.log(scale)


def _invgauss_ln_pdf_mean(r, n, xs, v):
    lam = n * v  # mean of n IG(r, v) draws is IG(r, n v)
    return 0.5 * (np.log(lam) - math.log(2.0 * math.pi) - 3.0 * np.log(xs)) \
        - lam * (xs - r) ** 2 / (2.0 * r * r * xs)


@dataclass(frozen=True)
class _Law:
    """What one family is.  The functions take the nuisance v last; their
    p, q, t and xs may be arrays."""
    mean_domain: tuple      # the open interval of means
    cgf: object             # (p, t, v) -> ln E e^{tX}, t inside the domain
    cramer: object          # (q, p, v) -> the Cramer function, under errstate
    draw: object            # (p, size, rng, out, v) fills out (p-free if place)
    upsilon: str    # compute_upsilon's: binomial|series|quadrature|monte_carlo
    check_grid: np.ndarray  # the q and p grid of cli's conjugate check
    t_domain: object = lambda p, v: (-_INF, _INF)   # the open CGF domain
    key: str | None = None  # the nuisance's spec key; None: no nuisance
    place: object = None    # (p, std, out, v) -> std placed at the mean p
    ln_pdf_mean: object = None  # (r, n, xs, v) -> ln density of n draws' mean
    mean_interval: tuple | None = None  # verify's interval of random means
    exponential: bool = True    # a natural exponential family
    # (q, budget, v) -> the p >= q with cramer(q, p, v) = budget, budget > 0,
    # +inf where none is finite; None: no closed form, so cramer_of bisects
    cramer_inverse: object = None


_LAWS = {
    "bernoulli": _Law(
        mean_domain=(0.0, 1.0), cgf=_bernoulli_cgf,
        cramer=lambda q, p, v: binary_kl(q, p),
        draw=lambda p, size, rng, out, v: rng.random(out=out),  # uniforms
        place=lambda p, std, out, v: np.less(std, p, out=out),
        upsilon="binomial", check_grid=np.linspace(0.05, 0.95, 7),
        mean_interval=(0.05, 0.95)),
    "gaussian": _Law(
        key="sigma2", mean_domain=(-_INF, _INF),
        cgf=lambda p, t, v: t * p + 0.5 * v * t * t,
        # d * d, not d ** 2: a numpy scalar's ** 2 calls pow, which can be
        # an ulp off d * d, so a 0-d query would differ from an array query
        cramer=lambda q, p, v: (q - p) * (q - p) / (2.0 * v),
        cramer_inverse=lambda q, budget, v: q + np.sqrt(2.0 * v * budget),
        draw=lambda p, size, rng, out, v: rng.standard_normal(out=out),
        # the same doubles as rng.normal(p, sqrt(v), size)
        place=lambda p, std, out, v: np.add(
            np.multiply(std, math.sqrt(v), out=out), p, out=out),
        ln_pdf_mean=_gaussian_ln_pdf_mean, upsilon="quadrature",
        check_grid=np.linspace(-3.0, 3.0, 7), mean_interval=(0.1, 2.0)),
    "poisson": _Law(
        mean_domain=(0.0, _INF), cgf=lambda p, t, v: p * np.expm1(t),
        cramer=lambda q, p, v: p - q + rel_entr(q, p),
        cramer_inverse=_poisson_cramer_inverse,
        draw=lambda p, size, rng, out, v: np.copyto(out, rng.poisson(p, size)),
        upsilon="series", check_grid=np.geomspace(0.1, 5.0, 7),
        mean_interval=(0.1, 3.0)),
    "gamma": _Law(
        key="k", mean_domain=(0.0, _INF), t_domain=lambda p, v: _below(v / p),
        cgf=lambda p, t, v: -v * np.log1p(-t * p / v), cramer=_gamma_cramer,
        draw=lambda p, size, rng, out, v: np.copyto(
            out, rng.gamma(v, p / v, size)),
        ln_pdf_mean=_gamma_ln_pdf_mean, upsilon="quadrature",
        check_grid=np.geomspace(0.1, 5.0, 7)),
    "laplace": _Law(
        key="b", mean_domain=(-_INF, _INF),
        t_domain=lambda p, v: (-1.0 / v, 1.0 / v),
        cgf=lambda p, t, v: t * p - np.log1p(-(v * t) ** 2),
        cramer=_laplace_cramer, draw=_laplace_draw,
        place=lambda p, std, out, v: np.add(
            np.multiply(std, v, out=out), p, out=out),
        upsilon="monte_carlo", check_grid=np.linspace(-3.0, 3.0, 7),
        exponential=False),
    "invgauss": _Law(
        key="lambda", mean_domain=(0.0, _INF),
        # lambda / (2 p^2), which overflows to inf where p * p underflows
        t_domain=lambda p, v: _below(v / (2.0 * p) / p),
        # (v/p)(1 - sqrt(1 - 2 p^2 t / v)), without cancellation at t = 0
        cgf=lambda p, t, v: 2.0 * p * t / (1.0 + np.sqrt(
            1.0 - 2.0 * p * p * t / v)),
        cramer=_invgauss_cramer, cramer_inverse=_invgauss_cramer_inverse,
        draw=lambda p, size, rng, out, v: np.copyto(out, rng.wald(p, v, size)),
        ln_pdf_mean=_invgauss_ln_pdf_mean, upsilon="quadrature",
        check_grid=np.geomspace(0.1, 5.0, 7)),
    "negbin": _Law(
        key="r", mean_domain=(0.0, _INF),
        t_domain=lambda p, v: _below(np.log1p(v / p) if np.ndim(p)
                                     else math.log1p(v / p)),
        cgf=lambda p, t, v: -v * np.log1p(-p * np.expm1(t) / v),
        cramer=_negbin_cramer,
        draw=lambda p, size, rng, out, v: np.copyto(
            out, rng.negative_binomial(v, v / (v + p), size)),
        upsilon="monte_carlo", check_grid=np.geomspace(0.1, 5.0, 7)),
}

FAMILY_KINDS = tuple(_LAWS)


@dataclass(frozen=True)
class BoundingFamily:
    """One of the seven supported families, frozen at its nuisance value,
    which lies in (0, inf) for the five families that take one."""
    kind: str
    nuisance: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        key = self.law.key
        if key and not (self.nuisance is not None
                        and 0.0 < self.nuisance < _INF):
            raise ValueError(f"{self.kind} needs {key} in (0, inf), "
                             f"got {self.nuisance}")
        if not key and self.nuisance is not None:
            raise ValueError(f"{self.kind} takes no nuisance parameter")

    @property
    def law(self):
        """The family's record in _LAWS."""
        return _LAWS[self.kind]

    # -- mean domain ------------------------------------------------------

    @property
    def mean_domain(self):
        """Open interval of valid means; the loss range is its closure."""
        return self.law.mean_domain

    def _check_mean(self, p):
        lo, hi = self.mean_domain
        if isinstance(p, (int, float)):     # plain comparisons: NaN fails
            bad, pp = not lo < p < hi, p
        else:
            pp = np.asarray(p, dtype=float)
            bad = (~((pp > lo) & (pp < hi))).any()
        if bad:
            raise ValueError(f"mean {p} outside the open domain of {self.kind}")
        return pp       # a float array unless p is a Python number

    # -- CGF and its finiteness interval ----------------------------------

    def t_domain(self, p):
        """The finiteness interval of the CGF of the member with mean p, as
        an open (lower, upper) pair; nonempty, as the nuisance is in (0, inf).
        The ends are Python floats for a scalar p, arrays for an array p."""
        return self.law.t_domain(self._check_mean(p), self.nuisance)

    def cgf(self, p, t):
        """ln E[e^{tX}] for X ~ P_p. Raises outside the finiteness interval."""
        p = self._check_mean(p)
        lo, hi = self.law.t_domain(p, self.nuisance)
        tt = np.asarray(t, dtype=float)
        if isinstance(p, (int, float)) and isinstance(t, (int, float)):
            bad = t <= lo or t >= hi        # as the numpy test: NaN passes
        else:
            bad = np.any(tt <= lo) or np.any(tt >= hi)
        if bad:
            raise ValueError(f"t={t} outside the CGF domain {lo, hi}")
        out = self.law.cgf(p, tt, self.nuisance)
        return out if isinstance(out, np.ndarray) and out.ndim else float(out)

    # -- Cramer function ---------------------------------------------------

    def cramer(self, q, p):
        """Closed-form Cramer function: KL between family members with means q, p.

        q may lie on the closure of the mean domain (the 0 ln 0 = 0
        convention applies); p must be interior.  Values can be +inf, e.g.
        for the gamma family at q = 0.
        """
        self._check_mean(p)
        qq = np.asarray(q, dtype=float)
        pp = np.asarray(p, dtype=float)
        lo, hi = self.mean_domain
        if ((qq < lo) | (qq > hi)).any():
            raise ValueError(f"q={q} outside the loss range of {self.kind}")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = self.law.cramer(qq, pp, self.nuisance)
        return out if isinstance(out, np.ndarray) and out.ndim else float(out)

    # -- sampling ----------------------------------------------------------

    def sample(self, p, size, rng):
        """i.i.d. draws of the given size (an int or a shape) as a float array.

        p is a mean or an array of means broadcast against size, so column h
        of sample(means, (n, m), rng) is drawn from the member with mean
        means[h].  rng is a numpy Generator, such as one from
        cgfbounds.rng.make_generator(seed).
        """
        return self._draw(self._check_mean(p), size, rng)

    def _draw(self, p, size, rng, out=None):
        """sample without the mean check, for callers that made it once.

        With out, a C-contiguous float array of shape size, the draws are
        written into it and it is returned; the doubles are the same.  For
        a family whose law has a place, the draw is a p-free standard draw
        placed at p (_place), and p None returns the standard draw itself,
        so members with different means can share one draw of a stream.
        """
        if out is None:
            out = np.empty(size)
        law = self.law
        law.draw(p, size, rng, out, self.nuisance)
        if p is None or law.place is None:
            return out
        return self._place(p, out, out)

    def _place(self, p, std, out):
        """Write into out, which may be std, the draws of the member with
        mean p that the standard draws std of _draw(None, ...) give."""
        return self.law.place(p, std, out, self.nuisance)


# -- constructors and the CLI spec-string form ----------------------------

def bernoulli():
    return BoundingFamily("bernoulli")


def gaussian(sigma2):
    return BoundingFamily("gaussian", sigma2)


def poisson():
    return BoundingFamily("poisson")


def gamma(k):
    return BoundingFamily("gamma", k)


def laplace(b):
    return BoundingFamily("laplace", b)


def invgauss(lam):
    return BoundingFamily("invgauss", lam)


def negbin(r):
    return BoundingFamily("negbin", r)


def parse_number(text, what, convert=float):
    """convert(text), or a ValueError naming `what` when text is no number."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{what} needs {kind}, got {text!r}") from None


def parse_spec(text, keys_of, what):
    """(name, values) of a family or comparator spec 'name[:key=value,...]'.

    keys_of maps each name to the numeric keys it requires, in the order of
    values.  Case and spaces around the name, and spaces around a key, are
    ignored; an unknown, repeated, valueless or missing key is an error."""
    head, _, rest = text.partition(":")
    name = head.strip().lower()
    if name not in keys_of:
        raise ValueError(f"unknown {what} {name!r} in spec {text!r}; use "
                         + ", ".join(keys_of))
    keys, given = keys_of[name], {}
    for item in filter(None, rest.split(",")):
        key, eq, value = item.partition("=")
        key = key.strip()
        why = ("is not key=value" if not eq else
               "has an unknown key" if key not in keys else
               "repeats a key" if key in given else None)
        if why:
            raise ValueError(f"{what} spec {text!r}: {item!r} {why}; "
                             f"{name} takes {', '.join(keys) or 'no keys'}")
        given[key] = parse_number(value, f"{what} spec {text!r}: {key}")
    for key in keys:
        if key not in given:
            raise ValueError(f"{what} spec {text!r}: {name} needs {key}=<value>")
    return name, tuple(given[k] for k in keys)


def parse_family(spec):
    """The family of a spec such as 'gaussian:sigma2=1' (parse_spec's grammar)."""
    kind, values = parse_spec(spec, {k: (law.key,) if law.key else ()
                                     for k, law in _LAWS.items()}, "family")
    return BoundingFamily(kind, *values)


def family_spec(family):
    """Inverse of parse_family: the short :g form of the nuisance when it
    reads back exactly (gaussian:sigma2=1), else its shortest round-trip repr."""
    key = family.law.key
    if key is None:
        return family.kind
    v = float(family.nuisance)
    text = f"{v:g}" if float(f"{v:g}") == v else repr(v)
    return f"{family.kind}:{key}={text}"
