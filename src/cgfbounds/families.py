"""Mean-parameterized bounding distribution families.

Each family fixes one nuisance parameter (variance, shape, scale, ...) and is
indexed by its mean p.  It exposes the cumulant-generating function (CGF) of
the member with mean p, the finiteness interval of that CGF, the closed-form
Cramer function (the convex conjugate of the CGF, equal to a KL divergence
between family members), and reproducible sampling.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._special import rel_entr, xlogy

FAMILY_KINDS = ("bernoulli", "gaussian", "poisson", "gamma", "laplace",
                "invgauss", "negbin")

_INF = math.inf

_NUISANCE_KEY = {"gaussian": "sigma2", "gamma": "k", "laplace": "b",
                 "invgauss": "lambda", "negbin": "r"}
_SPEC_KEYS = {kind: (_NUISANCE_KEY[kind],) if kind in _NUISANCE_KEY else ()
              for kind in FAMILY_KINDS}     # parse_family's keys

_MEAN_DOMAIN = {"bernoulli": (0.0, 1.0), "gaussian": (-_INF, _INF),
                "laplace": (-_INF, _INF)}     # the others: (0, inf)


def binary_kl(q, p):
    """kl(q, p) = q ln(q/p) + (1-q) ln((1-q)/(1-p)), with 0 ln 0 = 0."""
    return rel_entr(q, p) + rel_entr(1.0 - q, 1.0 - p)


@dataclass(frozen=True)
class BoundingFamily:
    """One of the seven supported families, frozen at its nuisance value,
    which lies in (0, inf) for the five families that take one."""
    kind: str
    nuisance: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        key = _NUISANCE_KEY.get(self.kind)
        if key and not (self.nuisance is not None
                        and 0.0 < self.nuisance < _INF):
            raise ValueError(f"{self.kind} needs {key} in (0, inf), "
                             f"got {self.nuisance}")
        if not key and self.nuisance is not None:
            raise ValueError(f"{self.kind} takes no nuisance parameter")

    # -- mean domain ------------------------------------------------------

    @property
    def mean_domain(self):
        """Open interval of valid means; the loss range is its closure."""
        return _MEAN_DOMAIN.get(self.kind, (0.0, _INF))

    def _check_mean(self, p):
        lo, hi = self.mean_domain
        pp = np.asarray(p)
        if (~((pp > lo) & (pp < hi))).any():
            raise ValueError(f"mean {p} outside the open domain of {self.kind}")

    # -- CGF and its finiteness interval ----------------------------------

    def t_domain(self, p):
        """The finiteness interval of the CGF of the member with mean p, as
        an open (lower, upper) pair; nonempty, as the nuisance is in (0, inf)."""
        self._check_mean(p)
        v = self.nuisance
        if self.kind in ("bernoulli", "gaussian", "poisson"):
            return -_INF, _INF
        if self.kind == "gamma":
            return -_INF, v / p
        if self.kind == "laplace":
            return -1.0 / v, 1.0 / v
        if self.kind == "invgauss":
            return -_INF, v / (2.0 * p) / p   # p * p underflows, this to inf
        return -_INF, math.log1p(v / p)  # negbin

    def cgf(self, p, t):
        """ln E[e^{tX}] for X ~ P_p. Raises outside the finiteness interval."""
        lo, hi = self.t_domain(p)
        tt = np.asarray(t, dtype=float)
        if np.any(tt <= lo) or np.any(tt >= hi):
            raise ValueError(f"t={t} outside the CGF domain {lo, hi}")
        v = self.nuisance
        if self.kind == "bernoulli":
            # log1p(x), x = p expm1(t), is exact near t = 0 but loses digits
            # once 1 + x < 1/2 (p > 1/2 only), and expm1 overflows past
            # t = 709; the logaddexp form ln((1-p) + p e^t) serves there
            x = p * np.expm1(np.minimum(tt, 709.0))
            out = np.log1p(x)
            far = (tt > 709.0) | (x < -0.5)
            if far.any():
                out = np.where(far, np.logaddexp(np.log1p(-p),
                                                 np.log(p) + tt), out)
        elif self.kind == "gaussian":
            out = tt * p + 0.5 * v * tt * tt
        elif self.kind == "poisson":
            out = p * np.expm1(tt)
        elif self.kind == "gamma":
            out = -v * np.log1p(-tt * p / v)
        elif self.kind == "laplace":
            out = tt * p - np.log1p(-(v * tt) ** 2)
        elif self.kind == "invgauss":
            # (v/p)(1 - sqrt(1 - 2 p^2 t / v)), written without cancellation at t=0
            x = 2.0 * p * p * tt / v
            out = 2.0 * p * tt / (1.0 + np.sqrt(1.0 - x))
        else:  # negbin
            out = -v * np.log1p(-p * np.expm1(tt) / v)
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
        v = self.nuisance
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.kind == "bernoulli":
                out = binary_kl(qq, pp)
            elif self.kind == "gaussian":
                out = (qq - pp) ** 2 / (2.0 * v)
            elif self.kind == "poisson":
                out = pp - qq + rel_entr(qq, pp)
            elif self.kind == "gamma":
                rat = qq / pp
                out = np.where(qq > 0, v * (rat - 1.0 - np.log(np.where(qq > 0, rat, 1.0))), _INF)
            elif self.kind == "laplace":
                # s/v - 1 + ln(2v/(s+v)) with s = hypot(q-p, v), written as
                # u - ln(1 + u/2), u = s/v - 1: no cancellation near q = p
                d = qq - pp
                u = (d / v) * (d / (np.hypot(d, v) + v))
                out = u - np.log1p(0.5 * u)
            elif self.kind == "invgauss":
                r = (qq - pp) / pp   # not (q-p)^2 / p^2: p^2 q underflows
                out = np.where(qq > 0, v * r * r / (2.0 * np.where(qq > 0, qq, 1.0)), _INF)
            else:  # negbin
                out = v * np.log((pp + v) / (qq + v)) + xlogy(qq, qq * (pp + v) / (pp * (qq + v)))
        return out if isinstance(out, np.ndarray) and out.ndim else float(out)

    # -- sampling ----------------------------------------------------------

    def sample(self, p, size, rng):
        """i.i.d. draws of the given size (an int or a shape) as a float array.

        p is a mean or an array of means broadcast against size, so column h
        of sample(means, (n, m), rng) is drawn from the member with mean
        means[h].  rng is a numpy Generator, such as one from
        cgfbounds.rng.make_generator(seed).
        """
        self._check_mean(p)
        return self._draw(p, size, rng)

    def _draw(self, p, size, rng, out=None):
        """sample without the mean check, for callers that made it once.

        With out, a C-contiguous float array of shape size, the draws are
        written into it and it is returned; the doubles are the same.
        """
        if out is None:
            out = np.empty(size)
        v = self.nuisance
        if self.kind == "bernoulli":
            rng.random(out=out)
            np.less(out, p, out=out)
        elif self.kind == "gaussian":
            # the same doubles as rng.normal(p, sqrt(v), size), at half the cost
            rng.standard_normal(out=out)
            out *= math.sqrt(v)
            out += p
        elif self.kind == "poisson":
            out[...] = rng.poisson(p, size)
        elif self.kind == "gamma":
            out[...] = rng.gamma(v, p / v, size)
        elif self.kind == "laplace":
            # inverse CDF p - v sign(u) ln(1 - 2|u|), u = U - 1/2, in place;
            # copysign gives the same doubles as the sign product, u = +-0 too
            u = rng.random(size)
            u -= 0.5
            np.abs(u, out=out)
            out *= -2.0
            np.log1p(out, out=out)
            np.copysign(out, u, out=out)
            out *= v
            out += p
        elif self.kind == "invgauss":
            out[...] = rng.wald(p, v, size)
        else:
            out[...] = rng.negative_binomial(v, v / (v + p), size)
        return out


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
    kind, values = parse_spec(spec, _SPEC_KEYS, "family")
    return BoundingFamily(kind, *values)


def family_spec(family):
    """Inverse of parse_family: the short :g form of the nuisance when it
    reads back exactly (gaussian:sigma2=1), else its shortest round-trip repr."""
    key = _NUISANCE_KEY.get(family.kind)
    if key is None:
        return family.kind
    v = float(family.nuisance)
    text = f"{v:g}" if float(f"{v:g}") == v else repr(v)
    return f"{family.kind}:{key}={text}"
