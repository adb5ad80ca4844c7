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
        if self.kind == "bernoulli":
            return (0.0, 1.0)
        if self.kind in ("gaussian", "laplace"):
            return (-_INF, _INF)
        return (0.0, _INF)

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
            return -_INF, v / (2.0 * p * p)
        return -_INF, math.log1p(v / p)  # negbin

    def cgf(self, p, t):
        """ln E[e^{tX}] for X ~ P_p. Raises outside the finiteness interval."""
        lo, hi = self.t_domain(p)
        tt = np.asarray(t, dtype=float)
        if np.any(tt <= lo) or np.any(tt >= hi):
            raise ValueError(f"t={t} outside the CGF domain {lo, hi}")
        v = self.nuisance
        if self.kind == "bernoulli":
            # log1p form is most precise near t = 0; the logaddexp form
            # ln((1-p) + p e^t) keeps the affine tail exact for large t
            small = np.log1p(p * np.expm1(np.minimum(tt, 30.0)))
            big = np.logaddexp(np.log1p(-p), np.log(p) + tt)
            out = np.where(tt <= 30.0, small, big)
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

    def _draw(self, p, size, rng):
        """sample without the mean check, for callers that made it once."""
        v = self.nuisance
        if self.kind == "bernoulli":
            return (rng.random(size) < p).astype(float)
        if self.kind == "gaussian":
            # the same doubles as rng.normal(p, sqrt(v), size), at half the cost
            return p + math.sqrt(v) * rng.standard_normal(size)
        if self.kind == "poisson":
            return rng.poisson(p, size).astype(float)
        if self.kind == "gamma":
            return rng.gamma(v, p / v, size)
        if self.kind == "laplace":
            # inverse CDF p - v sign(u) ln(1 - 2|u|), u = U - 1/2, in place;
            # copysign gives the same doubles as the sign product, u = +-0 too
            u = rng.random(size)
            u -= 0.5
            a = np.abs(u)
            a *= -2.0
            np.log1p(a, out=a)
            np.copysign(a, u, out=a)
            a *= v
            a += p
            return a
        if self.kind == "invgauss":
            return rng.wald(p, v, size)
        return rng.negative_binomial(v, v / (v + p), size).astype(float)


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


def parse_family(spec):
    """Parse a family spec string such as 'gaussian:sigma2=1' or 'poisson'."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family {kind!r} in spec {spec!r}")
    if kind in ("bernoulli", "poisson"):
        if rest:
            raise ValueError(f"{kind} takes no parameter, got {spec!r}")
        return BoundingFamily(kind)
    key, _, val = rest.partition("=")
    if key.strip() != _NUISANCE_KEY[kind] or not val:
        raise ValueError(f"expected {kind}:{_NUISANCE_KEY[kind]}=<value>, got {spec!r}")
    return BoundingFamily(kind, float(val))


def family_spec(family):
    """Inverse of parse_family: the short :g form of the nuisance when it
    reads back exactly (gaussian:sigma2=1), else its shortest round-trip repr."""
    if family.kind in ("bernoulli", "poisson"):
        return family.kind
    v = float(family.nuisance)
    text = f"{v:g}"
    if float(text) != v:
        text = repr(v)
    return f"{family.kind}:{_NUISANCE_KEY[family.kind]}={text}"
