"""Monte-Carlo validity harness on synthetic finite-hypothesis problems.

Losses are drawn exactly from the bounding family member whose mean is the
hypothesis's population loss, the posterior is the Gibbs posterior, exact
at any finite c (which makes every divergence exact and closed form), and
the recorded violation rates are compared against delta via
Clopper-Pearson intervals.  run_trials converges each trial's bound;
default_suite, which keeps only whether the population loss exceeds it,
settles that bit instead.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import families as fam
from ._special import (binomial_tail_root, logsumexp, rel_entr, xlog1py,
                       xlogy)
from .bounds import (_per_kind, bound_values, check_kind, evaluate_kind,
                     reference_flag)
from .inversion import check_n
from .rng import check_seed, make_generator, streams
from .upsilon import cramer_divergence


def _check_temperature(value, name):
    """ValueError unless the Gibbs temperature value is finite and at least 0."""
    if not 0.0 <= value < math.inf:
        rule = "nonnegative and finite" if value >= 0.0 else "nonnegative"
        raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class SyntheticProblem:
    hypothesis_means: tuple
    prior_weights: tuple
    family: fam.BoundingFamily
    gibbs_temperature: float
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        m = len(self.hypothesis_means)
        if m < 2:
            raise ValueError(f"a problem needs at least 2 hypotheses, got {m}")
        means = self.family._check_mean(self.hypothesis_means)
        w = np.asarray(self.prior_weights, dtype=float)
        if w.shape != (m,):
            raise ValueError(f"prior_weights needs {m} entries, got {w.size}")
        if not (np.all(w >= 0) and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise ValueError("prior_weights must be nonnegative and sum to 1, "
                             f"got sum {float(w.sum())}")
        _check_temperature(self.gibbs_temperature, "gibbs_temperature")
        for name in ("n", "trials"):        # counts; 100.0 is 100
            object.__setattr__(self, name, check_n(getattr(self, name), name))
        object.__setattr__(self, "seed", check_seed(self.seed))
        for name, v in (("hypothesis_means", means), ("prior_weights", w)):
            object.__setattr__(self, name, tuple(v.tolist()))  # hashable


@dataclass
class TrialRecord:
    train_loss: float
    pop_loss: float
    kl: float
    bound_value: float
    violated: bool


_HUGE = np.finfo(float).max
_TRIAL_BLOCK = 32   # trials whose draws are averaged in one pass


def _gibbs(ln_prior, scale, losses):
    """(q, ln q) of the Gibbs posterior q ∝ prior e^{-scale losses}, row by
    row.  Each energy is scale times the losses less the row's least loss,
    capped at the largest double (scale may be inf): the least energy is
    exactly 0, so ln prior is never absorbed into a large energy, and q is
    the exact posterior at any finite scale and its limit where it is inf."""
    d = losses - losses.min(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.where(d > 0.0, np.minimum(scale * d, _HUGE), 0.0)
    lnq = ln_prior - energy
    lnq -= logsumexp(lnq, axis=-1, keepdims=True)
    return np.exp(lnq), lnq


def _simulate_group(problems):
    """Each problem's _simulate, for problems that agree in all but c, prior
    and means, so that trial t draws on stream (seed, t) for all of them.

    For a family whose law has a place, each block of _TRIAL_BLOCK trials
    is re-keyed and drawn once, as standard draws, then placed at each
    problem's means; a poisson draw consumes the stream according to the
    means, so there each problem draws its own.  A placed block is averaged
    over n in one pass, each trial's mean the same sum as on its own.
    """
    first = problems[0]
    family, n, t_total = first.family, first.n, first.trials
    means = np.array([p.hypothesis_means for p in problems], dtype=float)
    g, m = means.shape
    lhat = np.empty((g, t_total, m))
    draws = np.empty((_TRIAL_BLOCK, n, m))
    if family.law.place is not None:
        placed = np.empty_like(draws)
        passes = [(None, range(g))]     # (the means drawn at, placed at)
    else:
        placed = draws
        passes = [(row, (j,)) for j, row in enumerate(means)]
    for drawn_at, members in passes:
        gens = streams(first.seed, range(t_total))
        for lo in range(0, t_total, _TRIAL_BLOCK):
            k = min(_TRIAL_BLOCK, t_total - lo)
            for i in range(k):
                family._draw(drawn_at, (n, m), next(gens), draws[i])
            for j in members:
                if drawn_at is None:
                    family._place(means[j], draws[:k], placed[:k])
                placed[:k].mean(axis=1, out=lhat[j, lo:lo + k])
    sims = []
    for problem, row, lh in zip(problems, means, lhat):
        ln_prior = np.log(np.asarray(problem.prior_weights, dtype=float))
        q, lnq = _gibbs(ln_prior, problem.gibbs_temperature * n, lh)
        kl = np.maximum(np.einsum("tm,tm->t", q, lnq - ln_prior), 0.0)
        sims.append((np.einsum("tm,tm->t", q, lh), q @ row, kl))
    return sims


def _simulate(problem):
    """One problem's per-trial (train, pop, kl), drawn anew at each call."""
    return _simulate_group((problem,))[0]


def clopper_pearson(k, t_total):
    """The 95% Clopper-Pearson interval of k successes in t_total trials.

    Each limit is rounded outward, so cp95_high <= delta never holds by
    rounding alone.
    """
    lo = 0.0 if k == 0 else binomial_tail_root(k, t_total, 0.025, upper=True)
    hi = 1.0 if k == t_total else binomial_tail_root(k, t_total, 0.025)
    return lo, hi


def _check_kinds(family, kinds, delta):
    """bounds.check_kind of each kind, and for the Chernoff kind
    cramer_divergence: the rules a run checks before any draw."""
    for kind in kinds:
        check_kind(kind, family, delta)
        if kind == "pac_cramer_chernoff" and cramer_divergence(family):
            raise ValueError("the chernoff correction is certified here only "
                             f"for bernoulli, got {family.kind}")


def _summaries(problem, kinds, delta, violated):
    """One summary per kind of its row of (len(kinds), trials) violation
    flags, with the violation count and its 95% Clopper-Pearson interval."""
    summaries = []
    for kind, flags in zip(kinds, violated):
        k = int(flags.sum())
        cp_lo, cp_hi = clopper_pearson(k, problem.trials)
        summaries.append({
            "kind": kind, "family": fam.family_spec(problem.family),
            "m": len(problem.hypothesis_means), "n": problem.n,
            "c": problem.gibbs_temperature, "seed": problem.seed,
            "delta": delta, "trials": problem.trials, "violations": k,
            "rate": k / problem.trials, "cp95_low": cp_lo,
            "cp95_high": cp_hi, "flag": reference_flag(kind, delta),
        })
    return summaries


def run_trials(problem, bound="pac_cramer_xi", delta=0.05):
    """Simulate the problem and evaluate one bound kind on every trial.

    Returns (records, summary): a TrialRecord per trial, its bound
    converged, plus a summary dict with the violation count and its 95%
    Clopper-Pearson interval.
    """
    _check_kinds(problem.family, (bound,), delta)
    train, pop, kl = _simulate(problem)
    values = bound_values(bound, problem.family, train, kl, problem.n, delta)
    violated = pop > values
    (summary,) = _summaries(problem, (bound,), delta, [violated])
    records = [TrialRecord(float(q), float(p), float(k), float(v), bool(f))
               for q, p, k, v, f in zip(train, pop, kl, values, violated)]
    return records, summary


def check_average_bound(problem):
    """Average bound on expectation proxies vs the mean population loss.

    The average-case operator applies to exact expectations; here those are
    estimated by the trial means, so the check carries the standard error of
    the population-loss mean, which needs at least 2 trials.
    """
    if problem.trials < 2:
        raise ValueError("check_average_bound needs trials >= 2 for a "
                         f"standard error, got {problem.trials}")
    train, pop, kl = _simulate(problem)
    res = evaluate_kind("average_cramer", problem.family, float(train.mean()),
                        float(kl.mean()), problem.n)
    se = float(pop.std(ddof=1) / math.sqrt(len(pop)))
    return {"mean_pop": float(pop.mean()), "bound": res.rho, "se_pop": se,
            "slack": res.rho - float(pop.mean())}


# -- the default suite -------------------------------------------------------

CERTIFIED_KINDS = {
    "bernoulli": ("mls", "pac_cramer_xi", "pac_cramer_two_e_ceil"),
    "gaussian": ("pac_cramer_xi", "pac_cramer_two_e_ceil"),
    "poisson": ("pac_cramer_xi", "pac_cramer_two_e_ceil"),
}


def random_problem(family, m, c, n, trials, seed, stream):
    """A problem with m means drawn uniformly from the mean interval of the
    family's law on stream (seed, stream), under a uniform prior."""
    m = check_n(m, "m", least=2)
    _check_temperature(c, "c")  # c, n and trials are refused before the draw
    n, trials = check_n(n), check_n(trials, "trials")
    if family.law.mean_interval is None:
        kinds = [k for k, law in fam._LAWS.items() if law.mean_interval]
        raise ValueError(f"verify supports the {', '.join(kinds)} families, "
                         f"got {family.kind}")
    lo, hi = family.law.mean_interval
    means = make_generator(seed, stream).uniform(lo, hi, m)
    return SyntheticProblem(means, (1.0 / m,) * m, family, c, n, trials, seed)


def suite_problems(trials=2000, seeds=(0, 1, 2)):
    """The default grid of synthetic problems (means redrawn per config)."""
    configs = itertools.product(
        (fam.bernoulli(), fam.gaussian(1.0), fam.poisson()), (2, 10),
        (10, 100), (0.0, 1.0, 5.0), seeds)
    return [random_problem(family, m, c, n, trials, seed, 700000 + cfg)
            for cfg, (family, m, n, c, seed) in enumerate(configs, start=1)]


def default_suite(delta=0.05, trials=2000, seeds=(0, 1, 2)):
    """Run every certified PAC kind over the default problem grid.

    Problems that differ only in c and their means are drawn together by
    _simulate_group, then evaluated and dropped.  A problem makes one
    inversion per distinct comparator and budget of its certified kinds:
    one per kind, as no two of them share a budget.  The suite keeps one
    bit per trial and kind, whether the population loss exceeds the bound,
    so bounds._per_kind, given those losses, settles that bit instead of
    converging the bound; the summaries are those of the converged bounds.
    One summary per (problem, kind), in suite_problems and then
    CERTIFIED_KINDS order.
    """
    problems = suite_problems(trials, seeds)
    groups = {}
    for i, p in enumerate(problems):
        key = (p.family, p.seed, p.n, len(p.hypothesis_means), p.trials)
        groups.setdefault(key, []).append(i)
    summaries = [None] * len(problems)
    for idx in groups.values():
        group = [problems[i] for i in idx]
        kinds = CERTIFIED_KINDS[group[0].family.kind]
        _check_kinds(group[0].family, kinds, delta)
        for i, problem, (train, pop, kl) in zip(idx, group,
                                                _simulate_group(group)):
            violated = _per_kind(kinds, problem.family, train, kl,
                                 problem.n, delta, losses=pop)
            summaries[i] = _summaries(problem, kinds, delta, violated)
    return [summary for per in summaries for summary in per]


# -- samplewise vs full-sample comparison ------------------------------------

@dataclass
class SamplewiseComparison:
    samplewise: float
    full: float
    se_samplewise: float
    se_full: float


def run_samplewise_comparison(problem, inner=1000, outer=400, replicates=4):
    """Paired estimate of the per-sample and full-sample average bounds.

    Bernoulli-only (the one family on a bounded mean domain, whose losses
    are 0 or 1).  The 2^M loss vectors of a single sample are enumerated
    exactly; the conditional posterior given each vector is marginalized
    over the other n-1 samples by nested Monte Carlo (inner draws).  The
    prior is the estimated posterior marginal, making the divergences
    mutual informations.  Standard errors come from independent replicates.
    n = 1 and temperature 0 shortcut to exact enumeration.
    """
    family = problem.family
    if not math.isfinite(family.mean_domain[1]):
        raise ValueError("the samplewise comparison is Bernoulli-only, got "
                         f"{family.kind}")
    inner, outer, replicates = (check_n(size, name) for name, size in (
        ("inner", inner), ("outer", outer), ("replicates", replicates)))
    means = np.asarray(problem.hypothesis_means, dtype=float)
    prior = np.asarray(problem.prior_weights, dtype=float)
    m, n, c = len(means), problem.n, problem.gibbs_temperature
    if m > 12:
        raise ValueError("exact loss-vector enumeration needs at most 12 "
                         f"hypotheses, got {m}")
    average = functools.partial(evaluate_kind, "average_cramer", family)
    vs = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
    ln_pv = (xlogy(vs, means) + xlog1py(1.0 - vs, -means)).sum(axis=1)
    pv = np.exp(ln_pv)

    def mean_kl(q_rows, q_ref, weights):
        terms = rel_entr(q_rows, q_ref).sum(axis=1)
        return float(weights @ np.maximum(terms, 0.0))

    sw_vals, full_vals = [], []
    for rep in range(replicates):
        if n == 1 or c == 0.0:
            q_v = _gibbs(np.log(prior), c * n, vs)[0]
        else:
            rng = make_generator(problem.seed, 310000, rep)
            q_v = np.empty((len(vs), m))
            for iv, v in enumerate(vs):
                rest = family._draw(means, (inner, n - 1, m), rng).sum(axis=1)
                q_v[iv] = _gibbs(np.log(prior), c, v + rest)[0].mean(axis=0)
        q_marg = pv @ q_v
        alpha_sw = float(pv @ np.einsum("vm,vm->v", q_v, vs))
        beta_sw = mean_kl(q_v, q_marg, pv)
        sw_vals.append(average(alpha_sw, beta_sw, 1).rho)

        if n == 1:
            full_vals.append(sw_vals[-1])
            continue
        if c == 0.0:
            alpha_f = float(prior @ means)
            full_vals.append(average(alpha_f, 0.0, n).rho)
            continue
        rng2 = make_generator(problem.seed, 320000, rep)
        lhat = family._draw(means, (outer, n, m), rng2).mean(axis=1)
        q_z = _gibbs(np.log(prior), c * n, lhat)[0]
        q_bar = q_z.mean(axis=0)
        alpha_f = float(np.einsum("tm,tm->t", q_z, lhat).mean())
        beta_f = mean_kl(q_z, q_bar, np.full(outer, 1.0 / outer))
        full_vals.append(average(alpha_f, beta_f, n).rho)

    sw = np.asarray(sw_vals)
    fu = np.asarray(full_vals)
    se = lambda x: float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return SamplewiseComparison(float(sw.mean()), float(fu.mean()),
                                se(sw), se(fu))
