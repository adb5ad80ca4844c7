import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgfbounds import bounds
from cgfbounds import families as fam
from cgfbounds import inversion as inv
from cgfbounds import verify
from cgfbounds._special import logsumexp
from cgfbounds.rng import make_generator


def problem(**over):
    kw = dict(hypothesis_means=(0.2, 0.5, 0.8),
              prior_weights=(0.5, 0.25, 0.25), family=fam.bernoulli(),
              gibbs_temperature=1.0, n=25, trials=200, seed=7)
    kw.update(over)
    return verify.SyntheticProblem(**kw)


def test_problem_validation():
    with pytest.raises(ValueError, match="at least 2 hypotheses, got 1"):
        problem(hypothesis_means=(0.5,), prior_weights=(1.0,))
    with pytest.raises(ValueError, match="sum to 1"):
        problem(prior_weights=(0.5, 0.25, 0.35))
    with pytest.raises(ValueError, match="needs 3 entries, got 2"):
        problem(prior_weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="gibbs_temperature"):
        problem(gibbs_temperature=-0.1)
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        problem(n=0)
    with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
        problem(trials=0)
    # the trial loop no longer checks the means, so the problem must
    with pytest.raises(ValueError, match=r"outside the open domain of bernoulli"):
        problem(hypothesis_means=(0.2, 1.5, 0.8))
    with pytest.raises(ValueError, match=r"outside the open domain of poisson"):
        problem(hypothesis_means=(0.2, -0.5, 0.8), family=fam.poisson())
    with pytest.raises(ValueError, match=r"mean \(nan, 0\.5\) outside"):
        problem(hypothesis_means=(math.nan, 0.5), prior_weights=(0.5, 0.5),
                family=fam.gaussian(1.0))


def _laplace_by_sign(g, p, size, b=0.8):
    u = g.random(size) - 0.5
    return p - b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


# the samplers as first written, kept here so that the harness is checked
# against numpy's own draws and not against families._draw itself
ORACLE_DRAWS = {
    "bernoulli": lambda g, p, size: (g.random(size) < p).astype(float),
    "gaussian": lambda g, p, size: g.normal(p, 1.0, size),
    "poisson": lambda g, p, size: g.poisson(p, size).astype(float),
    "laplace": _laplace_by_sign,
}


def _per_trial_oracle(p, draw):
    # (train, pop, kl) of a problem from a fresh make_generator(seed, t) per
    # trial, each drawn by draw(generator, means, size), and the Gibbs
    # posterior written inline, its energies less each trial's least
    means = np.asarray(p.hypothesis_means)
    prior = np.asarray(p.prior_weights)
    lhat = np.array([draw(make_generator(p.seed, t), means,
                          (p.n, len(means))).mean(axis=0)
                     for t in range(p.trials)])
    lnq = np.log(prior) - p.gibbs_temperature * p.n * (
        lhat - lhat.min(axis=1, keepdims=True))
    lnq -= logsumexp(lnq, axis=1, keepdims=True)
    q = np.exp(lnq)
    kl = np.maximum(np.einsum("tm,tm->t", q, lnq - np.log(prior)), 0.0)
    return np.einsum("tm,tm->t", q, lhat), q @ means, kl


@pytest.mark.parametrize("family", [fam.bernoulli(), fam.gaussian(1.0),
                                    fam.poisson(), fam.laplace(0.8)],
                         ids=lambda f: f.kind)
def test_simulate_equals_per_trial_generators(family):
    # trial t draws from a fresh make_generator(seed, t), as it always has;
    # 150 trials end on a partial block of averaged trials
    p = problem(family=family, trials=150, n=12)
    assert p.trials % verify._TRIAL_BLOCK != 0
    want = _per_trial_oracle(p, ORACLE_DRAWS[family.kind])
    got = verify._simulate(p)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def stream_group(family, trials=150):
    # three problems on the same trial streams, with different means and c
    return [problem(family=family, hypothesis_means=means,
                    gibbs_temperature=c, trials=trials, n=12)
            for means, c in (((0.2, 0.5, 0.8), 0.0), ((0.65, 0.1, 0.35), 1.0),
                             ((0.9, 0.3, 0.45), 5.0))]


GROUP_FAMILIES = [fam.bernoulli(), fam.gaussian(2.0), fam.poisson(),
                  fam.laplace(0.8)]


@pytest.mark.parametrize("family", GROUP_FAMILIES, ids=lambda f: f.kind)
def test_simulate_group_equals_each_problem_alone(family):
    # the group's shared standard draws, placed at each problem's means, are
    # each problem's own draws; 150 trials end on a partial block, and the
    # gaussian(2.0) oracle scales by sqrt(v)
    v = family.nuisance
    draw = {"gaussian": lambda g, p, size: g.normal(p, math.sqrt(v), size),
            "laplace": lambda g, p, size: _laplace_by_sign(g, p, size, v),
            }.get(family.kind, ORACLE_DRAWS[family.kind])
    problems = stream_group(family)
    assert problems[0].trials % verify._TRIAL_BLOCK != 0
    for p, got in zip(problems, verify._simulate_group(problems)):
        alone = verify._simulate(p)
        want = _per_trial_oracle(p, draw)
        assert all(np.array_equal(g, a) and np.array_equal(g, w)
                   for g, a, w in zip(got, alone, want)), p


@pytest.mark.parametrize("family, draws_per_trial", [
    (fam.bernoulli(), 1), (fam.gaussian(1.0), 1), (fam.poisson(), 3)],
    ids=["bernoulli", "gaussian", "poisson"])
def test_group_draws_each_trial_stream_once(family, draws_per_trial,
                                            monkeypatch):
    # a bernoulli or gaussian group of three re-keys and draws each trial's
    # stream once; a poisson draw consumes the stream according to its
    # means, so each of the three problems re-keys and draws its own
    keyed = []
    real = verify.streams

    def counted(seed, ids):
        for rng in real(seed, ids):
            keyed.append(rng)
            yield rng

    monkeypatch.setattr(verify, "streams", counted)
    verify._simulate_group(stream_group(family, trials=70))
    assert len(keyed) == draws_per_trial * 70


def converged_summaries(p, kinds, delta=0.05):
    """The summaries of the kinds' converged bounds on the problem's own
    trials, from one bounds.bound_values call over the kinds."""
    train, pop, kl = verify._simulate(p)
    values = bounds.bound_values(kinds, p.family, train, kl, p.n, delta)
    return verify._summaries(p, kinds, delta, pop > values)


def test_default_suite_is_the_per_problem_evaluation():
    # drawn in groups of problems on the same streams, and each violation
    # settled, summary for summary what each problem's converged bounds
    # give on its own, in the same order
    want = [summary for p in verify.suite_problems(200, (0, 7))
            for summary in converged_summaries(
                p, verify.CERTIFIED_KINDS[p.family.kind])]
    assert verify.default_suite(0.05, 200, (0, 7)) == want


SUITE_REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"


@pytest.mark.parametrize("seed", [0, 7])
def test_default_suite_counts_match_frozen_references(seed):
    # the violation counts of the full suite at one seed, as the benchmark's
    # references (read, never written, here) froze them
    ref = json.loads((SUITE_REFS / "checks.json").read_text())
    suite = verify.default_suite(ref["delta"], ref["trials"], (seed,))
    assert [s["violations"] for s in suite] == ref["violations"][str(seed)]


def test_simulate_suite_equals_inline_gibbs():
    # each seed-0 suite problem against per-trial generators and the Gibbs
    # posterior written inline
    problems = verify.suite_problems(200, (0,))
    assert len(problems) == 36
    for p in problems:
        want = _per_trial_oracle(
            p, lambda g, means, size: p.family._draw(means, size, g))
        got = verify._simulate(p)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), p


def test_suite_problems_draw_each_config_on_its_own_stream():
    # the config order and the means as first drawn: config cfg (from 1)
    # draws m uniform means on stream (seed, 700000 + cfg)
    seeds = (0, 4)
    want = []
    for family in (fam.bernoulli(), fam.gaussian(1.0), fam.poisson()):
        lo, hi = family.law.mean_interval
        for m in (2, 10):
            for n in (10, 100):
                for c in (0.0, 1.0, 5.0):
                    for seed in seeds:
                        rng = make_generator(seed, 700000 + len(want) + 1)
                        means = tuple(float(x) for x in rng.uniform(lo, hi, m))
                        want.append(verify.SyntheticProblem(
                            means, (1.0 / m,) * m, family, c, n, 7, seed))
    assert verify.suite_problems(7, seeds) == want


def test_random_problem_refuses_a_family_without_a_mean_interval():
    with pytest.raises(ValueError, match="verify supports the bernoulli, "
                       "gaussian, poisson families, got gamma"):
        verify.random_problem(fam.gamma(2.0), 3, 1.0, 10, 5, 0, 1)


@pytest.mark.parametrize("m", [-1, 2.5, 1, math.nan])
def test_random_problem_refuses_an_m_that_is_no_count_of_two(m):
    # before the means are drawn, not as numpy's error about dimensions
    with pytest.raises(ValueError, match=rf"^m must be at least 2.*, got {m}$"):
        verify.random_problem(fam.bernoulli(), m, 1.0, 10, 5, 0, 1)


@pytest.mark.parametrize("c, n, trials, message", [
    (-1.0, 10, 5, "c must be nonnegative, got -1.0"),
    (math.nan, 10, 5, "c must be nonnegative, got nan"),
    (math.inf, 10, 5, "c must be nonnegative and finite, got inf"),
    (1.0, 2.5, 5, "n must be at least 1 and a finite integer, got 2.5"),
    (1.0, 10, 0, "trials must be at least 1, got 0")],
    ids=["c-negative", "c-nan", "c-inf", "n-fractional", "trials-zero"])
def test_random_problem_refuses_before_it_draws(c, n, trials, message,
                                                monkeypatch):
    # no generator is built and no mean drawn for a problem that is refused
    built = []
    real = verify.make_generator
    monkeypatch.setattr(verify, "make_generator",
                        lambda *key: built.append(key) or real(*key))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify.random_problem(fam.bernoulli(), 3, c, n, trials, 0, 1)
    assert built == []
    verify.random_problem(fam.bernoulli(), 3, 1.0, 10, 5, 0, 1)
    assert built == [(0, 1)]


def test_problem_refuses_an_infinite_temperature():
    with pytest.raises(ValueError, match=r"^gibbs_temperature must be "
                                         r"nonnegative and finite, got inf$"):
        problem(gibbs_temperature=math.inf)


def test_an_overflowing_gibbs_energy_keeps_its_limit():
    # c n L-hat overflows at c = 1e308; each trial's posterior is then the
    # prior on its least training losses, as it already is at c = 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = verify._simulate(problem(gibbs_temperature=1e308))
    for got, want in zip(huge, verify._simulate(problem(gibbs_temperature=1e6))):
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_gibbs_keeps_tied_least_losses_at_any_scale():
    # the energies are taken less the row's least, so a large finite scale
    # neither cancels ln prior nor gives each tied least loss q near 1
    eps = np.finfo(float).eps
    rows = [(np.log([1 / 3] * 3), scale, [0.3, 0.3, 0.5], [0.5, 0.5, 0.0])
            for scale in (5e14, 5e16, 1e300, math.inf)]
    rows.append((np.log([0.9, 0.1]), 1e17, [0.3, 0.3], [0.9, 0.1]))
    for ln_prior, scale, losses, want in rows:
        q = verify._gibbs(ln_prior, scale, np.array([losses]))[0]
        assert q[0] == pytest.approx(want, rel=4 * eps, abs=0), scale
        assert abs(q.sum() - 1.0) <= 4 * eps, scale


@st.composite
def gibbs_rows(draw):
    # a prior, losses in [0, 1] whose least is tied at the indices tied, and
    # a scale anywhere from 0 to 1e300
    m = draw(st.integers(2, 6))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m,
                                     max_size=m)))
    losses = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m,
                                    max_size=m)))
    tied = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=m,
                         unique=True))
    losses[tied] = losses.min()
    scale = draw(st.floats(0.0, 1e300))
    return weights / weights.sum(), losses, scale


@given(row=gibbs_rows())
@settings(max_examples=200, deadline=None)
def test_gibbs_rows_sum_to_one_and_keep_the_prior_on_ties(row):
    prior, losses, scale = row
    q = verify._gibbs(np.log(prior), scale, losses[None])[0][0]
    assert abs(q.sum() - 1.0) <= 8 * np.finfo(float).eps
    least = losses == losses.min()
    assert q[least] / q[least].sum() == pytest.approx(
        prior[least] / prior[least].sum(), rel=1e-13)


@pytest.mark.parametrize("sequence", [list, np.array], ids=["list", "array"])
def test_problem_built_from_lists_or_arrays_runs(sequence):
    # stored as tuples of Python floats, so the problem stays hashable
    p = verify.SyntheticProblem(sequence([0.2, 0.5]), sequence([0.5, 0.5]),
                                fam.bernoulli(), 1.0, 20, 50, 0)
    ref = verify.SyntheticProblem((0.2, 0.5), (0.5, 0.5), fam.bernoulli(),
                                  1.0, 20, 50, 0)
    assert p.hypothesis_means == (0.2, 0.5) and p.prior_weights == (0.5, 0.5)
    assert all(type(v) is float for v in p.hypothesis_means + p.prior_weights)
    assert p == ref and hash(p) == hash(ref)
    records, summary = verify.run_trials(p, "mls", 0.05)
    assert (records, summary) == verify.run_trials(ref, "mls", 0.05)
    assert verify.check_average_bound(p) == verify.check_average_bound(ref)


def test_suite_summary_is_run_trials_summary():
    # the kinds evaluated together, as default_suite does, give the
    # summaries each kind gives on its own
    p = problem(trials=100)
    kinds = ("mls", "pac_cramer_xi", "pac_cramer_two_e_ceil")
    assert converged_summaries(p, kinds) == [
        verify.run_trials(p, kind, 0.05)[1] for kind in kinds]


def test_run_trials_deterministic():
    recs_a, sum_a = verify.run_trials(problem(), "pac_cramer_xi", 0.05)
    recs_b, sum_b = verify.run_trials(problem(), "pac_cramer_xi", 0.05)
    assert sum_a == sum_b
    assert recs_a == recs_b


def test_zero_temperature_gives_zero_kl():
    recs, _ = verify.run_trials(problem(gibbs_temperature=0.0, trials=50))
    assert all(r.kl == 0.0 for r in recs)


def test_violation_bookkeeping():
    recs, summary = verify.run_trials(problem(), "mls", 0.05)
    assert all(r.violated == (r.pop_loss > r.bound_value) for r in recs)
    k = sum(r.violated for r in recs)
    assert summary["violations"] == k
    assert summary["rate"] == k / summary["trials"]
    assert summary["cp95_low"] <= summary["rate"] <= summary["cp95_high"]
    assert summary["flag"] is None


def test_reference_kind_flagged():
    _, summary = verify.run_trials(problem(trials=20), "catoni_inf", 0.05)
    assert summary["flag"] == "reference_only"


# a family, with two means in its domain, on which each kind is defined;
# bernoulli for the rest
KIND_FAMILIES = {"poisson_diff_inf": (fam.poisson(), (0.5, 1.5)),
                 "laplace_diff_inf": (fam.laplace(1.0), (0.0, 1.0)),
                 "gaussian_diff_inf": (fam.gaussian(1.0), (0.0, 1.0))}


@pytest.mark.parametrize("delta", [None, 0.05], ids=["no-delta", "delta"])
@pytest.mark.parametrize("kind", bounds.BOUND_KINDS)
def test_verify_flag_is_the_evaluate_kind_flag(kind, delta):
    # one rule: verify takes every kind, flags it as evaluate_kind does, and
    # refuses what evaluate_kind refuses with the same message
    family, means = KIND_FAMILIES.get(kind, (fam.bernoulli(), (0.2, 0.5)))
    p = problem(hypothesis_means=means, prior_weights=(0.5, 0.5),
                family=family, trials=20)
    try:
        want = bounds.evaluate_kind(kind, family, 0.3, 1.0, p.n, delta).flag
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            verify.run_trials(p, kind, delta)
        return
    assert verify.run_trials(p, kind, delta)[1]["flag"] == want


def test_unknown_kind_refused_before_any_draw(monkeypatch):
    # a fresh problem, so no cached simulation hides a draw
    draws = []
    real = fam.BoundingFamily._draw

    def spy(self, *args):
        draws.append(args)
        return real(self, *args)

    monkeypatch.setattr(fam.BoundingFamily, "_draw", spy)
    with pytest.raises(ValueError, match="unknown bound kind 'bogus'"):
        verify.run_trials(problem(seed=123457), "bogus", 0.05)
    assert draws == []
    verify.run_trials(problem(seed=123457, trials=3), "mls", 0.05)
    assert len(draws) == 3     # the spy sees the draws of a known kind


def test_bad_delta_refused_before_any_draw(monkeypatch):
    # a delta outside (0, 1), or none for a kind with a union correction,
    # fails before a single trial is simulated
    draws = []
    real = fam.BoundingFamily._draw

    def spy(self, *args):
        draws.append(args)
        return real(self, *args)

    monkeypatch.setattr(fam.BoundingFamily, "_draw", spy)
    for delta in (1.5, 0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            verify.run_trials(problem(seed=123458), "pac_cramer_xi", delta)
    with pytest.raises(ValueError, match="the mls kind requires delta"):
        verify.run_trials(problem(seed=123458), "mls", None)
    assert draws == []


@pytest.mark.parametrize("kind, family, words", [
    ("mls", fam.gaussian(1.0), "mls needs the bernoulli family"),
    ("catoni_inf", fam.poisson(), "catoni_inf needs the bernoulli family"),
    ("poisson_diff_inf", fam.gaussian(1.0), "gaussian family's mean can be "
     "negative"),
    ("laplace_diff_inf", fam.poisson(), "b must be positive"),
    ("gaussian_diff_inf", fam.bernoulli(), "sigma2 must be positive"),
    ("pac_cramer_chernoff", fam.poisson(), "only for bernoulli, got poisson"),
])
def test_kind_family_mismatch_refused_before_any_draw(kind, family, words,
                                                      monkeypatch):
    # the rule of bounds.check_kind, checked before a trial is simulated
    draws = []
    real = fam.BoundingFamily._draw

    def spy(self, *args):
        draws.append(args)
        return real(self, *args)

    monkeypatch.setattr(fam.BoundingFamily, "_draw", spy)
    means = (0.2, 0.5) if family.kind == "bernoulli" else (0.5, 1.5)
    with pytest.raises(ValueError, match=words):
        verify.run_trials(problem(hypothesis_means=means,
                                  prior_weights=(0.5, 0.5), family=family,
                                  seed=123459), kind, 0.05)
    assert draws == []


@pytest.mark.parametrize("n", [2.5, math.inf, math.nan, -3])
def test_problem_n_is_a_sample_size(n):
    # a trial loop cannot run 2.5 or inf draws; 25.0 runs as 25
    with pytest.raises(ValueError, match="n must be at least 1"):
        problem(n=n)
    assert verify.run_trials(problem(n=25.0, trials=20.0, seed=123460)) == \
        verify.run_trials(problem(n=25, trials=20, seed=123460))


def test_problem_seed_is_an_integer():
    # refused when the problem is built, by stream_key's own rule, not when
    # run_trials first draws; 2.0 is seed 2
    for seed in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match=f"^seed must be an integer, got {seed}$"):
            problem(seed=seed)
    p = problem(seed=2.0)
    assert type(p.seed) is int and p == problem(seed=2)


def test_default_suite_makes_one_inversion_per_kind(monkeypatch):
    # no two certified kinds of a problem share a budget, so the 36 seed-0
    # problems make one settle bisection per kind, 84 in all, each over a
    # leading axis of length 1
    calls = []
    bisect = inv._bisect

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(inv, "_bisect", counted)
    summaries = verify.default_suite(0.05, 200, (0,))
    assert len(summaries) == len(calls) == 84
    assert all(args[2].shape == (1, 200) for args in calls)


def test_default_suite_settles_in_at_most_half_the_cells(monkeypatch):
    # the suite keeps one bit per trial, so a cell stops moving once its
    # population loss leaves the bracket and a bisection ends once none is
    # open: at most half the comparator cells of converging every bound on
    # the same draws (237,800 of 703,000, 34%, at 200 trials)
    cells = []
    real = inv.Comparator.eval

    def counted(self, q, p):
        cells.append(np.broadcast(q, p).size)
        return real(self, q, p)

    monkeypatch.setattr(inv.Comparator, "eval", counted)
    verify.default_suite(0.05, 200, (0,))
    settled = sum(cells)
    cells.clear()
    for p in verify.suite_problems(200, (0,)):
        converged_summaries(p, verify.CERTIFIED_KINDS[p.family.kind])
    assert 0 < settled <= sum(cells) / 2


def test_stacked_kinds_equal_the_per_kind_calls():
    for p in verify.suite_problems(200, (0, 7)):
        train, _, kl = verify._simulate(p)
        kinds = verify.CERTIFIED_KINDS[p.family.kind]
        got = bounds.bound_values(kinds, p.family, train, kl, p.n, 0.05)
        assert got.shape == (len(kinds), p.trials)
        for row, kind in zip(got, kinds):
            want = bounds.bound_values(kind, p.family, train, kl, p.n, 0.05)
            assert np.array_equal(row, want, equal_nan=True), (p, kind)


def test_mixed_kinds_equal_the_per_kind_calls(monkeypatch):
    # kinds over different Cramer comparators are grouped: poisson_diff_inf
    # and average_cramer share poisson's comparator and their budget, so
    # it is inverted once, and gaussian_diff_inf inverts gaussian(1)'s
    kinds = ("average_cramer", "poisson_diff_inf", "gaussian_diff_inf")
    alpha, beta = np.meshgrid(np.linspace(0.05, 3.0, 7),
                              np.geomspace(0.1, 200.0, 5), indexing="ij")
    want = [bounds.bound_values(k, fam.poisson(), alpha, beta, 100, sigma2=1.0)
            for k in kinds]
    calls = []
    bisect = inv._bisect

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(inv, "_bisect", counted)
    got = bounds.bound_values(kinds, fam.poisson(), alpha, beta, 100,
                              sigma2=1.0)
    assert got.shape == (3, 7, 5)
    for row, w in zip(got, want):
        assert np.array_equal(row, w, equal_nan=True)
    assert [args[0].form for args in calls] == ["cramer[poisson]",
                                                "cramer[gaussian:sigma2=1]"]
    assert [args[2].shape for args in calls] == [(1, 7, 5), (1, 7, 5)]


def test_chernoff_kind_over_bernoulli():
    recs, summary = verify.run_trials(problem(trials=20),
                                      "pac_cramer_chernoff", 0.05)
    assert summary["flag"] is None
    assert all(math.isfinite(r.bound_value) for r in recs)


def test_chernoff_kind_valid_on_bernoulli_suite_problems():
    # a certified kind outside default_suite, so its frozen counts stay
    problems = [p for p in verify.suite_problems(2000, (0,))
                if p.family.kind == "bernoulli"]
    assert len(problems) == 12
    for p in problems:
        _, summary = verify.run_trials(p, "pac_cramer_chernoff", 0.05)
        assert summary["cp95_high"] <= 0.05, summary


def test_clopper_pearson_closed_forms():
    t = 400
    lo, hi = verify.clopper_pearson(0, t)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / t), rel=1e-12)
    lo, hi = verify.clopper_pearson(t, t)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1.0 / t), rel=1e-12)
    lo, hi = verify.clopper_pearson(13, t)
    assert 0.0 < lo < 13 / t < hi < 1.0


def test_mls_violation_rate_within_delta():
    _, summary = verify.run_trials(problem(trials=400, n=30), "mls", 0.05)
    assert summary["cp95_high"] <= 0.05


def test_average_bound_check_has_nonnegative_slack():
    out = verify.check_average_bound(problem(trials=10**4))
    assert out["slack"] >= -2.0 * out["se_pop"]


def test_average_bound_check_refuses_one_trial(monkeypatch):
    # one trial has no standard error: refused before any draw, and no
    # warning on the way, so it holds under -W error too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify.check_average_bound(problem(trials=2))["se_pop"] >= 0.0
        monkeypatch.setattr(verify, "_simulate", None)
        with pytest.raises(ValueError, match="trials >= 2 .*, got 1$"):
            verify.check_average_bound(verify.SyntheticProblem(
                (0.2, 0.5), (0.5, 0.5), fam.bernoulli(), 1.0, 10, 1, 0))


def test_suite_problem_grid():
    probs = verify.suite_problems(trials=10, seeds=(0, 1, 2))
    assert len(probs) == 108
    kinds = {p.family.kind for p in probs}
    assert kinds == {"bernoulli", "gaussian", "poisson"}
    for p in probs:
        lo, hi = p.family.law.mean_interval
        assert all(lo <= m <= hi for m in p.hypothesis_means)
        assert p.trials == 10
    assert {len(p.hypothesis_means) for p in probs} == {2, 10}
    assert {p.n for p in probs} == {10, 100}
    assert {p.gibbs_temperature for p in probs} == {0.0, 1.0, 5.0}


def test_samplewise_n1_collapses_to_full():
    p = problem(n=1, trials=1, gibbs_temperature=1.2)
    cmp = verify.run_samplewise_comparison(p, inner=50, outer=50, replicates=2)
    assert cmp.samplewise == cmp.full


def test_samplewise_zero_temperature_is_prior_mean():
    p = problem(gibbs_temperature=0.0, trials=1)
    cmp = verify.run_samplewise_comparison(p, inner=20, outer=20, replicates=1)
    want = float(np.dot(p.prior_weights, p.hypothesis_means))
    assert cmp.samplewise == pytest.approx(want, abs=1e-12)
    assert cmp.full == pytest.approx(want, abs=1e-12)


def test_samplewise_comparison_frozen():
    # frozen before the outer draws were batched into one (outer, n, m) call,
    # re-frozen once the Gibbs energies were taken less each row's least and
    # the mean KL went through rel_entr
    p = problem(hypothesis_means=(0.2, 0.45, 0.7), gibbs_temperature=2.0,
                n=8, trials=10, seed=3)
    cmp = verify.run_samplewise_comparison(p, inner=40, outer=30, replicates=3)
    assert cmp == verify.SamplewiseComparison(
        0.3019204894995604, 0.2710111004944522, 0.008012665157122473,
        0.0192724616402974)


def test_samplewise_sizes_are_counts():
    # inner, outer and replicates reach the draws as ints: 50.0 is 50
    p = problem(hypothesis_means=(0.2, 0.45, 0.7), gibbs_temperature=2.0,
                n=8, trials=10, seed=3)
    assert verify.run_samplewise_comparison(
        p, inner=50.0, outer=20.0, replicates=2.0) == \
        verify.run_samplewise_comparison(p, inner=50, outer=20, replicates=2)


def test_problem_counts_keep_every_digit():
    # the int is made from the count given; its float copy would be 2**60
    p = problem(n=2**60 + 1, trials=100.0)
    assert (type(p.n), p.n) == (int, 2**60 + 1)
    assert (type(p.trials), p.trials) == (int, 100)


def test_samplewise_comparison_rejects():
    with pytest.raises(ValueError, match="Bernoulli-only, got gaussian"):
        verify.run_samplewise_comparison(problem(family=fam.gaussian(1.0)))
    with pytest.raises(ValueError, match="at most 12 hypotheses, got 13"):
        verify.run_samplewise_comparison(problem(
            hypothesis_means=(0.5,) * 13, prior_weights=(1.0 / 13,) * 13))
    for size in ("inner", "outer", "replicates"):
        with pytest.raises(ValueError, match=f"{size} must be at least 1, "
                           "got 0"):
            verify.run_samplewise_comparison(problem(), **{size: 0})


def test_loss_matrix_means():
    rng = np.random.default_rng(0)
    for family, means in ((fam.bernoulli(), [0.4, 0.9]),
                          (fam.gaussian(0.5), [0.4, 1.1]),
                          (fam.poisson(), [0.4, 1.1]),
                          (fam.gamma(2.0), [0.4, 1.1]),
                          (fam.laplace(1.0), [0.4, 1.1]),
                          (fam.invgauss(1.5), [0.4, 1.1]),
                          (fam.negbin(2.0), [0.4, 1.1])):
        means = np.array(means)
        x = family.sample(means, (4000, 2), rng=rng)
        assert x.shape == (4000, 2)
        se = x.std(axis=0, ddof=1) / math.sqrt(4000)
        assert np.all(np.abs(x.mean(axis=0) - means) < 5 * se)
