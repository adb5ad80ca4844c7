"""Outside-in layer trace: wraps the package's public functions from here.

Nothing in the package changes.  `install` wraps every public function and
public class method defined in the listed modules, then rebinds each wrapper
on every module that binds the original object, so a name imported with
`from .rng import make_generator` is traced as well as `rng.make_generator`.
Each wrapper records calls, total and self CPU time (total minus time spent
in other traced calls it made), and the counts the arguments and returned
objects expose (see OBSERVERS).
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "bounds", "inversion", "families", "conjugate", "upsilon",
          "verify", "rng")


class Stat:
    __slots__ = ("calls", "total", "self_time", "counts", "durations", "keys")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts = {}
        self.durations = None
        self.keys = None

    def bump(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by


def _is_scalar(x):
    return getattr(x, "ndim", 0) == 0 and not isinstance(x, (list, tuple))


def _scalar_q(stat, args, kwargs, result, exc):
    # (self, q, p): count calls whose q is a scalar
    q = args[1] if len(args) > 1 else kwargs.get("q")
    if _is_scalar(q):
        stat.bump("scalar")


def _iterations(stat, args, kwargs, result, exc):
    if result is not None:
        stat.bump("iterations", result.iterations)


def _no_finite(stat, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ in ("NoFiniteBound",
                                                  "CorrectionDivergent"):
        stat.bump("no_finite")


def _upsilon_key(stat, args, kwargs, result, exc):
    comp, family, n = args[:3]
    key = (comp.form, tuple(sorted(comp.params.items())), family.kind,
           family.nuisance, n, args[3:], tuple(sorted(kwargs.items())))
    if stat.keys is None:
        stat.keys = set()
    if key in stat.keys:
        stat.bump("repeats")
    stat.keys.add(key)
    if result is not None:
        stat.bump("mode." + result.mode)


# Per-function observers, keyed by "module.Class.method" or "module.func".
OBSERVERS = {
    "families.BoundingFamily.cramer": _scalar_q,
    "inversion.Comparator.eval": _scalar_q,
    "inversion.invert_at_budget": _iterations,
    "bounds.evaluate_kind": _no_finite,
    "upsilon.compute_upsilon": _upsilon_key,
}

# Functions whose per-call latency distribution is kept.
KEEP_DURATIONS = ("bounds.evaluate_kind",)


class Tracer:
    def __init__(self):
        self.stats = {}
        # one entry per active traced call: time spent in traced callees
        self._child = []

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        if name in KEEP_DURATIONS:
            stat.durations = []
        observe = OBSERVERS.get(name)
        # process CPU time: the children share their CPU with the
        # calibration loop, and the wall clock would charge the loop's
        # slices to whichever traced call happened to be open
        clock, child = time.process_time, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - inner
                if stat.durations is not None:
                    stat.durations.append(dt)
                if observe is not None:
                    try:
                        observe(stat, args, kwargs, result, exc)
                    except Exception:  # a changed signature or result type
                        stat.bump("observer_errors")

        return traced


def install(tracer):
    """Wrap the public callables of cgfbounds.<layer> for each of LAYERS.

    Safe to call on a package where some layer or function no longer
    exists: what is not found is not wrapped, and the report marks it absent.
    """
    replace = {}
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"cgfbounds.{layer}")
        except ImportError:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(
                            f"{layer}.{attr}.{meth}", fn))
            elif callable(obj):  # functions, and lru_cache-style wrappers
                replace[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    # rebind every module-level name in the package that holds an original
    holders = [m for name, m in list(sys.modules.items())
               if name == "cgfbounds" or name.startswith("cgfbounds.")]
    for mod in holders:
        for attr, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# (metric, unit, traced name, what): what is "calls", "self_s", "us_per_call"
# (inclusive time per call), "p50_us"/"p99_us" (inclusive per-call latency),
# "count:<c>" (an observer count) or "share:<c>" (that count over calls).
FUNCTION_METRICS = (
    ("families.cramer.calls", "count", "families.BoundingFamily.cramer", "calls"),
    ("families.cramer.self_s", "s", "families.BoundingFamily.cramer", "self_s"),
    ("families.cramer.us_per_call", "us", "families.BoundingFamily.cramer", "us_per_call"),
    ("families.cramer.scalar_share", "ratio", "families.BoundingFamily.cramer", "share:scalar"),
    ("families.cgf.calls", "count", "families.BoundingFamily.cgf", "calls"),
    ("families.cgf.self_s", "s", "families.BoundingFamily.cgf", "self_s"),
    ("families.sample.calls", "count", "families.BoundingFamily.sample", "calls"),
    ("families.sample.self_s", "s", "families.BoundingFamily.sample", "self_s"),
    ("inversion.infimum_over_parameter.calls", "count", "inversion.infimum_over_parameter", "calls"),
    ("inversion.infimum_over_parameter.self_s", "s", "inversion.infimum_over_parameter", "self_s"),
    ("inversion.invert_at_budget.calls", "count", "inversion.invert_at_budget", "calls"),
    ("inversion.invert_at_budget.self_s", "s", "inversion.invert_at_budget", "self_s"),
    ("inversion.invert_at_budget.iterations", "count", "inversion.invert_at_budget", "count:iterations"),
    ("inversion.comparator_evals", "count", "inversion.Comparator.eval", "calls"),
    ("inversion.comparator_evals.scalar_share", "ratio", "inversion.Comparator.eval", "share:scalar"),
    ("bounds.evaluate_kind.calls", "count", "bounds.evaluate_kind", "calls"),
    ("bounds.evaluate_kind.self_s", "s", "bounds.evaluate_kind", "self_s"),
    ("bounds.evaluate_kind.p50_us", "us", "bounds.evaluate_kind", "p50_us"),
    ("bounds.evaluate_kind.p99_us", "us", "bounds.evaluate_kind", "p99_us"),
    ("bounds.evaluate_kind.no_finite", "ratio", "bounds.evaluate_kind", "share:no_finite"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("upsilon.compute_upsilon.calls", "count", "upsilon.compute_upsilon", "calls"),
    ("upsilon.compute_upsilon.repeat_share", "ratio", "upsilon.compute_upsilon", "share:repeats"),
    ("upsilon.mode.exact", "count", "upsilon.compute_upsilon", "count:mode.exact"),
    ("upsilon.mode.truncated", "count", "upsilon.compute_upsilon", "count:mode.truncated"),
    ("upsilon.mode.monte_carlo", "count", "upsilon.compute_upsilon", "count:mode.monte_carlo"),
    ("upsilon.mode.divergent", "count", "upsilon.compute_upsilon", "count:mode.divergent"),
    ("upsilon.upsilon_bernoulli_exact.calls", "count", "upsilon.upsilon_bernoulli_exact", "calls"),
    ("upsilon.upsilon_bernoulli_exact.self_s", "s", "upsilon.upsilon_bernoulli_exact", "self_s"),
    ("upsilon.upsilon_poisson_series.self_s", "s", "upsilon.upsilon_poisson_series", "self_s"),
    ("upsilon.upsilon_quadrature.self_s", "s", "upsilon.upsilon_quadrature", "self_s"),
    ("upsilon.upsilon_monte_carlo.self_s", "s", "upsilon.upsilon_monte_carlo", "self_s"),
    ("verify.run_trials.calls", "count", "verify.run_trials", "calls"),
    ("verify.run_trials.self_s", "s", "verify.run_trials", "self_s"),
    ("verify.invert_cramer_grid.calls", "count", "verify.invert_cramer_grid", "calls"),
    ("verify.invert_cramer_grid.self_s", "s", "verify.invert_cramer_grid", "self_s"),
    ("rng.make_generator.calls", "count", "rng.make_generator", "calls"),
    ("rng.make_generator.self_s", "s", "rng.make_generator", "self_s"),
    ("conjugate.family_conjugate.calls", "count", "conjugate.family_conjugate", "calls"),
    ("conjugate.family_conjugate.self_s", "s", "conjugate.family_conjugate", "self_s"),
)


def _percentile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0.0


def _value(stat, what):
    if what == "calls":
        return stat.calls
    if what == "self_s":
        return stat.self_time
    if what == "us_per_call":
        return 1e6 * stat.total / stat.calls if stat.calls else 0.0
    if what in ("p50_us", "p99_us"):
        return 1e6 * _percentile(stat.durations or (), int(what[1:3]) / 100.0)
    kind, _, count = what.partition(":")
    n = stat.counts.get(count, 0)
    if kind == "count":
        return n
    return n / stat.calls if stat.calls else 0.0


def layer_metrics(tracer):
    """{"metrics": {metric: (value, unit)}, "absent": [traced names]}.

    Covers FUNCTION_METRICS plus per-layer self time.  A traced name that no
    longer exists in the package reads 0, is listed under "absent" and is
    counted in trace.absent.  An observer that could not read a call's
    arguments or result is counted in trace.observer_errors.
    """
    out, absent = {}, set()
    for metric, unit, name, what in FUNCTION_METRICS:
        stat = tracer.stats.get(name)
        if stat is None:
            absent.add(name)
            out[metric] = (0, unit)
        else:
            out[metric] = (_value(stat, what), unit)
    for layer in LAYERS:
        own = sum(s.self_time for k, s in tracer.stats.items()
                  if k.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = (own, "s")
    out["trace.absent"] = (len(absent), "count")
    out["trace.observer_errors"] = (sum(s.counts.get("observer_errors", 0)
                                        for s in tracer.stats.values()), "count")
    return {"metrics": out, "absent": sorted(absent)}
