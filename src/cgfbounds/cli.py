"""Command-line front end; every number is produced by the library API."""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bounds, conjugate
from . import families as fam
from . import inversion as inv
from . import upsilon as ups
from . import verify as ver

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_FINITE = 3
EXIT_IO = 4
EXIT_CHECK = 5

_BOOL_KEYS = ("clamp",)
_CHECK_TOL = 1e-6   # largest error that conjugate-check and selfcheck pass


def _fmt(v):
    return "%.9g" % float(v)


def _csv_rows(cols):
    """One CSV line per index of the equal-length cols, each value as _fmt."""
    fmt = ",".join(["%.9g"] * len(cols))
    return [fmt % tuple(row) for row in np.column_stack(cols).tolist()]


def _parse_range(text, want_scale=False):
    parts = text.split(":")
    scale = "linear"
    if want_scale and len(parts) == 4:
        scale = parts.pop()
        if scale not in ("linear", "log"):
            raise ValueError(f"unknown scale {scale!r}; use linear or log")
    if len(parts) != 3:
        raise ValueError(f"range must be lo:hi:steps, got {text!r}")
    lo = fam.parse_number(parts[0], f"range {text!r}: lo")
    hi = fam.parse_number(parts[1], f"range {text!r}: hi")
    steps = fam.parse_number(parts[2], f"range {text!r}: steps", int)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range needs finite lo and hi, got {text!r}")
    if not (steps >= 2 and lo < hi):
        raise ValueError(f"range needs lo < hi and steps >= 2, got {text!r}")
    if scale == "log" and not lo > 0:
        raise ValueError(f"a log range needs lo > 0, got {text!r}")
    return np.geomspace(lo, hi, steps) if scale == "log" else np.linspace(lo, hi, steps)


def _merge_config(argv):
    """Splice key=value config entries in as flags ahead of the real flags;
    at most one --config."""
    out, paths = [], []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--config":
            path = next(tokens, None)
            if path is None:
                raise ValueError("--config needs a path")
            paths.append(path)
        elif tok.startswith("--config="):
            paths.append(tok.split("=", 1)[1])
        else:
            out.append(tok)
    if len(paths) > 1:
        raise ValueError("--config given more than once: "
                         + ", ".join(map(repr, paths)))
    if not paths:
        return out
    path = paths[0]
    injected = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"config {path!r} line {lineno}: {line!r} "
                                 "is not key=value")
            key, value = key.strip(), value.strip()
            if key in _BOOL_KEYS:
                if value.lower() in ("1", "true", "yes"):
                    injected.append("--" + key)
            else:
                injected.extend(["--" + key, value])
    return out[:1] + injected + out[1:]


def _write_lines(path, lines):
    text = "".join(line + "\n" for line in lines)
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# -- commands -----------------------------------------------------------------

# the bound kind each --correction value selects; chernoff=<ln_upsilon>
# is parsed apart
_CORRECTIONS = {None: "pac_cramer_xi", "xi": "pac_cramer_xi",
                "2eceil": "pac_cramer_two_e_ceil", "one": "average_cramer"}


def _parse_correction(text):
    """(bound kind, ln_upsilon) of a --correction value."""
    if text in _CORRECTIONS:
        return _CORRECTIONS[text], None
    if text.startswith("chernoff="):
        return "pac_cramer_chernoff", fam.parse_number(
            text[len("chernoff="):], f"--correction {text!r}")
    raise ValueError(f"unknown correction {text!r}; use one, xi, 2eceil or "
                     "chernoff=<ln_upsilon>")


def cmd_bound(args):
    family = fam.parse_family(args.family)
    kind, ln_upsilon = _parse_correction(args.correction)
    if args.delta is None:
        for flag in ("correction", "u"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} needs --delta")
        kind = "average_cramer"
    res = bounds.evaluate_kind(kind, family, args.alpha, args.beta, args.n,
                               args.delta, ln_upsilon=ln_upsilon, u=args.u)
    line = f"rho={_fmt(res.rho)} budget={_fmt(res.budget)} status={res.status}"
    if res.flag:
        line += f" flag={res.flag}"
    print(line)
    return EXIT_OK


def cmd_sweep(args):
    family = fam.parse_family(args.family)
    kinds = [k.strip() for k in args.kinds.split(",")]
    alphas = _parse_range(args.alpha_range)
    bons = _parse_range(args.bon_range, want_scale=True)

    a, bon = (x.ravel() for x in np.meshgrid(alphas, bons, indexing="ij"))
    cols = bounds.bound_values(kinds, family, a, bon * args.n, args.n,
                               delta=args.delta, sigma2=args.sigma2, b=args.b)
    if args.clamp:
        cols = np.minimum(cols, 1.0)
    header = "alpha,beta_over_n," + ",".join(kinds) + ",diff"
    _write_lines(args.out, [header] + _csv_rows([a, bon, *cols,
                                                 cols[0] - cols[-1]]))
    return EXIT_OK


def cmd_ndep(args):
    family = fam.parse_family(args.family)
    if args.nmin < 1 or args.nmax < 1:
        raise ValueError("--nmin and --nmax must be at least 1, got "
                         f"{args.nmin} and {args.nmax}")
    if args.nmin > args.nmax:
        raise ValueError("--nmin must be at most --nmax, got "
                         f"{args.nmin} and {args.nmax}")
    inv.check_n(args.points, "--points")
    ns = np.geomspace(args.nmin, args.nmax, args.points)
    ns = np.array(list(dict.fromkeys(int(round(x)) for x in ns)))
    rho = bounds.bound_values("average_cramer", family, args.alpha, args.beta,
                              ns)
    if np.isnan(rho).any():
        n = int(ns[np.isnan(rho)].min())
        raise inv.no_finite_bound(f"cramer[{fam.family_spec(family)}] at n={n}",
                                  args.beta / n)
    _write_lines(args.out, ["n,bound"] + ["%d,%.9g" % row for row in
                                          zip(ns.tolist(), rho.tolist())])
    return EXIT_OK


# name: the keys it takes, in the argument order of the inversion function
# of that name; kl is binary_kl, and cramer takes the --family
_COMPARATOR_KEYS = {"kl": (), "cramer": (), "catoni": ("gamma",),
                    "scaled_diff": ("t",), "poisson_diff": ("t",),
                    "laplace_diff": ("t", "b"), "gaussian_diff": ("t", "sigma2")}


def _parse_comparator(text, family):
    head, values = fam.parse_spec(text, _COMPARATOR_KEYS, "comparator")
    if head in ("kl", "cramer"):
        return inv.binary_kl() if head == "kl" else inv.cramer_of(family)
    return getattr(inv, head)(*values)


def cmd_upsilon(args):
    family = fam.parse_family(args.family)
    comp = _parse_comparator(args.comparator, family)
    est = ups.compute_upsilon(comp, family, args.n, seed=args.seed,
                              samples=args.samples)
    record = {"mode": est.mode, "ln_upsilon": est.value, "r_star": est.r_star,
              "ci": est.ci, "tail_error": est.tail_error,
              "r_at_cap": est.r_at_cap, "divergent_suspect": est.divergent_suspect}
    _write_lines(args.out, [json.dumps(record)])
    if est.r_at_cap:
        # the sup over r may lie past the grid, or be infinite
        print(f"upsilon: best r is the grid's last point r*={est.r_star:g}; "
              "ln_upsilon is only a lower bound", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_verify(args):
    family = fam.parse_family(args.family)
    if args.m < 2:
        raise ValueError(f"--m needs at least 2 hypotheses, got {args.m}")
    problem = ver.random_problem(family, args.m, args.c, args.n, args.trials,
                                 args.seed, 900001)
    records, summary = ver.run_trials(problem, args.bound, args.delta)
    lines = [json.dumps(dataclasses.asdict(r)) for r in records]
    lines.append(json.dumps({"summary": summary}))
    _write_lines(args.out, lines)
    verdict = "PASS" if summary["cp95_high"] <= args.delta else "FAIL"
    if summary["flag"] == "reference_only":
        verdict = "REFERENCE"
    print(f"verify kind={args.bound} family={args.family} trials={summary['trials']} "
          f"violations={summary['violations']} rate={_fmt(summary['rate'])} "
          f"cp95_high={_fmt(summary['cp95_high'])} delta={_fmt(args.delta)} {verdict}")
    return EXIT_CHECK if verdict == "FAIL" else EXIT_OK


def _conjugate_suite(families):
    """Worst relative error of the numeric conjugate against the closed
    Cramer function over each family's grid (its law's check_grid), one
    call of each per p."""
    errs = []
    for family in families:
        grid = family.law.check_grid
        for p in grid.tolist():
            closed = family.cramer(grid, p)
            try:
                num = conjugate.family_conjugate(family, grid, p).value
            except conjugate.ConjugateDivergent:    # an infinite error
                errs.append(math.inf)
                continue
            with np.errstate(invalid="ignore"):     # inf - inf: a NaN error
                errs.append(np.max(np.abs(num - closed)
                                   / np.maximum(1.0, np.abs(closed))))
    return float(np.max(errs))   # NaN if any error is NaN


def cmd_conjugate_check(args):
    family = fam.parse_family(args.family)
    err = _conjugate_suite([family])
    ok = err <= _CHECK_TOL
    print(f"conjugate-check family={args.family} max_err={err:.3g} "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK


_DEFAULT_CHECK_FAMILIES = ("bernoulli", "gaussian:sigma2=1", "poisson",
                           "gamma:k=2", "laplace:b=1", "invgauss:lambda=1.5",
                           "negbin:r=3")


def cmd_selfcheck(args):
    n = 100
    bons = np.geomspace(1e-3, 2.0, 10)

    def worst_gap(kind, family, alphas, make_comp, param_range):
        # the paper's identity: the production kind, a kl or Cramer
        # inversion, equals the oracle's infimum over the parameter
        a, beta = np.meshgrid(alphas, bons * n, indexing="ij")
        gap = bounds.bound_values(kind, family, a, beta, n) - (
            inv.infimum_over_parameter(make_comp, a, inv.budget(beta, n),
                                       param_range).rho)
        return float(np.max(np.abs(gap)))

    errs = {
        "conjugate-vs-closed": _conjugate_suite(
            [fam.parse_family(s) for s in _DEFAULT_CHECK_FAMILIES]),
        "catoni-vs-kl": worst_gap("catoni_inf", fam.bernoulli(),
                                  np.linspace(0.02, 0.9, 10),
                                  lambda m: inv.catoni(-m), (1e-3, 50.0)),
        "laplace-diff-vs-cramer": worst_gap(
            "laplace_diff_inf", fam.laplace(1.0), np.linspace(0.0, 2.0, 10),
            lambda t: inv.laplace_diff(t, 1.0), (1e-8, 1.0 - 1e-12)),
    }
    for name, err in errs.items():
        print(f"selfcheck {name} max_err={err:.3g} "
              f"{'PASS' if err <= _CHECK_TOL else 'FAIL'}")
    return EXIT_OK if all(e <= _CHECK_TOL for e in errs.values()) else EXIT_CHECK


# -- parser -------------------------------------------------------------------

# the flags shared by the subcommands: every one takes the first, the
# writers the first two and the seeded the three
_SHARED_FLAGS = (
    ("--config", {"default": None,
                  "help": "key=value file merged under flags (flags win)"}),
    ("--out", {"default": None, "help": "output path (default stdout)"}),
    ("--seed", {"type": int, "default": 0}),
)
_COMMON, _WRITES, _SEEDED = 1, 2, 3


def build_parser(command=None):
    """The cgfbounds parser.  Every subcommand is registered with its help,
    so --help and an invalid choice read the same whatever command is;
    given a subcommand name, only that subcommand gets its arguments."""
    parser = argparse.ArgumentParser(prog="cgfbounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, shared, help, func):
        # the subparser to give its own arguments, or None if it stays bare
        full = command in (None, name)
        p = sub.add_parser(name, help=help, add_help=full)
        p.set_defaults(func=func)
        if not full:
            return None
        for flag, kwargs in _SHARED_FLAGS[:shared]:
            p.add_argument(flag, **kwargs)
        return p

    if p := add("bound", _COMMON,
                "single bound query, prints rho/budget/status", cmd_bound):
        p.add_argument("--family", required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--correction", default=None,
                       help="one|xi|2eceil|chernoff=<ln_upsilon> (default xi); "
                       "needs --delta")
        p.add_argument("--u", type=float, default=None,
                       help="grid size of --correction 2eceil (default n)")

    if p := add("sweep", _WRITES, "bound-comparison grid, CSV output",
                cmd_sweep):
        p.add_argument("--family", required=True)
        p.add_argument("--kinds", required=True,
                       help="comma list of bound kinds; diff = first - last")
        p.add_argument("--alpha-range", required=True, metavar="LO:HI:STEPS")
        p.add_argument("--bon-range", required=True,
                       metavar="LO:HI:STEPS[:SCALE]",
                       help="beta/n range, scale linear|log")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--sigma2", type=float, default=None)
        p.add_argument("--b", type=float, default=None)
        p.add_argument("--clamp", action="store_true",
                       help="clamp each bound at 1 before differencing")

    if p := add("ndep", _WRITES, "average bound vs n at fixed alpha, beta; "
                "every n in one inversion", cmd_ndep):
        p.add_argument("--family", required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--nmin", type=int, required=True)
        p.add_argument("--nmax", type=int, required=True)
        p.add_argument("--points", type=int, default=25)

    if p := add("upsilon", _SEEDED,
                "moment quantity for a comparator/family pair", cmd_upsilon):
        p.add_argument("--comparator", required=True,
                       help="kl|cramer|catoni:gamma=|scaled_diff:t=|"
                            "poisson_diff:t=|laplace_diff:t=,b=|"
                            "gaussian_diff:t=,sigma2=")
        p.add_argument("--family", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--samples", type=int, default=10**5)

    if p := add("verify", _SEEDED, "Monte-Carlo violation-rate check",
                cmd_verify):
        p.add_argument("--family", default="bernoulli")
        p.add_argument("--bound", default="mls")
        p.add_argument("--delta", type=float, default=0.05)
        p.add_argument("--trials", type=int, default=2000)
        p.add_argument("--m", type=int, default=10)
        p.add_argument("--n", type=int, default=50)
        p.add_argument("--c", type=float, default=1.0)

    if p := add("conjugate-check", _COMMON,
                "numeric conjugate vs closed Cramer function",
                cmd_conjugate_check):
        p.add_argument("--family", required=True)

    add("selfcheck", _COMMON, "identity suites; exit 0 only if all pass",
        cmd_selfcheck)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _merge_config(argv)
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    # a first token that is no option is the subcommand (or an invalid
    # choice): only it gets its arguments built
    command = argv[0] if argv and not argv[0].startswith("-") else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (inv.NoFiniteBound, bounds.CorrectionDivergent) as e:
        print(f"no finite bound: {e}", file=sys.stderr)
        return EXIT_NO_FINITE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
