"""One benchmark child process: set up, run one workload once, check it.

    PYTHONPATH=src python3 perfbench/workloads.py --workload figures \
        --seed 0 --mode run --spawned-at <time.monotonic() of the parent>

Modes: "setup" stops after the import and input building; "run" times the
workload body untraced; "trace" installs the layer trace first.  The last
line of stdout is one JSON object.  The body runs exactly once per process:
verify._simulate is an lru_cache, so an in-process repeat would time cache
hits that users never get.

Workloads
  figures  the four committed figure configs through cli.main (what users
           run to reproduce the paper); scalar inversion dominates.
  moments  an 11-entry compute_upsilon catalog over all four routes plus a
           4x4 Chernoff sweep that recomputes one Bernoulli Upsilon per cell.
  checks   verify.default_suite for one seed, then cli.main selfcheck; the
           vectorized inversion, conjugate and rng layers.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import checks
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FIGURES = (("fig1a", "sweep"), ("fig1b", "sweep"), ("fig3a", "ndep"),
           ("fig3b", "ndep"))
MOMENTS_SWEEP = ("sweep", "--family", "bernoulli",
                 "--kinds", "pac_cramer_chernoff,pac_cramer_xi",
                 "--alpha-range", "0.05:0.5:4", "--bon-range", "0.01:1:4:log",
                 "--n", "100", "--delta", "0.05", "--out", "-")
SUITE_TRIALS = 2000
SUITE_DELTA = 0.05
CGF_OFFSET_T = -0.5


def _cli(argv):
    """cli.main with stdout captured; returns (exit code, text)."""
    from cgfbounds import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def upsilon_catalog():
    """(name, comparator, family, n): 11 keys over all four Upsilon routes.

    Uses inversion.binary_kl(), the comparator; cgfbounds.binary_kl is the
    two-argument function families.binary_kl.
    """
    from cgfbounds import families as fam
    from cgfbounds import inversion as inv

    def cgf_offset(family):
        # t q - K_p(t) over its own family integrates to one: ln Upsilon = 0
        return inv.custom(lambda q, p: CGF_OFFSET_T * q - family.cgf(p, CGF_OFFSET_T),
                          (0.0, math.inf), "cgf_offset", {"t": CGF_OFFSET_T})

    bern, gam, ig = fam.bernoulli(), fam.gamma(2.0), fam.invgauss(1.5)
    # poisson_diff over poisson is short-circuited to 0 by compute_upsilon;
    # relabelled, the same comparator takes the series route
    offset = dataclasses.replace(inv.poisson_diff(0.7), form="offset_diff")
    return [
        ("kl_bernoulli_n20", inv.binary_kl(), bern, 20),
        ("kl_bernoulli_n50", inv.binary_kl(), bern, 50),
        ("kl_bernoulli_n100", inv.binary_kl(), bern, 100),
        ("kl_bernoulli_n200", inv.binary_kl(), bern, 200),
        ("scaled_diff_bernoulli_n50", inv.scaled_diff(0.5), bern, 50),
        ("offset_diff_poisson_n20", offset, fam.poisson(), 20),
        ("gaussian_diff_mismatch_n20", inv.gaussian_diff(0.5, 2.0),
         fam.gaussian(1.0), 20),
        ("cgf_offset_gamma_n20", cgf_offset(gam), gam, 20),
        ("cgf_offset_invgauss_n20", cgf_offset(ig), ig, 20),
        ("cramer_gamma_n20", inv.cramer_of(gam), gam, 20),
        ("scaled_diff_laplace_n20", inv.scaled_diff(0.3), fam.laplace(1.0), 20),
    ]


def build_inputs(workload, seed):
    if workload == "figures":
        return [(name, (sub, "--config", str(ROOT / "figs" / f"{name}.cfg"),
                        "--out", "-")) for name, sub in FIGURES]
    if workload == "moments":
        return upsilon_catalog()
    if workload == "checks":
        return None
    raise ValueError(f"unknown workload {workload!r}")


def _guard(fn, *args):
    """Run one step; an unexpected exception becomes an error record."""
    try:
        return fn(*args)
    except Exception as e:  # counted as a failed check, reported by name
        return {"error": f"{type(e).__name__}: {e}"}


def run_body(workload, inputs, seed):
    """The timed region.  Returns the outputs the checks look at."""
    if workload == "figures":
        return {name: _guard(_cli, argv) for name, argv in inputs}
    if workload == "moments":
        from cgfbounds import upsilon as ups

        def one(comp, family, n):
            est = ups.compute_upsilon(comp, family, n, seed=seed)
            return {"mode": est.mode, "value": est.value}

        catalog = {name: _guard(one, comp, family, n)
                   for name, comp, family, n in inputs}
        return {"catalog": catalog, "sweep": _guard(_cli, MOMENTS_SWEEP)}
    if workload == "checks":
        from cgfbounds import verify
        suite = _guard(verify.default_suite, SUITE_DELTA, SUITE_TRIALS, (seed,))
        return {"suite": suite, "selfcheck": _guard(_cli, ("selfcheck",))}
    raise ValueError(f"unknown workload {workload!r}")


def _error(out):
    return out.get("error") if isinstance(out, dict) else None


def _check_cli(label, out, want_csv):
    if _error(out):
        return 1, [f"{label}: {_error(out)}"]
    rc, text = out
    attempted, failures = checks.compare_csv(label, text, want_csv)
    if rc != 0:
        failures.append(f"{label}: exit code {rc}")
    return attempted + 1, failures


def check_outputs(workload, seed, outputs):
    """(attempted, failures) against the frozen references in refs/."""
    attempted, failures = 0, []

    def add(res):
        nonlocal attempted
        attempted += res[0]
        failures.extend(res[1])

    if workload == "figures":
        for name, _ in FIGURES:
            add(_check_cli(name, outputs[name], checks.load_csv(f"{name}.csv")))
    elif workload == "moments":
        ref = checks.load("moments.json")
        for name, got in outputs["catalog"].items():
            if _error(got):
                add((1, [f"{name}: {_error(got)}"]))
            elif name in ref["monte_carlo"]:
                mc = ref["monte_carlo"][name]
                frozen = mc["by_seed"].get(str(seed))
                want = {"mode": "monte_carlo", "value": frozen}
                add(checks.compare_upsilon(name, got, want, frozen is not None))
                # seed-independent: close to the closed-form value
                attempted += 1
                if not abs(got["value"] - mc["near"]) <= mc["within"]:
                    failures.append(f"{name}: {got['value']} not within "
                                    f"{mc['within']} of {mc['near']}")
            else:
                add(checks.compare_upsilon(name, got, ref["catalog"][name]))
        add(_check_cli("moments_sweep", outputs["sweep"],
                       checks.load_csv("moments_sweep.csv")))
    elif workload == "checks":
        ref = checks.load("checks.json")
        suite = outputs["suite"]
        if _error(suite):
            add((1, [f"default_suite: {_error(suite)}"]))
        else:
            add(checks.compare_suite(suite, ref["violations"].get(str(seed))))
        sc = outputs["selfcheck"]
        if _error(sc):
            add((1, [f"selfcheck: {_error(sc)}"]))
        else:
            add(checks.compare_selfcheck(*sc))
    return attempted, failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    args = ap.parse_args(argv)

    import cgfbounds  # noqa: F401  (the imports are part of set-up)
    import cgfbounds.cli  # noqa: F401
    inputs = build_inputs(args.workload, args.seed)
    # CLOCK_MONOTONIC is system-wide, so setup_s includes interpreter
    # start-up; so does the process CPU clock, which starts at the fork
    setup = {"setup_s": time.monotonic() - args.spawned_at,
             "setup_cpu_s": time.process_time()}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    t0, c0 = time.perf_counter(), time.process_time()
    outputs = run_body(args.workload, inputs, args.seed)
    wall_s = time.perf_counter() - t0

    result = dict(setup, wall_s=wall_s, cpu_s=time.process_time() - c0)
    if tracer is not None:
        result["layers"] = layertrace.layer_metrics(tracer)
    attempted, failures = check_outputs(args.workload, args.seed, outputs)
    result.update(attempted=attempted, failed=len(failures),
                  failures=failures[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
