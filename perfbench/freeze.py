"""Regenerate the frozen references in perfbench/refs from the package.

    python3 perfbench/freeze.py

The references pin the package's outputs at the commit that froze them;
the benchmark counts every later deviation as a failed check.  Re-freeze
only in a change that means to alter those outputs, and say why.
Seeds 0-31 get seed-specific references (suite violation counts and
Monte-Carlo Upsilon values); other seeds get the seed-independent checks.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFS = HERE / "refs"
SEEDS = range(32)


def _csv(out, label):
    rc, text = out
    assert rc == 0, f"{label} exited {rc}"
    return text


def main():
    from cgfbounds import upsilon as ups
    from cgfbounds import verify

    REFS.mkdir(exist_ok=True)
    figs = workloads.run_body("figures", workloads.build_inputs("figures", 0), 0)
    for name, _ in workloads.FIGURES:
        (REFS / f"{name}.csv").write_text(_csv(figs[name], name))

    catalog = workloads.upsilon_catalog()
    mom = workloads.run_body("moments", catalog, 0)
    (REFS / "moments_sweep.csv").write_text(_csv(mom["sweep"], "moments sweep"))
    fixed, mc = {}, {}
    for name, comp, family, n in catalog:
        rec = mom["catalog"][name]
        assert "error" not in rec, rec
        if rec["mode"] != "monte_carlo":
            fixed[name] = rec
            continue
        # the one Monte-Carlo entry is scaled_diff(t) over laplace(b), whose
        # ln Upsilon is -n ln(1 - b^2 t^2) at every r
        t, b = comp.params["t"], family.nuisance
        by_seed = {str(s): ups.compute_upsilon(comp, family, n, seed=s).value
                   for s in SEEDS}
        near = -n * math.log1p(-(b * t) ** 2)
        worst = max(abs(v - near) for v in by_seed.values())
        mc[name] = {"by_seed": by_seed, "near": near,
                    "within": round(3.0 * worst, 2)}
    (REFS / "moments.json").write_text(json.dumps(
        {"catalog": fixed, "monte_carlo": mc}, indent=1) + "\n")

    violations = {}
    for s in SEEDS:
        suite = verify.default_suite(workloads.SUITE_DELTA,
                                     workloads.SUITE_TRIALS, (s,))
        violations[str(s)] = [x["violations"] for x in suite]
    (REFS / "checks.json").write_text(json.dumps(
        {"delta": workloads.SUITE_DELTA, "trials": workloads.SUITE_TRIALS,
         "violations": violations}) + "\n")
    print(f"froze references for seeds {SEEDS.start}-{SEEDS.stop - 1} in {REFS}")


if __name__ == "__main__":
    main()
