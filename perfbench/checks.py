"""Compare workload outputs with the references frozen in perfbench/refs.

Standard library only, so the parent process can run the self-test without
importing the package.  Every check returns (attempted, failures) where
failures is a list of short messages; error_rate = len(failures)/attempted.

Tolerances are no looser than the ones the repository's tests use for the
same quantity: 1e-8 relative on bound values and 1e-8 absolute on the
sweep's diff column (tests/test_cli.py), 1e-9 absolute on exact Upsilon
values (tests/test_upsilon.py), 1e-6 relative on quadrature and series
values, and bit-level agreement (1e-9 relative) for Monte-Carlo values at a
frozen seed, which are a deterministic function of the seed.
"""

import json
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

CELL_REL = 1e-8
DIFF_ABS = 1e-8
UPSILON_TOL = {"exact": (0.0, 1e-9), "truncated": (1e-6, 1e-8),
               "monte_carlo": (1e-9, 1e-12), "divergent": (0.0, 0.0)}


def load(name):
    return json.loads((REFS / name).read_text())


def load_csv(name):
    return (REFS / name).read_text()


def _close(got, want, rel, abs_):
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= max(rel * abs(want), abs_)


def compare_csv(label, got, want):
    """Cell-by-cell comparison of two CSV texts with identical NaN positions.

    Each numeric cell is one attempted check; a header or shape mismatch
    counts as one failed check for the whole file.
    """
    g_rows = [r.split(",") for r in got.strip().splitlines()]
    w_rows = [r.split(",") for r in want.strip().splitlines()]
    cells = sum(len(r) for r in w_rows[1:]) or 1
    if not g_rows or g_rows[0] != w_rows[0] or \
            [len(r) for r in g_rows] != [len(r) for r in w_rows]:
        return cells, [f"{label}: header or shape differs from the reference"]
    header = w_rows[0]
    failures = []
    for i, (gr, wr) in enumerate(zip(g_rows[1:], w_rows[1:]), start=2):
        for col, g, w in zip(header, gr, wr):
            rel, abs_ = (0.0, DIFF_ABS) if col == "diff" else (CELL_REL, 1e-300)
            try:
                ok = _close(float(g), float(w), rel, abs_)
            except ValueError:
                ok = False
            if not ok:
                failures.append(f"{label} line {i} {col}: {g} != {w}")
    return cells, failures


def compare_upsilon(label, got, want, value_checked=True):
    """got/want are {"mode", "value"} records; mode must match exactly.

    With value_checked=False (a Monte-Carlo estimate at a seed that has no
    frozen reference) only the mode is compared here.
    """
    if got["mode"] != want["mode"]:
        return 1, [f"{label}: mode {got['mode']} != {want['mode']}"]
    if not value_checked:
        return 1, []
    rel, abs_ = UPSILON_TOL[want["mode"]]
    if not _close(float(got["value"]), float(want["value"]), rel, abs_):
        return 1, [f"{label}: ln Upsilon {got['value']!r} != {want['value']!r}"]
    return 1, []


def compare_suite(got, want_violations):
    """Suite summaries: cp95_high <= delta for every certified kind, and,
    when a frozen reference exists for the seed, identical violation counts.
    """
    attempted, failures = 0, []
    if want_violations is not None:
        attempted += 1
        if len(got) != len(want_violations):
            failures.append(f"suite: {len(got)} summaries, "
                            f"reference has {len(want_violations)}")
    for i, s in enumerate(got):
        label = f"suite[{i}] {s['family']} {s['kind']} m={s['m']} n={s['n']} c={s['c']}"
        attempted += 1
        if s["flag"] is None and not s["cp95_high"] <= s["delta"]:
            failures.append(f"{label}: cp95_high {s['cp95_high']} > delta")
        if want_violations is not None and i < len(want_violations):
            attempted += 1
            if s["violations"] != want_violations[i]:
                failures.append(f"{label}: {s['violations']} violations, "
                                f"reference {want_violations[i]}")
    return attempted, failures


def compare_selfcheck(rc, text):
    """Every selfcheck line must say PASS and the exit code must be 0."""
    lines = [ln for ln in text.splitlines() if ln.startswith("selfcheck ")]
    failures = [ln for ln in lines if not ln.endswith(" PASS")]
    if rc != 0:
        failures.append(f"selfcheck exit code {rc}")
    if not lines:
        failures.append("selfcheck printed no check lines")
    return len(lines) + 1, failures


def selftest():
    """Perturbed outputs must count as failures; returns a list of problems."""
    problems = []
    want = load_csv("fig1a.csv")
    rows = want.strip().splitlines()
    cells = rows[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    moved = "\n".join([rows[0], ",".join(cells)] + rows[2:])
    _, f = compare_csv("fig1a", want, want)
    if f:
        problems.append("the reference CSV does not match itself")
    _, f = compare_csv("fig1a", moved, want)
    if len(f) != 1:
        problems.append(f"a CSV cell moved by 1e-6 gave {len(f)} failures, not 1")

    ref = load("checks.json")
    seed, counts = next(iter(ref["violations"].items()))
    summaries = [{"family": "f", "kind": "k", "m": 2, "n": 10, "c": 0.0,
                  "flag": None, "cp95_high": 0.0, "delta": 0.05,
                  "violations": v} for v in counts]
    _, f = compare_suite(summaries, counts)
    if f:
        problems.append(f"the suite reference for seed {seed} does not match itself")
    summaries[0] = dict(summaries[0], violations=counts[0] + 1)
    _, f = compare_suite(summaries, counts)
    if len(f) != 1:
        problems.append(f"a violation count off by one gave {len(f)} failures, not 1")

    up = load("moments.json")["catalog"]
    name, rec = next((k, v) for k, v in up.items() if v["mode"] == "exact")
    _, f = compare_upsilon(name, dict(rec, value=rec["value"] + 1e-6), rec)
    if len(f) != 1:
        problems.append("an exact Upsilon moved by 1e-6 was not caught")
    return problems


if __name__ == "__main__":
    found = selftest()
    for p in found:
        print(p)
    print("checks self-test", "FAIL" if found else "PASS")
    raise SystemExit(1 if found else 0)
