import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cgfbounds import bounds, conjugate, families as fam
from cgfbounds.cli import main


def run_cli(*args, flags=()):
    proc = subprocess.run([sys.executable, *flags, "-m", "cgfbounds.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_import_leaves_out_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cgfbounds, cgfbounds.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


NO_SCIPY_RUNS = [
    ["selfcheck"],
    ["sweep", "--config", "figs/fig1a.cfg", "--out", "-"],
    ["upsilon", "--comparator", "kl", "--family", "bernoulli", "--n", "20"],
    ["upsilon", "--comparator", "scaled_diff:t=0.05", "--family", "poisson",
     "--n", "20"],
    ["upsilon", "--comparator", "scaled_diff:t=0.3", "--family", "gamma:k=2",
     "--n", "20"],
    ["upsilon", "--comparator", "scaled_diff:t=0.3", "--family", "laplace:b=1",
     "--n", "20", "--samples", "200"],
    ["verify", "--family", "bernoulli", "--trials", "200", "--m", "3",
     "--n", "10"],
]


def test_commands_run_with_scipy_unimportable():
    # sys.modules['scipy'] = None makes every scipy import fail in the child
    script = ("import json, sys\n"
              "sys.modules['scipy'] = None\n"
              "from cgfbounds.cli import main\n"
              "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps(NO_SCIPY_RUNS)],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert json.loads(lines[-1]) == [0] * len(NO_SCIPY_RUNS)
    modes = [json.loads(line)["mode"] for line in lines
             if line.startswith('{"mode"')]
    assert modes == ["exact", "truncated", "truncated", "monte_carlo"]


def test_bound_matches_library():
    code, out, _ = run_cli("bound", "--family", "poisson", "--alpha", "1",
                           "--beta", "100", "--n", "100", "--delta", "0.05",
                           "--correction", "xi")
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    want = bounds.pac_bound(fam.poisson(), 1.0, 100.0, 100, 0.05, "xi")
    assert float(fields["rho"]) == pytest.approx(want.rho, rel=1e-8)
    assert fields["status"] == "converged"


def test_bound_zero_beta_returns_alpha():
    code, out, _ = run_cli("bound", "--family", "bernoulli", "--alpha", "0.2",
                           "--beta", "0", "--n", "10")
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert float(fields["rho"]) == 0.2


def test_bound_reference_flag_printed():
    code, out, _ = run_cli("bound", "--family", "bernoulli", "--alpha", "0.2",
                           "--beta", "1", "--n", "10", "--delta", "0.05",
                           "--correction", "one")
    assert code == 0 and "flag=reference_only" in out


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "s.csv"
    code, _, _ = run_cli("sweep", "--family", "bernoulli",
                         "--kinds", "gaussian_diff_inf,average_cramer",
                         "--alpha-range", "0.1:0.9:3",
                         "--bon-range", "0.01:1:3:log", "--n", "50",
                         "--sigma2", "0.25", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,beta_over_n,gaussian_diff_inf,average_cramer,diff"
    assert len(lines) == 10
    # row-major, alpha varies slowest
    alphas = [float(r.split(",")[0]) for r in lines[1:]]
    assert alphas == sorted(alphas)
    for row in lines[1:]:
        a, bon, ga, av, diff = (float(x) for x in row.split(","))
        assert diff == pytest.approx(ga - av, abs=1e-8)
        got = bounds.evaluate_kind("average_cramer", fam.bernoulli(),
                                   a, bon * 50, 50).rho
        # 9 significant digits round-trip
        assert av == pytest.approx(got, rel=1e-8)


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name,command", [
    ("fig1a", "sweep"), ("fig1b", "sweep"), ("fig3a", "ndep"),
    ("fig3b", "ndep")])
def test_figures_match_frozen_references(tmp_path, name, command):
    # cell by cell against perfbench/refs, which is only read here
    out = tmp_path / f"{name}.csv"
    assert main([command, "--config", str(ROOT / "figs" / f"{name}.cfg"),
                 "--out", str(out)]) == 0
    got = [r.split(",") for r in out.read_text().strip().split("\n")]
    want = [r.split(",") for r in
            (ROOT / "perfbench" / "refs" / f"{name}.csv").read_text()
            .strip().split("\n")]
    assert got[0] == want[0] and len(got) == len(want)
    for g_row, w_row in zip(got[1:], want[1:]):
        for col, g, w in zip(want[0], map(float, g_row), map(float, w_row)):
            if math.isnan(w):
                assert math.isnan(g), (col, g_row)
            elif col == "diff":
                assert g == pytest.approx(w, rel=0, abs=1e-8), (col, g_row)
            else:
                assert g == pytest.approx(w, rel=1e-8, abs=1e-300), (col, g_row)


def test_sweep_clamp_keeps_divergent_cells_nan(tmp_path):
    # chernoff over poisson diverges; clamping must not turn that into 1
    out = tmp_path / "c.csv"
    code, _, _ = run_cli("sweep", "--family", "poisson",
                         "--kinds", "pac_cramer_chernoff,average_cramer",
                         "--alpha-range", "0.5:1:2", "--bon-range", "0.1:0.2:2",
                         "--n", "20", "--delta", "0.05", "--clamp",
                         "--out", str(out))
    assert code == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 4
    for row in rows:
        assert math.isnan(float(row[2])) and math.isnan(float(row[4]))
        assert 0.0 < float(row[3]) <= 1.0


def test_sweep_laplace_chernoff_is_all_nan():
    # refused by proof: the laplace Cramer-comparator Upsilon is infinite
    code, out, _ = run_cli("sweep", "--family", "laplace:b=1",
                           "--kinds", "pac_cramer_chernoff",
                           "--alpha-range", "0.1:1:3", "--bon-range", "0.01:1:3",
                           "--n", "100", "--delta", "0.05", "--out", "-")
    assert code == 0
    rows = [r.split(",") for r in out.strip().split("\n")[1:]]
    assert len(rows) == 9
    assert all(math.isnan(float(row[2])) for row in rows)


def test_config_merge_flags_win(tmp_path):
    cfg = tmp_path / "fig.cfg"
    cfg.write_text("family=bernoulli\nkinds=gaussian_diff_inf,average_cramer\n"
                   "alpha-range=0.1:0.9:3\nbon-range=0.01:1:3:log\n"
                   "n=50\nsigma2=0.25\nclamp=true\n")
    base = tmp_path / "a.csv"
    code, _, _ = run_cli("sweep", "--config", str(cfg), "--out", str(base))
    assert code == 0
    assert len(base.read_text().strip().split("\n")) == 10
    over = tmp_path / "b.csv"
    code, _, _ = run_cli("sweep", "--config", str(cfg),
                         "--alpha-range", "0.1:0.9:5", "--out", str(over))
    assert code == 0
    assert len(over.read_text().strip().split("\n")) == 16


def test_ndep_frozen_gamma_values(tmp_path):
    out = tmp_path / "n.csv"
    code, _, _ = run_cli("ndep", "--family", "gamma:k=5", "--alpha", "1",
                         "--beta", "1000", "--nmin", "100", "--nmax", "100000",
                         "--points", "4", "--out", str(out))
    assert code == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    got = {int(n): float(v) for n, v in rows}
    # 9 significant digits in the CSV; compare at that resolution
    assert got[100] == pytest.approx(19.058837458, rel=1e-8)
    assert got[100000] == pytest.approx(1.066006376, rel=1e-8)


def test_ndep_zero_beta_constant(tmp_path):
    out = tmp_path / "z.csv"
    code, _, _ = run_cli("ndep", "--family", "laplace:b=1", "--alpha", "0.7",
                         "--beta", "0", "--nmin", "10", "--nmax", "1000",
                         "--points", "5", "--out", str(out))
    assert code == 0
    vals = [float(r.split(",")[1]) for r in out.read_text().strip().split("\n")[1:]]
    assert all(v == 0.7 for v in vals)


def test_upsilon_json_record():
    code, out, _ = run_cli("upsilon", "--comparator", "kl",
                           "--family", "bernoulli", "--n", "1")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) >= {"mode", "ln_upsilon", "r_star", "ci", "tail_error"}
    assert rec["mode"] == "exact"
    assert rec["ln_upsilon"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_upsilon_divergent_reported():
    code, out, _ = run_cli("upsilon", "--comparator", "cramer",
                           "--family", "poisson", "--n", "10")
    assert code == 0
    rec = json.loads(out)
    assert rec["mode"] == "divergent" and rec["ln_upsilon"] == math.inf


def test_verify_stream_and_pass(tmp_path):
    out = tmp_path / "v.jsonl"
    code, stdout, _ = run_cli("verify", "--family", "bernoulli", "--bound",
                              "mls", "--trials", "300", "--m", "4", "--n",
                              "20", "--out", str(out))
    assert code == 0
    assert "PASS" in stdout
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 301
    first, last = json.loads(lines[0]), json.loads(lines[-1])
    assert set(first) == {"train_loss", "pop_loss", "kl", "bound_value",
                          "violated"}
    assert "summary" in last
    assert last["summary"]["violations"] == sum(
        json.loads(l)["violated"] for l in lines[:-1])


def test_verify_reference_line():
    code, stdout, _ = run_cli("verify", "--bound", "catoni_inf",
                              "--trials", "50", "--m", "3", "--n", "10")
    assert code == 0 and "REFERENCE" in stdout


def test_conjugate_check_all_families():
    for spec in ("bernoulli", "gamma:k=2", "invgauss:lambda=1.5"):
        code, stdout, _ = run_cli("conjugate-check", "--family", spec)
        assert code == 0 and "PASS" in stdout


def test_selfcheck_passes():
    code, stdout, _ = run_cli("selfcheck")
    assert code == 0
    assert stdout.count("PASS") == 3


def test_nan_conjugate_fails_the_checks(monkeypatch, capsys):
    # max() drops a NaN error; the checks must report it as a failure
    monkeypatch.setattr(conjugate, "family_conjugate",
                        lambda family, q, p: conjugate.ConjugateResult(
                            math.nan, 0.0))
    assert main(["conjugate-check", "--family", "bernoulli"]) == 5
    assert "max_err=nan FAIL" in capsys.readouterr().out
    assert main(["selfcheck"]) == 5
    assert "conjugate-vs-closed max_err=nan FAIL" in capsys.readouterr().out


def test_exit_codes_usage_and_io(tmp_path):
    code, _, err = run_cli("bound", "--family", "nosuch", "--alpha", "0.2",
                           "--beta", "1", "--n", "10")
    assert code == 2
    code, _, _ = run_cli("sweep", "--family", "bernoulli")
    assert code == 2
    code, _, _ = run_cli("ndep", "--family", "gamma:k=5", "--alpha", "1",
                         "--beta", "1", "--nmin", "10", "--nmax", "100",
                         "--out", str(tmp_path / "no" / "dir" / "x.csv"))
    assert code == 4


BOUND = ("bound", "--family", "bernoulli", "--alpha", "0.2", "--beta", "1",
         "--n", "10")

NDEP = ("ndep", "--family", "poisson", "--alpha", "1", "--beta", "1",
        "--nmin", "1", "--nmax", "20")

UPSILON_MC = ("upsilon", "--comparator", "scaled_diff:t=0.3", "--family",
              "laplace:b=1", "--n", "5")

# each bad input, and the words its usage error must contain
USAGE_ERRORS = {
    "correction": (BOUND + ("--delta", "0.05", "--correction", "bogus"),
                   ["'bogus'", "xi", "2eceil", "chernoff="]),
    "comparator": (("upsilon", "--comparator", "bogus", "--family",
                    "bernoulli", "--n", "4"), ["'bogus'", "kl", "cramer"]),
    "range": (("sweep", "--family", "bernoulli", "--kinds", "average_cramer",
               "--alpha-range", "0.1:0.2", "--bon-range", "0.01:1:3",
               "--n", "50"), ["'0.1:0.2'", "lo:hi:steps"]),
    "sweep-kind": (("sweep", "--family", "bernoulli", "--kinds",
                    "average_cramer,samplewise_average", "--alpha-range",
                    "0.1:0.2:2", "--bon-range", "0.01:1:2", "--n", "50"),
                   ["unknown bound kind", "'samplewise_average'", "mls"]),
    "verify-family": (("verify", "--family", "gamma:k=2", "--trials", "10"),
                      ["gamma", "bernoulli", "gaussian", "poisson"]),
    "beta": (("bound", "--family", "bernoulli", "--alpha", "0.2", "--beta",
              "-1", "--n", "10"), ["beta", "-1"]),
    "delta": (BOUND + ("--delta", "1.5"), ["delta", "1.5"]),
    "n": (("bound", "--family", "bernoulli", "--alpha", "0.2", "--beta", "1",
           "--n", "0", "--delta", "0.05"), ["n must", "0"]),
    "upsilon-n": (("upsilon", "--comparator", "kl", "--family", "bernoulli",
                   "--n", "0"), ["n must be at least 1", "0"]),
    "upsilon-loss-range": (("upsilon", "--comparator", "kl", "--family",
                            "poisson", "--n", "3"),
                           ["binary_kl", "does not cover", "poisson"]),
    "verify-trials": (("verify", "--trials", "0"), ["trials", "0"]),
    "verify-m": (("verify", "--m", "1", "--trials", "10"),
                 ["at least 2 hypotheses", "1"]),
    "verify-m-zero": (("verify", "--m", "0", "--trials", "10"),
                      ["at least 2 hypotheses", "0"]),
    "verify-m-negative": (("verify", "--m", "-1", "--trials", "10"),
                          ["--m", "at least 2 hypotheses", "-1"]),
    "beta-inf": (("bound", "--family", "poisson", "--alpha", "0.7", "--beta",
                  "inf", "--n", "40"), ["beta must be finite", "inf"]),
    "verify-chernoff": (("verify", "--family", "gaussian:sigma2=1", "--bound",
                         "pac_cramer_chernoff", "--trials", "10"),
                        ["chernoff", "bernoulli", "gaussian"]),
    "upsilon-samples": (UPSILON_MC + ("--samples", "3"),
                        ["samples must be at least 4", "3"]),
    "upsilon-samples-negative": (UPSILON_MC + ("--samples", "-1"),
                                 ["samples must be at least 4", "-1"]),
    "ndep-nmin": (("ndep", "--family", "poisson", "--alpha", "1", "--beta",
                   "1", "--nmin", "0", "--nmax", "20"),
                  ["--nmin and --nmax must be at least 1", "0"]),
    "ndep-points": (NDEP + ("--points", "0"),
                    ["--points must be at least 1", "0"]),
    "ndep-points-negative": (NDEP + ("--points", "-1"),
                             ["--points must be at least 1", "-1"]),
    "correction-no-delta": (BOUND + ("--correction", "2eceil"),
                            ["--correction needs --delta"]),
    "u-no-delta": (BOUND + ("--u", "7"), ["--u needs --delta"]),
    "u-xi": (BOUND + ("--delta", "0.05", "--u", "7"),
             ["two_e_ceil", "xi", "u=7"]),
    "u-chernoff": (BOUND + ("--delta", "0.05", "--correction", "chernoff=1.0",
                            "--u", "7"), ["two_e_ceil", "chernoff", "u=7"]),
    "u-one": (BOUND + ("--delta", "0.05", "--correction", "one", "--u", "7"),
              ["--u needs --correction 2eceil", "one"]),
    "family-nan": (("bound", "--family", "gaussian:sigma2=nan", "--alpha",
                    "0.1", "--beta", "1", "--n", "10"),
                   ["gaussian needs sigma2 in (0, inf)", "nan"]),
    "family-inf": (("bound", "--family", "gamma:k=inf", "--alpha", "0.1",
                    "--beta", "1", "--n", "10"),
                   ["gamma needs k in (0, inf)", "inf"]),
    "gaussian-diff-nan": (("upsilon", "--comparator",
                           "gaussian_diff:t=0.5,sigma2=nan", "--family",
                           "gaussian:sigma2=1", "--n", "5"),
                          ["gaussian_diff", "sigma2", "nan"]),
}

# runs each USAGE_ERRORS case through main() and prints {case: [code, out, err]}
RUN_CASES = """
import contextlib, io, json, sys
from cgfbounds.cli import main
got = {}
for case, argv in json.loads(sys.argv[1]).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    got[case] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(got))
"""


@pytest.fixture(scope="module")
def usage_errors_optimized():
    # one python -O child for every case: -O strips asserts, so a check
    # that rests on one would let the bad input through
    cases = {case: list(args) for case, (args, _) in USAGE_ERRORS.items()}
    proc = subprocess.run([sys.executable, "-O", "-c", RUN_CASES,
                           json.dumps(cases)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_with_message(case, flags, capsys, request):
    args, words = USAGE_ERRORS[case]
    if flags:
        code, out, err = request.getfixturevalue("usage_errors_optimized")[case]
    else:
        code = main(list(args))
        out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    for word in words:
        assert word in err, (word, err)


def test_threads_flag_rejected():
    code, _, err = run_cli("ndep", "--family", "poisson", "--alpha", "1",
                           "--beta", "1", "--nmin", "10", "--nmax", "20",
                           "--threads", "2")
    assert code == 2 and "--threads" in err


@pytest.mark.parametrize("args", [
    BOUND + ("--out", "x.txt"),
    BOUND + ("--seed", "1"),
    ("conjugate-check", "--family", "bernoulli", "--out", "x.txt"),
    ("conjugate-check", "--family", "bernoulli", "--tol", "1e-3"),
    ("selfcheck", "--seed", "1"),
    NDEP + ("--seed", "1"),
    ("sweep", "--family", "bernoulli", "--kinds", "average_cramer",
     "--alpha-range", "0.1:0.2:2", "--bon-range", "0.01:1:2", "--n", "50",
     "--seed", "1"),
], ids=lambda args: f"{args[0]}{args[-2]}")
def test_flags_a_subcommand_ignores_are_rejected(args, tmp_path, capsys):
    # only sweep, ndep, upsilon and verify write --out; only upsilon and
    # verify draw from --seed
    out = tmp_path / "x.txt"
    with pytest.raises(SystemExit) as exc:
        main([str(out) if a == "x.txt" else a for a in args])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and args[-2] in err, err
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """(argv, shown output) of each `$ cgfbounds` README example with output."""
    lines = README.read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ cgfbounds ") and not line.endswith("\\"):
            shown = []
            for out in lines[i + 1:]:
                if not out or out.startswith(("$", "```")):
                    break
                shown.append(out)
            if shown:
                examples.append((line.split()[2:], "\n".join(shown)))
    return examples


def test_readme_cli_examples_match_output(capsys):
    examples = readme_cli_examples()
    assert [argv[0] for argv, _ in examples] == ["bound", "upsilon"]
    for argv, shown in examples:
        assert main(argv) == 0
        got = capsys.readouterr().out.strip()
        # "..." in the README elides the rest of a line, as in a doctest
        pattern = ".*".join(re.escape(part) for part in shown.split("..."))
        assert re.fullmatch(pattern, got, flags=re.S), (argv, got, shown)


def test_main_entry_in_process(capsys):
    assert main(["bound", "--family", "gaussian:sigma2=1", "--alpha", "0",
                 "--beta", "2", "--n", "100"]) == 0
    out = capsys.readouterr().out
    fields = dict(kv.split("=") for kv in out.split())
    assert float(fields["rho"]) == pytest.approx(0.2, rel=1e-7)
