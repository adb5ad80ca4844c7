import collections
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cgfbounds import bounds, cli, conjugate, families as fam, inversion as inv
from cgfbounds import verify
from cgfbounds.cli import _csv_rows, _fmt, main


def run_cli(*args):
    """(exit code, stdout, stderr) of main(args), run in this process; an
    argparse exit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_module_entry_point_exits_with_mains_code():
    # the one run of python -m cgfbounds.cli: its exit status is main's
    proc = subprocess.run([sys.executable, "-m", "cgfbounds.cli", "bound",
                           "--family", "nosuch", "--alpha", "0.2", "--beta",
                           "1", "--n", "10"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage error: ") and "nosuch" in proc.stderr


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
    # the series and quadrature runs end at the r grid's cap: exit 5
    assert json.loads(lines[-1]) == [0, 0, 0, 5, 5, 0, 0]
    modes = [json.loads(line)["mode"] for line in lines
             if line.startswith('{"mode"')]
    assert modes == ["exact", "truncated", "truncated", "monte_carlo"]


def test_bound_matches_library():
    code, out, _ = run_cli("bound", "--family", "poisson", "--alpha", "1",
                           "--beta", "100", "--n", "100", "--delta", "0.05",
                           "--correction", "xi")
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    want = bounds.evaluate_kind("pac_cramer_xi", fam.poisson(), 1.0, 100.0,
                                100, 0.05)
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
    # against perfbench/refs, which the tests only read: byte for byte but
    # fig1b, whose reference predates its closed form, cell by cell
    out = tmp_path / f"{name}.csv"
    ref = ROOT / "perfbench" / "refs" / f"{name}.csv"
    assert main([command, "--config", str(ROOT / "figs" / f"{name}.cfg"),
                 "--out", str(out)]) == 0
    if name != "fig1b":
        assert out.read_bytes() == ref.read_bytes()
    got = [r.split(",") for r in out.read_text().strip().split("\n")]
    want = [r.split(",") for r in ref.read_text().strip().split("\n")]
    if name == "fig1b":
        # the poisson difference infimum is the Cramer bound: every diff
        # cell is exactly 0, where the reference holds rounding noise
        assert {row[got[0].index("diff")] for row in got[1:]} == {"0"}
    assert got[0] == want[0] and len(got) == len(want)
    for g_row, w_row in zip(got[1:], want[1:]):
        for col, g, w in zip(want[0], map(float, g_row), map(float, w_row)):
            if math.isnan(w):
                assert math.isnan(g), (col, g_row)
            elif col == "diff":
                assert g == pytest.approx(w, rel=0, abs=1e-8), (col, g_row)
            else:
                assert g == pytest.approx(w, rel=1e-8, abs=1e-300), (col, g_row)


@pytest.mark.parametrize("name,kind", [("fig1a", "gaussian"),
                                       ("fig1b", "poisson")])
def test_figures_solve_closed_forms_without_bisecting(tmp_path, monkeypatch,
                                                      name, kind):
    # fig1a's gaussian_diff_inf and both fig1b kinds invert a Cramer
    # function with a closed-form inverse: the engine's first evaluation,
    # its three-point probe and the root's feasibility check, with a few
    # steps down at most, where bisection made 41 and 42 calls
    calls = collections.Counter()
    cramer = fam.BoundingFamily.cramer

    def counted(self, q, p):
        calls[self.kind] += 1
        return cramer(self, q, p)

    monkeypatch.setattr(fam.BoundingFamily, "cramer", counted)
    assert main(["sweep", "--config", str(ROOT / "figs" / f"{name}.cfg"),
                 "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert 0 < calls[kind] <= 8


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


# two alphas per family; each keeps a finite bound at n = 1 for beta <= 3
NDEP_ALPHAS = {
    "bernoulli": (0.1, 0.6),
    "gaussian:sigma2=1": (-0.5, 1.0),
    "poisson": (0.0, 1.0),
    "gamma:k=2": (0.5, 2.0),
    "laplace:b=1": (-1.0, 0.7),
    "invgauss:lambda=1.5": (0.1, 0.2),
    "negbin:r=3": (0.3, 2.0),
}


def ndep_by_loop(spec, alpha, beta, nmin, nmax, points):
    """The per-n average bound loop that ndep evaluated before: the oracle."""
    family = fam.parse_family(spec)
    ns = np.geomspace(nmin, nmax, points)
    ns = list(dict.fromkeys(int(round(x)) for x in ns))
    rhos = [bounds.evaluate_kind("average_cramer", family, alpha, beta, n).rho
            for n in ns]
    lines = ["n,bound"] + [f"{n},{_fmt(rho)}" for n, rho in zip(ns, rhos)]
    return ns, rhos, "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", sorted(NDEP_ALPHAS))
def test_ndep_equals_per_n_loop(spec, tmp_path):
    # 60 points over 1..40 round to many duplicate n; beta = 0 gives alpha
    for alpha in NDEP_ALPHAS[spec]:
        for beta in (0.0, 0.5, 3.0):
            ns, rhos, text = ndep_by_loop(spec, alpha, beta, 1, 40, 60)
            out = tmp_path / "n.csv"
            assert main(["ndep", "--family", spec, "--alpha", str(alpha),
                         "--beta", str(beta), "--nmin", "1", "--nmax", "40",
                         "--points", "60", "--out", str(out)]) == 0
            assert out.read_text() == text
            got = bounds.bound_values("average_cramer", fam.parse_family(spec),
                                      alpha, beta, np.array(ns))
            assert got.tolist() == rhos


def test_ndep_runs_one_bisection(monkeypatch, tmp_path):
    calls = []
    bisect = inv._bisect

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(inv, "_bisect", counted)
    assert main(["ndep", "--config", str(ROOT / "figs" / "fig3a.cfg"),
                 "--out", str(tmp_path / "n.csv")]) == 0
    assert len(calls) == 1 and calls[0][2].shape == (1, 31)


@pytest.mark.parametrize("name, bisections", [("fig1a", 2), ("fig1b", 1)])
def test_sweep_runs_one_bisection_per_comparator(name, bisections,
                                                 monkeypatch, tmp_path):
    # fig1a's kinds invert two Cramer comparators; fig1b's two kinds invert
    # poisson's at the same beta/n, so its 2,500 cells are bisected once
    calls = []
    bisect = inv._bisect

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(inv, "_bisect", counted)
    assert main(["sweep", "--config", str(ROOT / "figs" / f"{name}.cfg"),
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert [args[2].shape for args in calls] == [(1, 2500)] * bisections


def test_ndep_no_finite_bound_names_smallest_n(tmp_path, capsys):
    # lambda/(2 alpha) = 0.1875: no finite bound while the budget 1/n exceeds
    # it, i.e. for n <= 5
    out = tmp_path / "n.csv"
    assert main(["ndep", "--family", "invgauss:lambda=0.75", "--alpha", "2",
                 "--beta", "1", "--nmin", "1", "--nmax", "100",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("no finite bound: ")
    assert "n=1:" in captured.err and "budget 1.0 " in captured.err
    assert not out.exists()


def test_ndep_no_finite_bound_message_is_the_engines(capsys):
    # the one message builder, with the n that fails
    with pytest.raises(inv.NoFiniteBound) as exc:
        bounds.evaluate_kind("average_cramer", fam.invgauss(0.75), 2.0, 1.0, 1)
    assert main(["ndep", "--family", "invgauss:lambda=0.75", "--alpha", "2",
                 "--beta", "1", "--nmin", "1", "--nmax", "100"]) == 3
    engine = str(exc.value)
    assert engine.startswith("cramer[invgauss:lambda=0.75]: budget 1.0 ")
    assert capsys.readouterr().err == "no finite bound: " + engine.replace(
        "]: ", "] at n=1: ", 1) + "\n"


def test_sweep_rows_format_each_cell_like_fmt():
    edge = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1, -2.5e17, 7.0]
    cols = [np.array(edge), np.array(edge[::-1]), np.array(edge[2:] + edge[:2])]
    want = [",".join(_fmt(v) for v in row) for row in zip(*cols)]
    assert _csv_rows(cols) == want
    assert want[0] == "nan,7,-inf" and want[3] == "-0,1e-300,0.1"


def test_upsilon_json_record():
    code, out, _ = run_cli("upsilon", "--comparator", "kl",
                           "--family", "bernoulli", "--n", "1")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) >= {"mode", "ln_upsilon", "r_star", "ci", "tail_error"}
    assert rec["mode"] == "exact"
    assert rec["ln_upsilon"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_upsilon_record_reports_r_at_cap():
    # the series route's best r is the last grid point, where h(r) still
    # grows, so the value is no certified sup over r: the record is printed
    # as usual, stderr says why, and the exit code is a check failure; both
    # flags come after the other keys
    code, out, err = run_cli("upsilon", "--comparator", "scaled_diff:t=0.5",
                             "--family", "poisson", "--n", "4")
    assert code == 5
    assert err == ("upsilon: best r is the grid's last point r*=50; "
                   "ln_upsilon is only a lower bound\n")
    assert '"r_at_cap": true, "divergent_suspect": false}' in out
    assert list(json.loads(out))[-2:] == ["r_at_cap", "divergent_suspect"]


@pytest.mark.parametrize("family, code, at_cap", [("laplace:b=1", 0, False),
                                                 ("negbin:r=3", 5, True)],
                         ids=["laplace", "negbin"])
def test_upsilon_monte_carlo_record(family, code, at_cap, capsys):
    # laplace and negbin have no closed law of the mean; negbin's sup over
    # r runs past the grid (r* = 50), so its record has r_at_cap and exit 5
    assert main(["upsilon", "--comparator", "scaled_diff:t=0.3", "--family",
                 family, "--n", "20", "--samples", "2000"]) == code
    rec = json.loads(capsys.readouterr().out)
    assert rec["mode"] == "monte_carlo" and rec["r_at_cap"] is at_cap
    assert (rec["r_star"] == 50.0) is at_cap


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


# verify --seed 3 --trials 200 --m 4 --n 20: the first record, the summary
# record and the verdict line, frozen before the means were drawn by
# verify.random_problem and re-frozen once each trial's Gibbs energies were
# taken less its least, and the gaussian and poisson bound_value once their
# Cramer functions were inverted in closed form; they pin the CLI's stream
# (seed, 900001)
VERIFY_FROZEN = {
    "bernoulli": (("--family", "bernoulli"), (
        '{"train_loss": 0.15717457433892343, "pop_loss": 0.06709499291190907,'
        ' "kl": 1.1940820650791373, "bound_value": 0.5417275610548333,'
        ' "violated": false}',
        '{"summary": {"kind": "mls", "family": "bernoulli", "m": 4, "n": 20,'
        ' "c": 1.0, "seed": 3, "delta": 0.05, "trials": 200, "violations": 0,'
        ' "rate": 0.0, "cp95_low": 0.0, "cp95_high": 0.018275340355136248,'
        ' "flag": null}}',
        "verify kind=mls family=bernoulli trials=200 violations=0 rate=0"
        " cp95_high=0.0182753404 delta=0.05 PASS")),
    "gaussian": (("--family", "gaussian:sigma2=1", "--bound", "pac_cramer_xi"), (
        '{"train_loss": 0.2735314155783408, "pop_loss": 0.10247599470415485,'
        ' "kl": 1.3862900006957783, "bound_value": 1.128654183086272,'
        ' "violated": false}',
        '{"summary": {"kind": "pac_cramer_xi", "family": "gaussian:sigma2=1",'
        ' "m": 4, "n": 20, "c": 1.0, "seed": 3, "delta": 0.05, "trials": 200,'
        ' "violations": 0, "rate": 0.0, "cp95_low": 0.0,'
        ' "cp95_high": 0.018275340355136248, "flag": null}}',
        "verify kind=pac_cramer_xi family=gaussian:sigma2=1 trials=200"
        " violations=0 rate=0 cp95_high=0.0182753404 delta=0.05 PASS")),
    "poisson": (("--family", "poisson", "--bound", "pac_cramer_xi"), (
        '{"train_loss": 0.0500000000005092, "pop_loss": 0.10377885809605276,'
        ' "kl": 1.3862943611093588, "bound_value": 0.5145188868585914,'
        ' "violated": false}',
        '{"summary": {"kind": "pac_cramer_xi", "family": "poisson", "m": 4,'
        ' "n": 20, "c": 1.0, "seed": 3, "delta": 0.05, "trials": 200,'
        ' "violations": 0, "rate": 0.0, "cp95_low": 0.0,'
        ' "cp95_high": 0.018275340355136248, "flag": null}}',
        "verify kind=pac_cramer_xi family=poisson trials=200 violations=0"
        " rate=0 cp95_high=0.0182753404 delta=0.05 PASS")),
}


@pytest.mark.parametrize("name", sorted(VERIFY_FROZEN))
def test_cli_verify_output_frozen(name, capsys):
    flags, want = VERIFY_FROZEN[name]
    assert main(["verify", *flags, "--seed", "3", "--trials", "200",
                 "--m", "4", "--n", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 202
    assert (lines[0], lines[-2], lines[-1]) == want


def test_cli_verify_at_a_huge_c_keeps_the_posterior(capsys):
    # at c = 1e300 each trial's posterior is the prior on its least training
    # losses: its kl is at most ln 10 under the uniform prior on 10
    # hypotheses, and its pop_loss a mean of the hypothesis means (20
    # trials cannot bring cp95_high below delta, so the verdict is FAIL)
    assert main(["verify", "--c", "1e300", "--family", "poisson", "--bound",
                 "pac_cramer_xi", "--trials", "20"]) == cli.EXIT_CHECK
    means = verify.random_problem(fam.poisson(), 10, 1e300, 50, 20, 0,
                                  900001).hypothesis_means
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()[:20]]
    assert all(r["kl"] <= math.log(10.0) for r in records)
    assert all(min(means) <= r["pop_loss"] <= max(means) for r in records)


# bound --family bernoulli --alpha 0.1 --beta 2.3 --n 100 and these flags:
# the printed line, frozen while each correction had its own entry point
BOUND_FROZEN = {
    "average": ((), "rho=0.176246983 budget=0.023 status=converged"),
    "one": (("--delta", "0.05", "--correction", "one"),
            "rho=0.224261817 budget=0.0529573227 status=converged"
            " flag=reference_only"),
    "xi": (("--delta", "0.05", "--correction", "xi"),
           "rho=0.26959881 budget=0.0887442469 status=converged"),
    "2eceil": (("--delta", "0.05", "--correction", "2eceil"),
               "rho=0.299599428 budget=0.115940496 status=converged"),
    "2eceil-u": (("--delta", "0.05", "--correction", "2eceil", "--u", "3.5"),
                 "rho=0.263740942 budget=0.0837517382 status=converged"),
    "chernoff": (("--delta", "0.05", "--correction", "chernoff=1.7"),
                 "rho=0.246851358 budget=0.0699573227 status=converged"),
}


@pytest.mark.parametrize("name", sorted(BOUND_FROZEN))
def test_cli_bound_output_frozen(name, capsys):
    flags, want = BOUND_FROZEN[name]
    assert main(["bound", "--family", "bernoulli", "--alpha", "0.1", "--beta",
                 "2.3", "--n", "100", *flags]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_sweep_catoni_equals_average_with_delta(capsys):
    # both kinds are the kl inversion at (beta - ln delta)/n over bernoulli
    assert main(["sweep", "--family", "bernoulli", "--kinds",
                 "catoni_inf,average_cramer", "--alpha-range", "0.02:0.98:7",
                 "--bon-range", "1e-3:5:7:log", "--n", "100",
                 "--delta", "0.05"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 49
    assert all(row.split(",")[-1] == "0" for row in rows)


def test_verify_reference_line():
    code, stdout, _ = run_cli("verify", "--bound", "catoni_inf",
                              "--trials", "50", "--m", "3", "--n", "10")
    assert code == 0 and "REFERENCE" in stdout


def test_conjugate_check_all_families(capsys):
    for spec in cli._DEFAULT_CHECK_FAMILIES:
        assert main(["conjugate-check", "--family", spec]) == 0, spec
        assert "PASS" in capsys.readouterr().out


def test_selfcheck_raises_no_warning(monkeypatch, capsys):
    # the runtime-only CI job runs selfcheck under -W error; in process the
    # same rule catches a RuntimeWarning sooner.  Each identity is one array
    # infimum over its whole grid.
    real, calls = inv.infimum_over_parameter, []
    monkeypatch.setattr(inv, "infimum_over_parameter",
                        lambda *args: calls.append(args[1:3]) or real(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["selfcheck"]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    assert [(np.shape(a), np.shape(b)) for a, b in calls] == [
        ((10, 10), (10, 10))] * 2


def test_nan_conjugate_fails_the_checks(monkeypatch, capsys):
    # max() drops a NaN error; the checks must report it as a failure
    monkeypatch.setattr(conjugate, "family_conjugate",
                        lambda family, q, p: conjugate.ConjugateResult(
                            np.full(np.shape(q), math.nan),
                            np.zeros(np.shape(q))))
    assert main(["conjugate-check", "--family", "bernoulli"]) == 5
    assert "max_err=nan FAIL" in capsys.readouterr().out
    assert main(["selfcheck"]) == 5
    assert "conjugate-vs-closed max_err=nan FAIL" in capsys.readouterr().out


def test_divergent_conjugate_fails_the_checks(capsys):
    # gamma(1e300)'s numeric conjugate is still growing at the probe-ladder
    # end: an infinite error, reported as a failed check, not a traceback
    assert main(["conjugate-check", "--family", "gamma:k=1e300"]) == 5
    assert capsys.readouterr().out == (
        "conjugate-check family=gamma:k=1e300 max_err=inf FAIL\n")
    assert cli._conjugate_suite([fam.parse_family("gamma:k=1e300"),
                                 fam.bernoulli()]) == math.inf


def test_conjugate_suite_makes_one_call_per_family_and_p(monkeypatch):
    # each (family, p) takes its whole q grid in one numeric conjugate and
    # one closed Cramer call: 7 families x 7 p, not 343 cells
    calls = {"conjugate": 0, "cramer": 0}
    real_conjugate, real_cramer = (conjugate.family_conjugate,
                                   fam.BoundingFamily.cramer)

    def counted_conjugate(family, q, p):
        calls["conjugate"] += 1
        return real_conjugate(family, q, p)

    def counted_cramer(self, q, p):
        calls["cramer"] += 1
        return real_cramer(self, q, p)

    monkeypatch.setattr(conjugate, "family_conjugate", counted_conjugate)
    monkeypatch.setattr(fam.BoundingFamily, "cramer", counted_cramer)
    families = [fam.parse_family(s) for s in cli._DEFAULT_CHECK_FAMILIES]
    assert cli._conjugate_suite(families) <= cli._CHECK_TOL
    assert calls == {"conjugate": 49, "cramer": 49}


def test_exit_codes_usage_and_io(tmp_path):
    code, _, err = run_cli("bound", "--family", "nosuch", "--alpha", "0.2",
                           "--beta", "1", "--n", "10")
    assert code == 2
    code, _, _ = run_cli("sweep", "--family", "bernoulli")
    assert code == 2
    code, _, err = run_cli("ndep", "--family", "gamma:k=5", "--alpha", "1",
                           "--beta", "1", "--nmin", "10", "--nmax", "100",
                           "--out", str(tmp_path / "no" / "dir" / "x.csv"))
    assert code == 4 and err.startswith("i/o error: ")
    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli("sweep", f"--config={missing}")
    assert code == 4 and out == ""
    assert err.startswith("config error: ") and str(missing) in err


BOUND = ("bound", "--family", "bernoulli", "--alpha", "0.2", "--beta", "1",
         "--n", "10")

NDEP = ("ndep", "--family", "poisson", "--alpha", "1", "--beta", "1",
        "--nmin", "1", "--nmax", "20")

UPSILON_MC = ("upsilon", "--comparator", "scaled_diff:t=0.3", "--family",
              "laplace:b=1", "--n", "5")

BAD_CONFIG = Path(__file__).resolve().parent / "bad_line.cfg"

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
    # checked on every route, not only the Monte-Carlo one
    "upsilon-samples-exact": (("upsilon", "--comparator", "kl", "--family",
                               "bernoulli", "--n", "10", "--samples", "-5"),
                              ["samples must be at least 4", "-5"]),
    "ndep-nmin": (("ndep", "--family", "poisson", "--alpha", "1", "--beta",
                   "1", "--nmin", "0", "--nmax", "20"),
                  ["--nmin and --nmax must be at least 1", "0"]),
    "ndep-reversed": (("ndep", "--family", "poisson", "--alpha", "1",
                       "--beta", "1", "--nmin", "10", "--nmax", "5"),
                      ["--nmin must be at most --nmax", "10", "5"]),
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
              ["two_e_ceil", "average_cramer", "u=7"]),
    "ln-upsilon-nan": (BOUND + ("--delta", "0.05", "--correction",
                                "chernoff=x"),
                       ["--correction 'chernoff=x'", "needs a number", "'x'"]),
    "family-nan": (("bound", "--family", "gaussian:sigma2=nan", "--alpha",
                    "0.1", "--beta", "1", "--n", "10"),
                   ["gaussian needs sigma2 in (0, inf)", "nan"]),
    "family-inf": (("bound", "--family", "gamma:k=inf", "--alpha", "0.1",
                    "--beta", "1", "--n", "10"),
                   ["gamma needs k in (0, inf)", "inf"]),
    "alpha-inf": (("bound", "--family", "gaussian:sigma2=1", "--alpha",
                   "inf", "--beta", "1", "--n", "10"),
                  ["alpha must be finite", "inf"]),
    "ndep-alpha-inf": (("ndep", "--family", "gaussian:sigma2=1", "--alpha",
                        "inf", "--beta", "1", "--nmin", "1", "--nmax", "10"),
                       ["alpha must be finite", "inf"]),
    "ndep-beta": (NDEP + ("--beta", "-1"),
                  ["beta must be finite and nonnegative", "-1"]),
    "scaled-diff-nan": (("upsilon", "--comparator", "scaled_diff:t=nan",
                         "--family", "poisson", "--n", "5"),
                        ["scaled_diff needs a finite t", "nan"]),
    "scaled-diff-inf": (("upsilon", "--comparator", "scaled_diff:t=inf",
                         "--family", "gamma:k=2", "--n", "5"),
                        ["scaled_diff needs a finite t", "inf"]),
    "gaussian-diff-nan": (("upsilon", "--comparator",
                           "gaussian_diff:t=0.5,sigma2=nan", "--family",
                           "gaussian:sigma2=1", "--n", "5"),
                          ["gaussian_diff", "sigma2", "nan"]),
    "comparator-key-unknown": (("upsilon", "--comparator", "kl:t=3",
                                "--family", "bernoulli", "--n", "5"),
                               ["'kl:t=3'", "unknown key", "kl takes no keys"]),
    "comparator-key-extra": (("upsilon", "--comparator",
                              "scaled_diff:t=0.3,b=7", "--family", "bernoulli",
                              "--n", "5"),
                             ["'scaled_diff:t=0.3,b=7'", "'b=7'",
                              "unknown key", "scaled_diff takes t"]),
    "comparator-key-cramer": (("upsilon", "--comparator", "cramer:sigma2=5",
                               "--family", "gaussian:sigma2=1", "--n", "5"),
                              ["'cramer:sigma2=5'", "unknown key",
                               "cramer takes no keys"]),
    "comparator-key-repeated": (("upsilon", "--comparator",
                                 "catoni:gamma=-1,gamma=-2", "--family",
                                 "bernoulli", "--n", "5"),
                                ["'catoni:gamma=-1,gamma=-2'", "'gamma=-2'",
                                 "repeats a key", "catoni takes gamma"]),
    "comparator-key-no-value": (("upsilon", "--comparator", "scaled_diff:t",
                                 "--family", "bernoulli", "--n", "5"),
                                ["'scaled_diff:t'", "is not key=value",
                                 "scaled_diff takes t"]),
    "family-value-text": (("bound", "--family", "gamma:k=x", "--alpha", "0.1",
                           "--beta", "1", "--n", "10"),
                          ["'gamma:k=x'", "k needs a number", "'x'"]),
    "family-key-repeated": (("bound", "--family", "gaussian:sigma2=1,sigma2=2",
                             "--alpha", "0.1", "--beta", "1", "--n", "10"),
                            ["'gaussian:sigma2=1,sigma2=2'", "'sigma2=2'",
                             "repeats a key", "gaussian takes sigma2"]),
    "family-key-unknown": (("bound", "--family", "gaussian:s=1", "--alpha",
                            "0.1", "--beta", "1", "--n", "10"),
                           ["'gaussian:s=1'", "'s=1'", "unknown key",
                            "gaussian takes sigma2"]),
    "family-key-no-value": (("bound", "--family", "gamma:k", "--alpha", "0.1",
                             "--beta", "1", "--n", "10"),
                            ["'gamma:k'", "is not key=value",
                             "gamma takes k"]),
    "family-key-missing": (("bound", "--family", "gaussian", "--alpha", "0.1",
                            "--beta", "1", "--n", "10"),
                           ["'gaussian'", "gaussian needs sigma2=<value>"]),
    "family-key-none-taken": (("bound", "--family", "poisson:x=1", "--alpha",
                               "0.1", "--beta", "1", "--n", "10"),
                              ["'poisson:x=1'", "'x=1'", "unknown key",
                               "poisson takes no keys"]),
    "verify-mls-off-bernoulli": (("verify", "--family", "gaussian:sigma2=1",
                                  "--bound", "mls", "--trials", "10"),
                                 ["mls needs the bernoulli family",
                                  "gaussian"]),
    "comparator-value-text": (("upsilon", "--comparator", "catoni:gamma=x",
                               "--family", "bernoulli", "--n", "5"),
                              ["'catoni:gamma=x'", "gamma needs a number",
                               "'x'"]),
    "range-steps": (("sweep", "--family", "bernoulli", "--kinds",
                     "average_cramer", "--alpha-range", "0.1:0.2:2.5",
                     "--bon-range", "0.01:1:2", "--n", "50"),
                    ["'0.1:0.2:2.5'", "steps needs an integer", "'2.5'"]),
    "sweep-nuisance-of-another-family": (
        ("sweep", "--family", "gaussian:sigma2=4", "--kinds",
         "laplace_diff_inf", "--alpha-range", "0.1:0.2:2", "--bon-range",
         "0.01:1:2", "--n", "50"),
        ["b must be positive", "laplace_diff_inf", "only a laplace family"]),
    "sweep-poisson-diff-negative-means": (
        ("sweep", "--family", "gaussian:sigma2=1", "--kinds",
         "poisson_diff_inf", "--alpha-range", "0.1:0.2:2", "--bon-range",
         "0.01:1:2", "--n", "50"),
        ["poisson_diff_inf", "gaussian", "can be negative"]),
    # a given nuisance is checked whatever the kind
    "sweep-sigma2-negative": (("sweep", "--family", "bernoulli", "--kinds",
                               "average_cramer", "--alpha-range", "0.1:0.2:2",
                               "--bon-range", "0.01:1:2", "--n", "50",
                               "--sigma2", "-1"),
                              ["sigma2 must lie in (0, inf)", "-1.0"]),
    "verify-bound-unknown": (("verify", "--bound", "bogus", "--trials", "10"),
                             ["unknown bound kind", "'bogus'"]),
    "verify-delta": (("verify", "--bound", "pac_cramer_xi", "--delta", "1.5",
                      "--trials", "10"), ["delta must lie in (0, 1)", "1.5"]),
    "range-log-zero": (("sweep", "--family", "bernoulli", "--kinds",
                        "average_cramer", "--alpha-range", "0.1:0.2:2",
                        "--bon-range", "0:1:3:log", "--n", "50"),
                       ["'0:1:3:log'", "log range needs lo > 0"]),
    "range-log-negative": (("sweep", "--family", "bernoulli", "--kinds",
                            "average_cramer", "--alpha-range", "0.1:0.2:2",
                            "--bon-range=-1:1:3:log", "--n", "50"),
                           ["'-1:1:3:log'", "log range needs lo > 0"]),
    "config-twice": (("sweep", "--config", str(ROOT / "figs" / "fig1a.cfg"),
                      "--config", str(ROOT / "figs" / "fig1b.cfg"),
                      "--out", "-"),
                     ["--config given more than once",
                      repr(str(ROOT / "figs" / "fig1a.cfg")),
                      repr(str(ROOT / "figs" / "fig1b.cfg"))]),
    "config-no-path": (("sweep", "--config"), ["--config needs a path"]),
    "config-line": (("sweep", "--config", str(BAD_CONFIG)),
                    [repr(str(BAD_CONFIG)), "line 2",
                     "'kinds average_cramer' is not key=value"]),
    "u-negative": (BOUND + ("--delta", "0.05", "--correction", "2eceil",
                            "--u", "-1"), ["u must be nonnegative", "-1.0"]),
    "u-inf": (BOUND + ("--delta", "0.05", "--correction", "2eceil", "--u",
                       "inf"), ["u must be nonnegative and finite", "inf"]),
    "ln-upsilon-negative": (BOUND + ("--delta", "0.05", "--correction",
                                     "chernoff=-1"),
                            ["ln_upsilon must be finite and at least 0",
                             "-1.0"]),
    "range-reversed": (("sweep", "--family", "bernoulli", "--kinds",
                        "average_cramer", "--alpha-range", "0.5:0.1:3",
                        "--bon-range", "0.01:1:3", "--n", "50"),
                       ["range needs lo < hi", "'0.5:0.1:3'"]),
    # an infinite end would reach beta as inf or NaN
    "range-alpha-inf": (("sweep", "--family", "bernoulli", "--kinds",
                         "average_cramer", "--alpha-range", "0:inf:2",
                         "--bon-range", "0.1:1:3", "--n", "10"),
                        ["range needs finite lo and hi", "'0:inf:2'"]),
    "range-bon-inf": (("sweep", "--family", "bernoulli", "--kinds",
                       "average_cramer", "--alpha-range", "0:1:2",
                       "--bon-range", "0.1:inf:3", "--n", "10"),
                      ["range needs finite lo and hi", "'0.1:inf:3'"]),
    # refused before any trial is drawn
    "verify-c-inf": (("verify", "--c", "inf", "--trials", "20"),
                     ["c must be nonnegative and finite", "inf"]),
    "range-scale": (("sweep", "--family", "bernoulli", "--kinds",
                     "average_cramer", "--alpha-range", "0.1:0.2:2",
                     "--bon-range", "0.01:1:3:cubic", "--n", "50"),
                    ["unknown scale", "'cubic'", "linear or log"]),
}


# one run of main per case, in this process; the ids keep a "-plain" suffix
@pytest.mark.parametrize("case", sorted(USAGE_ERRORS),
                         ids=lambda case: f"{case}-plain")
def test_usage_errors_exit_2_with_message(case, capsys):
    args, words = USAGE_ERRORS[case]
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


SUBCOMMAND_ARGV = {
    "bound": ["--family", "bernoulli", "--alpha", "0.1", "--beta", "2.3",
              "--n", "100", "--delta", "0.05", "--correction", "2eceil"],
    "sweep": ["--family", "bernoulli", "--kinds", "mls,average_cramer",
              "--alpha-range", "0.1:0.2:2", "--bon-range", "0.1:1:3:log",
              "--n", "50", "--delta", "0.05", "--clamp", "--out", "-"],
    "ndep": ["--family", "gamma:k=5", "--alpha", "1", "--beta", "1000",
             "--nmin", "100", "--nmax", "1000"],
    "upsilon": ["--comparator", "kl", "--family", "bernoulli", "--n", "50",
                "--seed", "3"],
    "verify": ["--trials", "20", "--bound", "pac_cramer_xi"],
    "conjugate-check": ["--family", "poisson"],
    "selfcheck": ["--config", "x.cfg"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_one_subcommand_parser_reads_like_the_full_one(command, capsys):
    # main builds only the arguments of the subcommand it runs; its help,
    # the top-level help and the parsed namespace are the full parser's
    full, one = cli.build_parser(), cli.build_parser(command)
    assert one.format_help() == full.format_help()
    argv = [command, *SUBCOMMAND_ARGV[command]]
    assert one.parse_args(argv) == full.parse_args(argv)
    helps = []
    for parser in (full, one):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([command, "--help"])
        assert exit_info.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith(
        f"usage: cgfbounds {command} [-h]")


def test_invalid_subcommand_error_is_the_full_parsers(capsys):
    # main builds no subcommand's arguments for an invalid choice; the
    # error still lists every subcommand
    errors = []
    for parser in (cli.build_parser(), cli.build_parser("bogus")):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["bogus"])
        assert exit_info.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "invalid choice: 'bogus'" in errors[0]
