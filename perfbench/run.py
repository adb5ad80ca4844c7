"""The cgfbounds benchmark: three workloads, each in fresh processes.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all          # table of every workload

Untraced (--trace 0): set-up-only children interleaved with workload
children until --seconds have passed, all pinned to one CPU next to a
calibration loop (calibrate.py); reports the medians of setup_s, wall_s and
peak_rss_mb, with the times scaled to a fixed reference host speed.
Traced (--trace 1): one untraced and one traced child plus set-up children
under `python -X importtime`, pinned and scaled the same way; reports the
per-layer metrics, the tracing overhead, import times and src line count.  Every child
checks its outputs against perfbench/refs.  The last stdout line is a JSON
object with correct, attempted, failed and metrics.  Run from the root of a
source checkout; the package is imported from src/.
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("figures", "moments", "checks")
SETUP_PROBES = 3
IMPORT_PROBES = 3
DEADLINE_S = 170.0
# CPU seconds per calibration unit at the reference speed: about the unit's
# time on an uncontended core of the 2-vCPU Xeon (2.1 GHz) VM on which the
# benchmark was defined, so scaled times read as seconds on that core.
REF_UNIT_S = 0.0006
IMPORTED = ("cgfbounds", "cgfbounds.rng", "cgfbounds.families",
            "cgfbounds.inversion", "cgfbounds.upsilon", "cgfbounds.bounds",
            "cgfbounds.conjugate", "cgfbounds.verify", "cgfbounds.cli",
            "scipy.stats")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # BLAS and OpenMP pools would otherwise size themselves to the host
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _pin(cpu):
    def pin():
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # not permitted here: run unpinned, less steady
            pass
    return pin


class Calibrator:
    """calibrate.py on the CPU the workload children are pinned to.

    On a shared 2-vCPU VM the same code ran up to 2x slower from one
    second to the next, as the other tenants came and went.  Two
    processes pinned to one CPU are interleaved by the scheduler every few
    milliseconds, so over a child's lifetime the loop's CPU time per unit
    tracks the host speed the child saw.  Scaling the child's CPU time by
    REF_UNIT_S over that unit time removes most of the host's variation.
    """

    def __init__(self, env, deadline):
        self.cpu = max(os.sched_getaffinity(0))
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")], cwd=ROOT, env=env,
            text=True, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            preexec_fn=_pin(self.cpu))
        if self._line() != "ready":
            self.close()
            raise BenchError("calibration loop did not start")

    def _line(self, wait=60.0):
        left = max(0.0, min(wait, self.deadline - time.monotonic()))
        ready, _, _ = select.select([self.proc.stdout], [], [], left)
        return self.proc.stdout.readline().strip() if ready else ""

    def snapshot(self):
        """(units done, CPU seconds) so far."""
        self.proc.send_signal(signal.SIGUSR1)
        try:
            return json.loads(self._line(wait=5.0))
        except json.JSONDecodeError:
            raise BenchError("calibration loop stopped answering")

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Runner:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()

    def _timeout(self):
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("out of time before the next child could start")
        return left

    def child(self, mode, cal=None, importtime=False):
        """Run one workloads.py child; with cal, pin it next to the loop and
        add "speed": REF_UNIT_S over the loop's unit time meanwhile.  With
        importtime, add "imports" parsed from `-X importtime`."""
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            str(HERE / "workloads.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode,
            "--spawned-at", repr(time.monotonic())]
        before = cal.snapshot() if cal else None
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE if importtime else None,
                                  timeout=self._timeout(),
                                  preexec_fn=_pin(cal.cpu) if cal else None)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} {mode} child timed out")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            raise BenchError(f"{self.workload} {mode} child exited "
                             f"{proc.returncode} without a result")
        if cal:
            after = cal.snapshot()
            units = after[0] - before[0]
            if units < 1:
                raise BenchError("calibration loop made no progress")
            result["speed"] = REF_UNIT_S * units / (after[1] - before[1])
        if importtime:
            result["imports"] = parse_importtime(proc.stderr)
        return result


def parse_importtime(text):
    """{module: cumulative s} for IMPORTED from `-X importtime` output.

    Lines are "import time: self [us] | cumulative | <indent>name", printed
    when a module finishes, children before parents, nesting shown by the
    indent.  scipy's lazily loaded subpackages print no line of their own;
    for those the cumulative times of their outermost submodules are summed.
    """
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].rstrip()
            try:
                cum = int(parts[1])
            except ValueError:  # the header line
                continue
            rows.append((len(name) - len(name.lstrip()), name.strip(), cum))
    out, summed = {}, {}
    for i, (depth, name, cum) in enumerate(rows):
        if name in IMPORTED:
            out[name] = cum / 1e6
            continue
        pkg = next((p for p in IMPORTED if name.startswith(p + ".")), None)
        if pkg is None:
            continue
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if parent != pkg and not parent.startswith(pkg + "."):
            summed[pkg] = summed.get(pkg, 0.0) + cum / 1e6
    for pkg, total in summed.items():
        out.setdefault(pkg, total)
    return out


def tally(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for msg in r["failures"]:
            print(f"check failed: {msg}", file=sys.stderr)
    return attempted, failed


def untraced(workload, seed, seconds):
    run = Runner(workload, seed)
    setups, results = [], []
    with Calibrator(run.env, run.deadline) as cal:
        start = time.monotonic()
        while True:
            # set-up probes interleaved with the workload children, so both
            # sample the same stretch of the host's load
            if len(setups) < SETUP_PROBES:
                setups.append(run.child("setup", cal))
            results.append(run.child("run", cal))
            elapsed = time.monotonic() - start
            typical = statistics.median(r["wall_s"] for r in results)
            if elapsed + 0.5 * typical >= seconds:
                break
        while len(setups) < SETUP_PROBES:
            setups.append(run.child("setup", cal))
    setups = [r["setup_cpu_s"] * r["speed"] for r in setups + results]
    scaled = [r["cpu_s"] * r["speed"] for r in results]
    attempted, failed = tally(results)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    detail = "child wall_s " + " ".join(f"{v:.3f}" for v in scaled) + \
        "; host speed " + " ".join(f"{r['speed']:.2f}" for r in results)
    return attempted, failed, metrics, detail


def src_lines():
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def traced(workload, seed):
    """Per-layer metrics from one traced child, next to one untraced child.

    The tracer reads the process CPU clock, scaled here by the child's
    speed like wall_s.  -X importtime reads the wall clock, which runs about
    twice as fast as a pinned child's share of the CPU; import times are
    scaled by the probe's reference CPU time over its wall time.
    """
    run = Runner(workload, seed)
    with Calibrator(run.env, run.deadline) as cal:
        plain = run.child("run", cal)
        layered = run.child("trace", cal)
        probes = [run.child("setup", cal, importtime=True)
                  for _ in range(IMPORT_PROBES)]
    attempted, failed = tally([plain, layered])
    metrics = {}
    for name, (value, unit) in layered["layers"]["metrics"].items():
        scaled = unit in ("s", "us")
        metrics[name] = (value * layered["speed"] if scaled else value, unit)
    for absent in layered["layers"]["absent"]:
        print(f"trace: {absent} is absent from the package", file=sys.stderr)
    untraced_s = plain["cpu_s"] * plain["speed"]
    traced_s = layered["cpu_s"] * layered["speed"]
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    for mod in IMPORTED:
        got = [p["imports"][mod] * p["setup_cpu_s"] * p["speed"] / p["setup_s"]
               for p in probes if mod in p["imports"]]
        metrics[f"import.{mod}_s"] = (statistics.median(got) if got else 0.0, "s")
    metrics["src.lines"] = (src_lines(), "count")
    detail = f"untraced wall_s {untraced_s:.3f}, traced {traced_s:.3f}"
    return attempted, failed, metrics, detail


def preflight(workloads):
    if not (ROOT / "src" / "cgfbounds" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'cgfbounds'}")
    if "figures" in workloads:
        from workloads import FIGURES
        for name, _ in FIGURES:
            if not (ROOT / "figs" / f"{name}.cfg").is_file():
                raise BenchError(f"missing figure config figs/{name}.cfg")
    problems = checks.selftest()
    if problems:
        raise BenchError("checks self-test failed: " + "; ".join(problems))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so its children and the loop are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        preflight(names)
        rows = []
        for name in names:
            if args.trace:
                rows.append((name,) + traced(name, args.seed))
            else:
                rows.append((name,) + untraced(name, args.seed, args.seconds))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1

    for name, attempted, failed, metrics, detail in rows:
        shown = " ".join(f"{k}={v:.4g} {u}" for k, (v, u) in metrics.items())
        print(f"{name}: {shown} error_rate={failed / attempted:.4g} "
              f"({failed}/{attempted} checks failed; {detail})")
    if args.workload != "all":
        _, attempted, failed, metrics, _ = rows[0]
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
