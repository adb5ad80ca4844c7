"""Reference loop that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

run.py starts one of these per run, pinned to the same CPU as the workload
children, so the scheduler interleaves the two at millisecond scale and
both see the same host speed.  The loop repeats one fixed unit of work of
the package's kind: scalar scipy.special calls, interpreter arithmetic and
a vectorized numpy pass.  It never imports the package, so a change to the
package cannot change the reference.

Protocol on stdout: "ready" once imported; then on each SIGUSR1 one JSON
line [units done, CPU seconds spent on them]; SIGTERM prints the last such
line and exits.  It also exits when its parent process is gone.
"""

import json
import math
import os
import signal
import sys
import time

import numpy as np
from scipy import special

_asked = False
_stop = False


def _on_usr1(signum, frame):
    global _asked
    _asked = True


def _on_term(signum, frame):
    global _stop
    _stop = True


def unit(xs, big):
    acc = 0.0
    for i in range(400):
        q = float(xs[i % len(xs)])
        acc += float(special.rel_entr(q, 0.3)) + math.log1p(q) * (i & 7)
    return acc + float(np.sin(big).sum())


def main():
    global _asked
    signal.signal(signal.SIGUSR1, _on_usr1)
    signal.signal(signal.SIGTERM, _on_term)
    xs = np.linspace(0.01, 0.99, 101)
    big = np.arange(20000.0)
    unit(xs, big)
    print("ready", flush=True)
    parent = os.getppid()
    units, c0 = 0, time.process_time()
    # stop with the parent, should it die without stopping us
    while not _stop and os.getppid() == parent:
        unit(xs, big)
        units += 1
        if _asked:
            _asked = False
            print(json.dumps([units, time.process_time() - c0]), flush=True)
    print(json.dumps([units, time.process_time() - c0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
