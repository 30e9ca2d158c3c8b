"""Host-speed probe: a fixed kernel timed after every sample of a run.

On a shared host the speed of the same deterministic repetition drifts
over minutes: on the 2-CPU baseline host ten 45 s runs of
``high_alpha`` in a row went from 39k to 24k tokens/s while the
program's call counts stayed within 1%.  More repetitions per run do
not average out a drift that lasts longer than the run, so every
timing of a run is divided by the run's host-speed factor, the median
probe time over :data:`NOMINAL_S`.  A normalised time reads as seconds
on a host where the probe takes :data:`NOMINAL_S`.

The kernel is the benchmark's own code, never the program's, so no
change to the program can move it.  It mixes what the program spends
its time on: random gathers, stable sorts and bincounts over tens of
megabytes, and an interpreter loop of scalar numpy reads and dict
updates.  It runs in a process of its own (:class:`Probe`), so its
memory never counts towards the workload process's ``peak_rss_mb``.

Run as a script, this module is that process: it times the kernel
once per line read from standard input and prints the seconds.
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import sys
import time

#: About the probe's time on the baseline host.  A constant: changing
#: it rescales every normalised timing.
NOMINAL_S = 0.5
#: Elements per array, vectorised rounds, and interpreter-loop steps.
SIZE = 1 << 20
ROUNDS = 1
LOOP = 250_000
#: The probe's inputs are the same on every run, whatever ``--seed`` is.
SEED = 12345


def kernel() -> float:
    """Seconds for one pass of the fixed kernel (inputs made untimed)."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    values = rng.integers(0, 1 << 40, size=SIZE)
    index = rng.integers(0, SIZE, size=SIZE)
    table: dict = {}
    start = time.perf_counter()
    for _ in range(ROUNDS):
        gathered = values[index]
        order = np.argsort(gathered, kind="stable")
        np.bincount(gathered[order] % 65536, minlength=65536)
    for i in range(LOOP):
        key = int(values[i]) % 4093
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


class Probe:
    """The kernel in a child process; calling it times one pass.

    The caller waits for the answer, so the probe never runs alongside
    the workload.  :meth:`close` stops the process and waits for it.
    """

    def __init__(self):
        self._process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        return float(self._process.stdout.readline())

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):
            self._process.stdin.close()
        self._process.wait()


def speed_factor(probes: list) -> float:
    """How much slower than nominal the host ran: median probe time over
    :data:`NOMINAL_S` (above 1 when slower)."""
    return statistics.median(probes) / NOMINAL_S


if __name__ == "__main__":
    kernel()  # numpy's own first-call costs, untimed
    for _line in sys.stdin:
        print(kernel(), flush=True)
