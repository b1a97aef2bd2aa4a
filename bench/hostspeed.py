"""Host speed index from a fixed calibration kernel.

On a shared host the speed of identical work swings by up to 2x between
states that last from seconds to minutes, CPU time as much as wall time.  So
the benchmark samples the host's speed while each job runs and reports job
times divided by it.  The kernel is the benchmark's own code and calls
nothing of latticefronts; it mixes the kinds of work the program does:
float formatting (CLI artifacts), many small numpy calls (spectral scans,
RK4 on short vectors), dense LAPACK (kernel SVD) and sparse LU (Newton).

``Sampler`` runs the kernel a few times before and after each job and, from
a SIGALRM handler, every ``PERIOD_S`` seconds during it; handlers run
between bytecodes, so a long C call defers them.  The time spent in the
handler is taken out of the job's time.  An index of 1.0 is the kernel's
time on the VM named in ``REFERENCE``; a job time divided by the mean index
of its samples is in seconds at that host speed, and a change to the program
moves it as it moves the raw time.  Job kinds do not all slow alike: the
n = 1601 dense-SVD solve slows about a third as much as the kernel, Nagumo
simulate about 1.5 times as much, so the index removes most, not all, of a
host-speed change.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE = "2-vCPU x86 VM (Intel Xeon, 2.1 GHz), one BLAS thread"
# Median seconds of one Kernel() call during benchmark runs on REFERENCE.
NOMINAL_S = 0.0035
PERIOD_S = 0.2
EDGE_SAMPLES = 4


class Kernel:
    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        rng = np.random.default_rng(20240601)
        self.np, self.splu = np, splu
        self.floats = rng.standard_normal(800).tolist()
        self.small = rng.standard_normal((80, 3, 3)) + 1j * rng.standard_normal((80, 3, 3))
        self.vec = rng.standard_normal(400)
        self.dense = rng.standard_normal((120, 120))
        n = 1500
        self.sparse = sp.diags([-np.ones(n - 1), 4.0 + rng.random(n), -np.ones(n - 1)],
                               [-1, 0, 1], format="csc")
        self.rhs = np.ones(n)

    def __call__(self) -> float:
        """Seconds one pass of the fixed work takes now."""
        np = self.np
        t0 = perf_counter()
        total = float(sum(len("%.10g,%.10g" % (x, x * x)) for x in self.floats))
        v = self.vec
        for m in self.small:
            total += abs(np.linalg.det(m))
            v = v + 0.01 * (np.tanh(v) - v)
        total += float(np.linalg.svd(self.dense, compute_uv=False)[0])
        total += float(self.splu(self.sparse).solve(self.rhs)[0] + v[0])
        elapsed = perf_counter() - t0
        if not np.isfinite(total):
            raise RuntimeError("calibration kernel diverged")
        return elapsed


class Sampler:
    """Kernel samples around and during one timed interval at a time."""

    def __init__(self):
        self.kernel = Kernel()
        self.kernel()             # first call loads lazily imported code
        self.samples: list[float] = []
        self.spent = 0.0          # seconds inside the handler since start()
        self._edge = self.edge()  # samples taken at the end of the last interval

    def index(self) -> float:
        """Speed index of the last samples taken between intervals."""
        return statistics.fmean(self._edge) / NOMINAL_S

    def edge(self) -> list[float]:
        return [self.kernel() for _ in range(EDGE_SAMPLES)]

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(self.kernel())
        self.spent += perf_counter() - t0

    def start(self, tick: bool = True):
        """Begin an interval; without `tick` only the edges are sampled."""
        self.samples = list(self._edge)
        self.spent = 0.0
        if tick:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """End the interval; returns the seconds spent in the handler."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.spent

    def speeds(self) -> tuple[float, float]:
        """(mean index, edge index) of the interval just stopped: the mean
        index is taken over the samples before, during and after it, the
        edge index over those before and after it only."""
        before = self.samples[:EDGE_SAMPLES]
        self._edge = self.edge()
        return (statistics.fmean(self.samples + self._edge) / NOMINAL_S,
                statistics.fmean(before + self._edge) / NOMINAL_S)
