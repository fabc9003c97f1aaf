"""Machine-speed probe, sampled on a timer while a workload runs.

The benchmark's vCPUs share a host whose load changes from minute to minute,
and the host reports no steal time.  Over a few minutes the same code ran up
to 1.5x slower, and even its fastest steps slowed: no percentile of the
program's own times stays put.  So each run also times a small fixed probe,
the same code in every commit, every ``interval_s`` seconds of wall time
(SIGALRM), and the gated timings are rescaled to a machine on which the probe
takes ``REFERENCE_S``.  A timing taken as the q-th percentile of its samples
is scaled by the probe's q-th percentile, so that both see the same kind of
moment: the quickest, or the typical.

The probe should do the kind of work that dominates the workload, because
the host slows interpreter-bound and BLAS-bound code by different amounts:

* ``small_numpy``: a Python loop over tiny numpy operations, like the
  per-node loops of ``simulate`` and ``filtering``;
* ``dense_solve``: one 300 x 300 dense linear solve, like a Newton step of
  ``control``.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# Round figures near each probe's fastest time on the 2-vCPU Xeon VM the
# benchmark was written on; they only fix the unit of the rescaled timings.
REFERENCE_S = {"small_numpy": 100e-6, "dense_solve": 1000e-6}
INTERVAL_S = {"small_numpy": 0.02, "dense_solve": 0.1}   # about 0.5% and 1% of the run

_VEC = np.ones(16)
_MAT = np.random.default_rng(0).standard_normal((300, 300)) + 300.0 * np.eye(300)
_RHS = np.ones(300)


def _small_numpy() -> None:
    total = 0.0
    for _ in range(60):
        total += float((_VEC * 2.0).sum())


def _dense_solve() -> None:
    np.linalg.solve(_MAT, _RHS)


_PROBES = {"small_numpy": _small_numpy, "dense_solve": _dense_solve}


class Probe:
    """Times ``kind``'s probe on a wall-clock timer while the context is open."""

    def __init__(self, kind: str):
        self.kind = kind
        self.run = _PROBES[kind]
        self.reference_s = REFERENCE_S[kind]
        self.interval_s = INTERVAL_S[kind]
        self.samples = []
        self._saved = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.run()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.run()                                    # first call pays for lazy set-up
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
