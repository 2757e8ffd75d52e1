"""Operation times scaled to a fixed reference speed of the host.

The benchmark shares its cores with other tenants, whose load changes how
fast the same work runs by tens of percent for seconds at a time.  While a
``HostSpeed`` is active, a timer signal every ``INTERVAL_S`` runs a short
fixed kernel and records how long it took.  The kernel mixes what the
package spends its time on: scalar Horner steps in pure Python and small
numpy arrays.  It is the benchmark's own code, so no change to the package
moves it.

An operation's raw time is its duration less the kernel runs inside it.
Its scaled time is the raw time times ``REFERENCE_S`` over the mean kernel
time while it ran (and just before, for operations shorter than
``RECENT`` intervals).  A run on a loaded host and one on an idle host then report
about the same scaled time, while a change that makes the package faster
lowers it in proportion.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
REFERENCE_S = 2.3e-4  # the kernel's duration on an idle core of the 2-core test host
RECENT = 8  # fewest kernel samples that stand for the speed during an operation
_ROW = [0.5, -1.25, 2.0, 0.75, -0.3, 1.1, 0.2, -0.9]
clock = time.perf_counter


def kernel():
    """About 0.25 ms of fixed work on an idle core; returns its duration."""
    import numpy as np  # here, so that importing this module leaves set-up cold

    t0 = clock()
    acc = 0.0
    for i in range(80):
        x = 0.1 + i * 1e-3
        r = 0.0
        for c in _ROW:
            r = r * x + c
        acc += float(np.hypot(*np.array([r, x])))
    return clock() - t0


class HostSpeed:
    """Context manager; ``start()``/``stop()`` time one operation."""

    def __init__(self):
        self.samples: list[float] = []
        self._old = None

    def _on_timer(self, signum, frame):
        self.samples.append(kernel())

    def __enter__(self):
        self.samples.extend(kernel() for _ in range(RECENT))
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def start(self):
        return clock(), len(self.samples)

    def stop(self, token):
        """(raw seconds, scaled seconds) since ``start()`` returned token."""
        t0, n0 = token
        elapsed = clock() - t0
        n1 = len(self.samples)
        raw = elapsed - sum(self.samples[n0:n1])
        # at least RECENT samples: those taken during the operation, topped
        # up with the ones just before it
        return raw, scaled(raw, self.samples[max(0, min(n0, n1 - RECENT)):n1])


def scaled(raw, samples):
    """raw seconds at the speed the kernel samples show, as reference seconds."""
    return raw * REFERENCE_S / statistics.fmean(samples)
