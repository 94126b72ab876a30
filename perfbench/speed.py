"""Host-speed sampling that makes job times comparable across runs.

On a shared host the same deterministic job can run 20-30% faster or
slower from one second to the next (neighbours on the same core change
what the core delivers).  Medians over a 15-second run do not remove drift
that lasts longer than the run, so every job time is also reported scaled
to a nominal host speed:

* while a job runs, a SIGALRM timer interrupts it every INTERVAL_S and
  times a fixed reference loop in the same thread: scalar float
  arithmetic shaped like the Riccati kernels;
* each sample gives the local speed NOMINAL_S / duration; the job's
  normalized time is (raw time - time spent in the sampler) times the
  mean local speed during the job, i.e. the job's time integrated at
  nominal speed over its equally spaced samples.

Measured on the defining host over 18-second windows, this cut the spread
of window medians from 10-30% to 3-5% for scalar bisection, 2x2 numpy
solves, Monte Carlo cells, bayes enumeration and the CLI jobs; a 2x2
numpy reference and frozen copies of library loops did worse, and the mean
local speed tracked slow spells better than the median duration.  The reference is
benchmark code, so a change to jcas_lab cannot move it.  NOMINAL_S is its
median duration on the 2-core host the benchmark was defined on; it only
fixes the unit, and both sides of any comparison use the same value.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02

#: median reference-loop duration on the defining host (seconds)
NOMINAL_S = 8.0e-05


def reference() -> float:
    p = 1.0
    for _ in range(400):
        p = (1.1 * p) * 1.1 + 0.2 - ((1.1 * p) * 1.0) * (((1.0 * p) * 1.1) / ((1.0 * p) * 1.0 + 1.5))
    return p


class SpeedSampler:
    """Collects reference-loop durations while started."""

    def __init__(self):
        self.samples: list = []
        self.busy_s = 0.0  # total time spent inside the handler
        self._previous = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        reference()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple:
        return len(self.samples), self.busy_s

    def normalize(self, raw_s: float, start: tuple, end: tuple) -> float:
        """Raw job time scaled to nominal speed, from the samples between
        the ``start`` and ``end`` marks taken around the job.

        A job too short to be sampled uses the last 25 samples before it.
        """
        (n0, busy0), (n1, busy1) = start, end
        window = self.samples[n0:n1] or self.samples[max(0, n0 - 25):n0]
        own_s = raw_s - (busy1 - busy0)
        if not window:
            return own_s
        return own_s * NOMINAL_S / statistics.harmonic_mean(window)
