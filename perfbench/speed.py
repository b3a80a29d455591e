"""Machine-speed probe: times reported at a fixed reference speed.

On a shared virtual machine the speed of pure-Python code drifts by
±20 % or more over seconds to minutes, in CPU time as well as wall time,
because other tenants contend for the host's cores and caches.  No
statistic over one run removes a drift slower than the run.  So while
the benchmark measures, it also times a fixed probe ``chunk()`` -- a few
thousand Fraction products summed into a dict keyed by tuples, the
operations hopftower's kernels are made of -- on the same CPU and at the
same moments, and scales every measured time by how much slower or
faster than nominal the probe ran:

    reported = measured * REF_CHUNK_S / mean probe chunk time

so a reported time is the time the work would take on a machine on which
one chunk takes ``REF_CHUNK_S``.  The probe never calls hopftower, so a
change to the program moves the reported times and a change in the
machine's speed does not.

``Sampler`` runs one chunk from a SIGALRM handler every ``period``
seconds while a pass runs in the same process: the chunks sample the
machine's speed evenly across the pass, and their own time is taken off
the pass.  ``probe(n)`` runs ``n`` chunks in a row, right after a set-up.
The garbage collector is off during a chunk, so a chunk never pays for
collecting the program's heap.

A CLI request is a process of its own, and much of its time is process
start, which the host's contention slows less than it slows a chunk.  So
its probe is a process too: ``PROCESS_ARGV``, a bare interpreter that
imports the standard modules the CLI imports, timed from spawn to exit
the way a request is, before each request.  ``process_scale`` turns
those times into the factor.
"""

import gc
import signal
import sys
import time
from fractions import Fraction

REF_CHUNK_S = 0.005     # nominal time of one chunk (about that of a chunk
                        # on a 2.1 GHz Xeon vCPU)
CHUNK_N = 1000          # products per chunk
PERIOD_S = 0.05         # seconds between chunks while a pass runs

PROCESS_ARGV = (sys.executable, "-c", "import argparse, fractions, json")
REF_PROCESS_S = 0.07    # nominal spawn-to-exit time of PROCESS_ARGV

_F = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(16)]


def chunk():
    """One probe chunk; returns its duration in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = {}
    for i in range(CHUNK_N):
        w = (i & 7, (i >> 3) & 3) + (i % 5,)
        acc[w] = acc.get(w, 0) + _F[i & 15] * _F[(i >> 4) & 15]
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def probe(n):
    """Run ``n`` chunks; returns their durations."""
    return [chunk() for _ in range(n)]


def scale(durations):
    """Factor from measured to reference time, from chunk durations."""
    return REF_CHUNK_S / (sum(durations) / len(durations))


def process_scale(durations):
    """Factor from measured to reference time, from the spawn-to-exit
    times of ``PROCESS_ARGV``."""
    return REF_PROCESS_S / (sum(durations) / len(durations))


class Sampler:
    """Probe chunks on a timer while the code between ``start`` and
    ``stop`` runs.  ``durations`` holds the chunks' times and ``spent``
    the time the handler took in all, to be taken off the measured
    interval."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.durations = []
        self.spent = 0.0
        self._saved = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.durations.append(chunk())
        self.spent += time.perf_counter() - start

    def start(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scale(self):
        # a pass shorter than one period is scaled by chunks run after it
        return scale(self.durations or probe(5))
