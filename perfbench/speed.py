"""Speed probe: times taken at a fixed reference speed of the machine.

The benchmark's CPUs are shared with other guests of their host, and the
speed at which they run Python changes under it: a fixed loop takes from
1.0 to 1.6 times its shortest time, switching between a fast and a slow
state within a second and staying mostly in one of them for a minute at
a time.  Plain wall times of the same work then spread by a quarter from
one run to the next, whatever the run measures in between.

While the probe runs, a profiling timer interrupts the process after
every INTERVAL_S of its CPU time and times a fixed reference loop, which
builds no objects the garbage collector tracks.  A span of work is timed
as its wall time less the probes that ran inside it, scaled by
REFERENCE_S over the mean probe time around it: the probes that ran
inside the span, widened to the NEAR nearest when fewer ran.  That is
the time the span would take on a machine where the reference loop takes
REFERENCE_S.  A program change moves it as it moves wall time, since the
probe does not run program code; a change of machine speed moves the
probe with the work and largely cancels out.
"""

import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_S = 0.0002
NEAR = 4

_TABLE = {i: (i * 7919) % 1009 for i in range(1009)}


def reference_loop():
    """Dict lookups and int arithmetic; allocates no tracked objects."""
    get = _TABLE.get
    acc = 0
    for i in range(1500):
        acc = (acc + get(i % 1009, 0) * i) & 0xFFFF
    return acc


class SpeedProbe:
    """The reference loop's times, in the order the probes ran, and
    their sum."""

    def __init__(self):
        self.durations = []
        self.spent = 0.0
        self.running = False

    def _probe(self):
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.durations.append(took)
        self.spent += took

    def _on_tick(self, signum, frame):
        self._probe()

    def start(self):
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.running = False

    def sample(self, n=NEAR):
        """Run n probes now, next to work that runs in another process
        and so gets no probes inside it."""
        if self.running:
            for _ in range(n):
                self._probe()

    def begin(self):
        """A mark to pass to end().  The clock is read first, so every
        probe that end() subtracts ran inside the measured wall time."""
        return time.perf_counter(), len(self.durations), self.spent

    def end(self, mark):
        """(seconds less the probes since mark, (first, last) probe)."""
        last, spent = len(self.durations), self.spent
        now = time.perf_counter()
        start, first, spent_before = mark
        return now - start - (spent - spent_before), (first, last)

    def scale(self, seconds, probes):
        """seconds at the reference speed, from the probes first..last-1
        widened to the NEAR nearest; unchanged when no probe ran."""
        n = len(self.durations)
        lo, hi = probes
        want = min(NEAR, n)
        while hi - lo < want:
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < want:
                hi += 1
        if hi == lo:
            return seconds
        mean = sum(self.durations[lo:hi]) / (hi - lo)
        return seconds * REFERENCE_S / mean

    def measure(self, n):
        """Median of n probes run now, in microseconds."""
        times = []
        for _ in range(n):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
        return 1e6 * statistics.median(times)

