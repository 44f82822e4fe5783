"""Host speed: scale timings to a fixed reference speed of the machine.

The shared host's CPU speed drifts by 15-30% over seconds to minutes, and
the jobs and a fixed pure-Python loop drift together, in wall time and in CPU
time. Whole runs therefore land in slow or fast
periods, and run-to-run spreads of raw times reach the benchmark's bounds.

The end-to-end run measures that speed with ``reference_loop`` between jobs
and scales its latencies by REFERENCE_S over the run's mean loop time. A
scaled time is the time the job would have taken at the speed at which the
loop takes REFERENCE_S, about this host's typical speed. The loop is fixed
code outside the package, so a change to the package moves the scaled times
as it moves the raw ones. The run prints the raw pass times and the scale
next to the scaled metrics.

On a 2-vCPU shared Xeon host, scaling cut the run-to-run spread of wall_s
(interquartile range over median, six seeds) from 0.22 to 0.10 on
exact-identities and from 0.13 to 0.04 on numeric-connection. It does not
steady single short jobs: their latencies still spread by 0.1-0.3 between
runs, because the loop's speed jitters from one millisecond to the next.
"""

import statistics
import time

REFERENCE_S = 1.5e-3
PROBE_SHARE = 0.03

_TABLE = {i: (i, 2 * i) for i in range(64)}


def reference_loop():
    """Seconds taken by a fixed loop of dict lookups, tuple unpacking and
    integer arithmetic. Every integer in it stays below 256, so it allocates
    nothing and its speed does not depend on the state of the heap."""
    table, s = _TABLE, 0
    t0 = time.perf_counter()
    for r in range(240):
        for i in range(64):
            a, b = table[(i ^ r) & 63]
            s ^= a ^ b
    return time.perf_counter() - t0


def loop_mean(n=10):
    """The mean of ``n`` loop times, for a phase that cannot be interleaved
    with the loop, such as importing the package."""
    return statistics.fmean(reference_loop() for _ in range(n))


class Probe:
    """Loop times taken between the jobs of a run. Before each job the loop
    runs until its total time is PROBE_SHARE of the job time so far, so a
    long job is followed by many samples and the samples weigh each stretch
    of the run by its job time. The loop's speed jitters by up to 1.8x from
    one millisecond sample to the next, so one scale, from the mean of
    several hundred samples, serves the whole run."""

    def __init__(self):
        self.samples = []
        self.job_s = 0.0
        self.loop_s = 0.0
        self.sample()

    def sample(self):
        self.samples.append(reference_loop())
        self.loop_s += self.samples[-1]

    def job_starts(self):
        while self.loop_s < PROBE_SHARE * self.job_s:
            self.sample()

    def job_took(self, seconds):
        self.job_s += seconds

    def finish(self):
        self.job_starts()
        self.sample()

    def scale(self):
        return REFERENCE_S / statistics.fmean(self.samples)
