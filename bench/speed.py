"""Host-speed probe: turns measured wall times into reference-speed seconds.

The benchmark runs on virtual machines whose CPU speed drifts by up to 1.7x
in phases of a few seconds to half a minute (a core shared with other
tenants).  CPU time drifts with wall time, so neither can be compared between
runs as it stands.  Every measured process therefore runs a fixed probe, a
tight pure-Python loop of about a fifth of a millisecond, on a wall-clock
timer every PERIOD_S seconds.  The probe allocates no objects that the
garbage collector tracks, so it does not move the program's collections.

A probe that takes REFERENCE_S ran at reference speed; one that takes twice
as long ran at half speed.  Because the probes fall evenly in wall time, the
mean of REFERENCE_S / duration over the probes inside an interval is the
interval's mean speed, and

    reference-speed seconds = (wall - time spent in probes) * mean speed

is the time the interval would have taken at reference speed.  Everything
the program does counts; only the host's speed is divided out.  Raw wall
times are printed beside the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

PERIOD_S = 0.01
PROBE_LOOPS = 3000
# Duration of one probe at the full speed of the reference machine (2-vCPU
# Intel Xeon at 2.1 GHz, Python 3.11.7): a typical probe time while the host
# was in its fast phase (185-210 us).
REFERENCE_S = 2.0e-4
LEAST_SAMPLES = 8  # an interval with fewer probes borrows its nearest ones

_TABLE = {0: 1.0, 1: 2.0, 2: 3.0}


def probe() -> float:
    x = 0.0
    get = _TABLE.get
    for i in range(PROBE_LOOPS):
        x = x * 0.5 + get(i & 3, 0.5)
    return x


class Sampler:
    """Runs the probe on a wall-clock timer in this process and records the
    start and duration of each run in flat arrays."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")

    def sample(self, *_):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def start(self) -> "Sampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def to_json(self) -> list:
        return [list(self.starts), list(self.durations)]


def normalise(samples, wall: float, t0: float | None = None,
              t1: float | None = None) -> float:
    """Reference-speed seconds of an interval of `wall` seconds whose probes
    started in [t0, t1] (None means unbounded) of `samples`, a Sampler's
    `to_json()`.  The interval's speed comes from its own probes or, if it
    holds fewer than LEAST_SAMPLES, from the LEAST_SAMPLES nearest to its
    middle; only the probe time inside it is taken off its wall time."""
    pairs = list(zip(*samples))
    if not pairs:
        raise ValueError("no speed probes were recorded")
    lo = float("-inf") if t0 is None else t0
    hi = float("inf") if t1 is None else t1
    inside = [p for p in pairs if lo <= p[0] <= hi]
    used = inside
    if len(inside) < min(LEAST_SAMPLES, len(pairs)):
        mid = (max(lo, pairs[0][0]) + min(hi, pairs[-1][0])) / 2
        used = sorted(pairs, key=lambda p: abs(p[0] - mid))[:LEAST_SAMPLES]
    speed = statistics.fmean(REFERENCE_S / d for _, d in used)
    return (wall - sum(d for _, d in inside)) * speed
