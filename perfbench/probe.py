"""Machine-speed probe: normalises the benchmark's times.

The 2-vCPU VMs this benchmark runs on change speed by up to 1.7x within
seconds (a shared host: other tenants' load), so raw wall times of identical
runs spread 10-45% between runs.  The probe samples that speed while the
program runs: every INTERVAL_S a SIGALRM handler times a fixed kernel that
does not use the package, a few small numpy row operations of the kind the
pipeline's Python loops are made of.

A phase that took T seconds while the kernel read K on average is reported
as T * (REFERENCE_S / K) ** beta, its time at the speed where the kernel
reads REFERENCE_S.  A phase slows with the machine by its own amount, so
beta is fitted per phase (EXPONENTS, fit_speed.py).  The program's own
speed-ups change T and not K, so they show in full.  The handler's own time
is counted in `spent` and taken out of T.
"""

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# What the kernel reads on the 2-vCPU Xeon VM the benchmark was tuned on, in
# its fast state.  It only fixes the scale of the normalised times.
REFERENCE_S = 1.0e-4
INTERVAL_S = 0.05

# beta per phase: the exponent that made the batch totals of identical runs
# agree best (fit_speed.py), over 16 runs of each workload on that VM.
# Re-verifying, with fewer and larger numpy calls, follows the machine's
# speed less than decomposing does.  The set-up uses the decompose exponent.
EXPONENTS = {
    "decompose": 0.85,
    "reverify": 0.7,
    "setup": 0.85,
}


class OperationTimeout(Exception):
    pass


class SpeedProbe:
    def __init__(self):
        self._rows = np.random.default_rng(0).integers(0, 97, (40, 40))
        self.times = []      # start of each sample
        self.seconds = []    # the kernel's time in that sample
        self.spent = 0.0     # all time spent in the handler
        self.deadline = None  # perf_counter() limit of the running phase
        self.limit_s = None

    def _kernel(self):
        H = self._rows.copy()
        for j in range(8):
            for i in range(j + 1, j + 6):
                H[i] = (H[i] - 3 * H[j]) % 97

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        # an untimed first round brings the kernel's code and data back into
        # the caches, so the program's own cache use does not slow the probe
        self._kernel()
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self.times.append(t0)
        self.seconds.append(t1 - t0)
        self.spent += perf_counter() - start
        if self.deadline is not None and t0 > self.deadline:
            self.deadline = None
            raise OperationTimeout(f"over {self.limit_s} s")

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def limited(self, limit_s, fn, *args):
        """fn(*args), raising OperationTimeout once it runs past limit_s."""
        self.limit_s = limit_s
        self.deadline = perf_counter() + limit_s
        try:
            return fn(*args)
        finally:
            self.deadline = None

    def wait_for_sample(self):
        """Block until the next sample, so that the last phase has samples
        on both sides."""
        n = len(self.times)
        while len(self.times) == n:
            pass

    def clock(self):
        return perf_counter(), self.spent

    def since(self, clock):
        """The phase since `clock`: (start, end, wall seconds without the
        handler's time).  Normalise it once the run is over, when the
        samples after it exist too."""
        t0, spent0 = clock
        t1 = perf_counter()
        return t0, t1, t1 - t0 - (self.spent - spent0)

    def reading(self, t0, t1):
        """Mean kernel seconds over [t0, t1); for an interval too short to
        hold a sample, over the samples just before and after it."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_left(self.times, t1)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        if lo == hi:
            raise RuntimeError("no probe sample yet")
        return statistics.fmean(self.seconds[lo:hi])

    def summary(self):
        return {"samples": len(self.times), "reference_s": REFERENCE_S,
                "median_s": statistics.median(self.seconds),
                "exponents": EXPONENTS}


def normalise(wall, reading, beta):
    """Wall seconds at the reference speed; see the module docstring."""
    return wall * (REFERENCE_S / reading) ** beta
