"""Speed probe: how fast the core ran while each op ran.

The cores of the VM this benchmark was built on alternate, on a scale of
seconds, between a fast state and one about 1.6x slower (work of another
tenant on the same physical core).  CPU time tracks wall time, so the
slowdown is in execution, and it can cover anywhere from none to most of
a minute; raw op times then spread by 25-40% between runs.

The probe runs a fixed pure-Python kernel (0.14 ms in the fast state; it
keeps no data that the op's working set could evict) every 50 ms from a
SIGALRM handler in the worker's own thread, and records when it ran and
how long it took.  An op's normalized time is its wall time times
REFERENCE_S over the mean probe time during the op: about the time the op
takes in the fast state.  The probe costs about 0.3% of the run.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 1.42e-4  # the kernel's time in the fast state, where built


def kernel():
    x = 1.0
    for _ in range(4000):
        x = x * 1.0000001 + 1e-9
    return x


class SpeedProbe:
    def __init__(self):
        self.samples = []      # (start, duration)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalized(self, start, seconds):
        """`seconds` rescaled to the reference speed over [start, +seconds].

        An interval too short to hold a sample uses the nearest two.
        """
        times = np.array([s for s, _ in self.samples])
        durations = np.array([d for _, d in self.samples])
        inside = (times >= start) & (times < start + seconds)
        if inside.sum() < 2:
            inside = np.argsort(np.abs(times - start))[:2]
        return seconds * REFERENCE_S / float(durations[inside].mean())
