"""Host speed, sampled over the same interval as the workload.

The reference host is shared, and its speed drifts by a third or more over
minutes with no CPU steal reported: the same phase-desk seed took 30 s and
41 s in two runs. A fixed calibration kernel runs twice, for about 0.4 ms in
all, every 50 ms of wall time from a SIGALRM handler. The second, warm call
samples the processor's speed while the benchmark sets up and runs. The
end-to-end times are then reported at the reference speed: measured time x
(REFERENCE_S / mean kernel time). The kernel does what the recovery loop
does, tiny numpy products and Python overhead, so both slow down together.
Over 150 s of repeated identical phase blocks this cut the spread of block
times from 27 % to 7 %.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 220e-6  # typical mean kernel time on the reference host
INTERVAL_S = 0.05
_A = np.full((16, 4), 0.5)


def kernel() -> np.ndarray:
    z = np.ones(4)
    for _ in range(40):
        h = np.maximum(_A @ z, 0.0)
        z = z - 1e-9 * (_A.T @ h)
    return z


class HostSpeed:
    """Context manager that samples ``kernel`` every INTERVAL_S of wall time.

    Install it in the main thread only; signal handlers run there.
    """

    def __init__(self):
        self.kernel_s = 0.0  # total of the timed kernel calls
        self.handler_s = 0.0  # total time in the handler, to take off the wall time
        self.samples = 0
        self._previous = None

    def _tick(self, signum, frame):
        # The first call brings the kernel back into cache, so the timed one
        # measures the processor rather than what the workload left in cache.
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.kernel_s += t2 - t1
        self.handler_s += t2 - t0
        self.samples += 1

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def kernel_us(self) -> float:
        return self.kernel_s / self.samples * 1e6 if self.samples else 0.0

    def mark(self) -> tuple:
        return self.kernel_s, self.handler_s, self.samples

    def since(self, mark: tuple) -> tuple[float, float]:
        """(factor, handler seconds) over the interval since ``mark``.

        Multiply a time measured in that interval by the factor to get it at
        the reference speed, after taking off the handler's seconds.
        """
        kernel_s, handler_s, samples = mark
        n = self.samples - samples
        factor = REFERENCE_S * n / (self.kernel_s - kernel_s) if n else 1.0
        return factor, self.handler_s - handler_s
