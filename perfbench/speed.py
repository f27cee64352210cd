"""Host-speed calibration for time metrics on a shared host.

On a shared 2-vCPU VM the speed at which the interpreter runs the same
loop drifts by up to 1.8x over tens of seconds (both vCPUs together),
far more than any bound a regression gate could use. The sampler
measures that speed *inside* the timed work: a ``SIGALRM`` every
``INTERVAL_S`` runs a fixed pure-Python loop in the main thread and
records how long it took. A time metric is then reported as

    calibrated = (raw seconds - sampler's own seconds) * REF_NS / mean loop ns

that is, in seconds at the reference speed ``REF_NS`` (the loop's
duration on an uncontended 2-vCPU x86-64 container, Python 3.11.7).
The raw seconds and the factor are printed beside every calibrated
value.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
LOOP = 20_000
REF_NS = 640_000


def _loop() -> int:
    x = 0
    for i in range(LOOP):
        x += i
    return x


class SpeedSampler:
    """Samples the loop's duration every ``INTERVAL_S`` while running."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []  # (start ns, duration ns)
        self._previous = None

    def sample(self, *_: object) -> None:
        start = time.perf_counter_ns()
        _loop()
        self.samples.append((start, time.perf_counter_ns() - start))

    def start(self) -> SpeedSampler:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stop sampling (idempotent). Must run before the interpreter
        exits: finalisation resets the handler while the timer runs."""
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self.sample()

    def calibrate(self, start_ns: int, end_ns: int) -> tuple[float, float]:
        """(calibrated seconds, speed factor) of the interval.

        Samples taken inside the interval give its speed and their own
        time is taken out of it; with none inside, the nearest sample
        stands in."""
        inside = [d for s, d in self.samples if start_ns <= s < end_ns]
        own = sum(inside)
        if not inside:
            middle = (start_ns + end_ns) / 2
            inside = [min(self.samples, key=lambda sd: abs(sd[0] - middle))[1]]
        factor = REF_NS / statistics.fmean(inside)
        return (end_ns - start_ns - own) / 1e9 * factor, factor
