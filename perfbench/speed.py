"""How fast this host runs Python right now, sampled while queries run.

On a VM that shares its cores with other tenants the same code runs 20-45 %
faster or slower from one minute to the next, and CPU time follows wall
time, so neither tells a slower program from a busier host.  ``SpeedProbe``
times a fixed pure-Python loop, which never calls metanov, just before each
query and then every ``INTERVAL_S`` while the query runs (from a SIGALRM
handler on the main thread; no thread or process is started).  A query's
time at reference speed is the time it would have taken on a host where
the probe takes exactly ``REFERENCE_PROBE_S``: each stretch of its own
time (without the probe's) scaled by ``REFERENCE_PROBE_S`` over the probe
time sampled in that stretch.  With evenly spaced samples that is its own
time times ``REFERENCE_PROBE_S`` over the harmonic mean of its samples,
which also handles a query during which the host changes speed.  A
change to metanov moves that time as it moves the wall time; a change in
the host's speed moves the probe too and mostly cancels.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.25
PROBE_ITERATIONS = 8000
# Median probe time on the host the baseline was measured on (x86_64 VM,
# 2 vCPUs, CPython 3.11.7), so that reference seconds read close to its
# wall seconds.  It is a fixed unit: never re-measure it per run.
REFERENCE_PROBE_S = 0.005


def _probe_loop() -> int:
    # Dictionary updates with small tuple keys and modular arithmetic: the
    # operations metanov's oracle and table sweeps spend their time on, on
    # a working set of 8000 keys, a few hundred kilobytes.
    counts: dict = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = ((i * 7919) % 1021, i & 7)
        counts[key] = counts.get(key, 0) + i % 1009
        acc = (acc * 31 + i) % 1000003
    return acc + len(counts)


def probe_s(samples: int = 5) -> float:
    """Harmonic mean time of ``samples`` probe loops run now."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        _probe_loop()
        times.append(perf_counter() - t0)
    return statistics.harmonic_mean(times)


class SpeedProbe:
    """Use as a context manager around the queries; call ``start`` just
    before and ``stop`` just after each one."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._old_handler = None
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer tick during an explicit sample: skip it
            return
        self._busy = True
        t0 = perf_counter()
        _probe_loop()
        self.samples.append((t0, perf_counter() - t0))
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def start(self) -> int:
        self.sample()
        return len(self.samples) - 1

    def stop(self, first: int, t0: float, t1: float) -> tuple[float, float]:
        """The own time of a query timed from ``t0`` to ``t1`` (without the
        probes run in between) and that time at reference speed."""
        during = [dt for start, dt in self.samples[first + 1:] if t0 <= start < t1]
        own = t1 - t0 - sum(during)
        probe_s = statistics.harmonic_mean([self.samples[first][1]] + during)
        return own, own * REFERENCE_PROBE_S / probe_s
