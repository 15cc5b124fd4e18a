"""Machine-speed sampling for scaling timed steps to a reference speed.

On a shared machine the speed of the same code drifts by a quarter over
minutes, and the two CPUs drift apart (their speeds barely correlate), so a
probe on another CPU or only at the ends of a long step does not tell how
fast the step ran. ``SpeedSampler`` instead interrupts the main thread with
SIGALRM and, every ``PROBE_EVERY_S`` while the process runs a single thread,
times a fixed probe right there in thread CPU time.
``scale`` then gives a step's seconds at the speed where one probe takes
``REFERENCE_PROBE_S``, minus the time the probes themselves took.
"""

from __future__ import annotations

import signal
import statistics
import threading
import time

import numpy as np

# The timer ticks often so that a threaded command (tune's per-point pools)
# is probed in its short single-threaded moments too; a probe runs at most
# every PROBE_EVERY_S.
TICK_S = 0.02
PROBE_EVERY_S = 0.25
REFERENCE_PROBE_S = 0.003
# A step shorter than a few periods borrows the samples next to it.
WINDOW_S = 1.0

_V = np.arange(64.0)
_M = np.random.default_rng(0).standard_normal((300, 128))


def probe() -> None:
    """A fixed mix of small numpy calls and Python arithmetic, about 3 ms."""
    s = 0.0
    for i in range(150):
        s += float(np.sum((_V - i) ** 2))
    for i in range(8000):
        s += i * i
    for j in range(3):
        s += float(((_M[:, None, :3] - _M[None, :20, :3]) ** 2).sum()) + float((_M @ _M[j]).sum())
    for i in range(60):
        s += float(np.sum((_M[i] - _M[i + 1]) ** 2))


class SpeedSampler:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, probe CPU seconds)
        self._last = float("-inf")

    def _handler(self, signum, frame) -> None:
        # The program's own threads running beside the probe slow it by half
        # again (measured on tune --workers 2), so sample single-threaded
        # moments only.
        start = time.perf_counter()
        if threading.active_count() > 1 or start - self._last < PROBE_EVERY_S:
            return
        self._last = start
        cpu = time.thread_time()
        probe()
        self.samples.append((start, time.thread_time() - cpu))

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def annotate(self, step: dict) -> None:
        """Add ``probe_s`` (mean probe time near the step) and ``probe_cpu_s``
        (probe time spent inside it) to a step with ``start`` and ``end``."""
        start, end = step["start"], step["end"]
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        near = [cpu for t, cpu in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:  # a step that never ran single-threaded
            near = [cpu for _, cpu in self.samples] or [REFERENCE_PROBE_S]
        step["probe_cpu_s"] = sum(inside)
        step["probe_s"] = statistics.mean(near)


def scale(step: dict) -> float:
    """A step's own seconds at the reference machine speed."""
    return (step["seconds"] - step["probe_cpu_s"]) * REFERENCE_PROBE_S / step["probe_s"]
