"""Host-speed probe: converts wall seconds to seconds at a reference speed.

The benchmark runs on a shared VM whose vCPU speed swings by up to 2x within
seconds (another tenant on the sibling hyperthread), so two runs of the same
code can differ in wall time by more than any useful bound.  The probe
measures that speed while a result runs: a timer interrupts the main thread
every `INTERVAL_S`, and the handler times a fixed kernel of small numpy
operations and Python bytecode, the same mix as the workloads.  For a window
of wall time,

    normalised = (wall - probe time) * mean(REF_PROBE_S / probe sample)

that is, the wall time minus the probe's own time, scaled by the mean speed
the probe saw relative to `REF_PROBE_S`.  A change to the program moves the
wall time and not the probe, so it moves the normalised time by the same
share; a change in host speed moves both, and cancels.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.025
KERNEL_STEPS = 100
# About the kernel's median time on the 2-vCPU VM the benchmark was written
# on, so normalised seconds there read close to wall seconds.
REF_PROBE_S = 6.0e-4

_A = np.random.default_rng(0).standard_normal((16, 32))
_W = np.random.default_rng(1).standard_normal((32, 8))


def kernel(steps: int = KERNEL_STEPS) -> float:
    acc = 0.0
    for i in range(steps):
        h = np.maximum(_A @ _W, 0.0)
        acc += float(h.sum()) * 1e-9
        d = {"k": i, "v": [i, i + 1]}
        acc += len(d["v"]) + (i % 7)
    return acc


class SpeedProbe:
    """Samples (start, duration) of the kernel on SIGALRM while running."""

    def __init__(self) -> None:
        self.start_at: list[float] = []
        self.duration: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.start_at.append(t0)
        self.duration.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed for the wall window [t0, t1)."""
        inside = [d for s, d in zip(self.start_at, self.duration) if t0 <= s < t1]
        if not inside:
            raise RuntimeError(f"no speed sample in a {t1 - t0:.3f} s window")
        speed = sum(REF_PROBE_S / d for d in inside) / len(inside)
        return (t1 - t0 - sum(inside)) * speed
