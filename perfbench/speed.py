"""Host-speed calibration for the gated timings.

On a shared host every instruction can run up to ~40% slower for tens of
seconds at a time, longer than a run, so no statistic over one run's samples
removes it. A fixed numpy kernel that never touches dpkl -- small matrix
products and an elementwise exp, the mix of a training epoch -- is timed at
every step boundary. A step's time at reference speed is its wall time times
REF_S over the kernel's time next to it; a change to dpkl cannot move the
kernel, only the host can. The detail record keeps the raw wall times.
"""

from __future__ import annotations

import time

import numpy as np

# The calibration kernel's time on an idle 2-core Xeon; scales the gated
# timings so that they read as seconds on that host.
REF_S = 1.0e-3


class Calibrator:
    """Times the fixed kernel; the fastest of a few repetitions."""

    REPS = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X = rng.random((45, 100))
        self.W = rng.random((100, 50))
        self.v = rng.random(200_000)

    def measure(self) -> float:
        best = np.inf
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            for _ in range(50):
                self.X @ self.W
            np.exp(-self.v)
            best = min(best, time.perf_counter() - t0)
        return best


class StepClock:
    """Marks step boundaries and calibrates at each one.

    The harness marks just before and just after the timed call, and a
    training workload passes ``mark`` as its ``trajectory_hook``. Calibration
    time is left out of every interval.
    """

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator
        self.marks: list[tuple[float, float, float]] = []  # (arrive, leave, calib_s)

    def mark(self, *_hook_args) -> None:
        arrive = time.perf_counter()
        calib = self.calibrator.measure()
        self.marks.append((arrive, time.perf_counter(), calib))

    def intervals(self) -> list[tuple[float, float]]:
        """(wall seconds, mean calibration at its two ends) between marks."""
        return [
            (arrive - leave, 0.5 * (c0 + c1))
            for (_, leave, c0), (arrive, _, c1) in zip(self.marks, self.marks[1:])
        ]
