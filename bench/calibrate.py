"""Machine-speed calibration, interleaved with the measurements.

On a shared host the speed of a core drifts by up to 80% over seconds to
minutes (other tenants, clock changes), much the same for all
interpreter-bound code.  The benchmark therefore runs this fixed,
program-independent loop before every timed item and reports item times
scaled to a reference speed:

    reported = measured * REFERENCE_S / (calibration time nearby)

On a machine whose calibration loop takes REFERENCE_S, reported times equal
measured ones.  Run records keep the measured values and the speed factor.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# calibration time of one loop on the reference machine (Intel Xeon, 2 cores)
REFERENCE_S = 1.0e-3
# calibration samples on each side of an item that form its local speed
WINDOW = 6


def calibration_loop() -> float:
    """Seconds for one fixed loop of Fraction and float arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(1, i) * Fraction(i + 1, 3)
    x = 0.5
    for i in range(4000):
        x = (x * 1.0000001 + i % 7) % 1000.0
    return time.perf_counter() - start


def speed_factors(calibrations: list[float]) -> list[float]:
    """Local slowdown per sample: median of nearby calibrations / REFERENCE_S."""
    n = len(calibrations)
    return [
        statistics.median(calibrations[max(0, i - WINDOW): i + WINDOW + 1]) / REFERENCE_S
        for i in range(n)
    ]
