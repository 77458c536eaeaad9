"""Machine-speed probe.

The CPU speed of a shared 2-core box drifts by up to 1.7x within seconds
(other tenants, no steal time reported, process CPU time tracks wall time),
so raw wall times of two runs are not comparable. The benchmark runs this
fixed probe between reports and scales every time it reports by
PROBE_REF_S / probe time, the speed the probe implies at that moment. The
probe mixes the two costs the program pays: NumPy arithmetic with powers on
small arrays, and interpreted Python. It never changes, so a change to the
program moves the scaled times and a change of machine speed does not.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the 2-core Intel Xeon the benchmark was tuned on.
PROBE_REF_S = 0.002

_X = np.linspace(0.5, 1.5, 512).reshape(64, 8)


def probe_s() -> float:
    """Seconds one pass of the fixed probe takes now."""
    start = time.perf_counter()
    for _ in range(40):
        y = _X ** 1.5 + 0.3 * (2.0 - _X) ** 2.5
        np.minimum(y, 1.0).sum()
    acc = 0
    for i in range(12000):
        acc += i * i
    return time.perf_counter() - start
