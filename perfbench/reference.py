"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the same CPU-bound work can take 1.5x longer
for tens of seconds at a time, longer than a run lasts, so run-to-run
spread of raw timings is set by the neighbours rather than by the program.
The benchmark times this kernel between chunks (outside the timed region)
and scales every chunk's time by ``REF_SECONDS / (kernel time next to the
chunk)``: timings then read as on a host where the kernel takes
``REF_SECONDS``.  The kernel mixes interpreter work and small NumPy calls,
as the matcher does, and never touches ``repro``.
"""

from __future__ import annotations

import statistics
import time

#: Normalised timings are expressed at the host speed where the kernel takes
#: this long: a typical time on the 2-vCPU Intel Xeon VM (CPython 3.11,
#: NumPy 2.4) the benchmark was built on, whose fast stretches take ~2.9 ms.
REF_SECONDS = 0.0045


def reference_seconds() -> float:
    """Wall time of one run of the fixed kernel (about REF_SECONDS)."""
    import numpy as np

    a = np.arange(60_000)
    t0 = time.perf_counter()
    s = 0
    d = {}
    for i in range(15_000):
        s += i * i
        d[i & 255] = s
    np.sort(a[::-1])
    np.cumsum(a)
    np.unique(a % 977)
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """``REF_SECONDS`` over the median of kernel times taken near a measurement."""
    return REF_SECONDS / statistics.median(samples)
