"""Machine-speed reference for the benchmark's timings.

The machine the benchmark was tuned on (2 vCPUs shared with other
tenants) runs the same code up to 2x slower for stretches lasting from
milliseconds to minutes; raw throughput spread 13-37% over ten runs,
which a bound of 25% or less cannot reliably hold.  So every timed
unit of work is bracketed by two runs of a fixed pure-Python kernel, and
reported as if the machine had run at reference speed: the measured time
scaled by REF_SECONDS over the mean of the two kernel times.  The raw
times are kept in each run's record under bench/out/.
"""

from __future__ import annotations

import cmath
import time

# the kernel's size, and about the seconds it takes on the machine this
# was tuned on (an Intel Xeon vCPU) when nothing else contends
REF_POINTS = 1500
REF_PASSES = 3
REF_SECONDS = 0.005


def reference_seconds() -> float:
    """Time of the fixed kernel: how fast the machine is right now.

    The kernel mixes what hypfeuer spends its time on (complex
    arithmetic, small allocations, dict and list work) over a working set
    of some hundred KiB: a tight arithmetic loop alone slowed less than
    hypfeuer did when other tenants loaded the machine, and so corrected
    only part of that slowdown.
    """
    start = time.perf_counter()
    points = [complex(i * 0.001, -i * 0.0007) for i in range(REF_POINTS)]
    acc = 0.0
    for k in range(REF_PASSES):
        seen = {}
        for z in points:
            w = (z - 0.1j) / (1 + 0.1j * z)
            seen[round(w.real, 4)] = (w, abs(w) + cmath.phase(w))
        acc += sum(v[1] for v in seen.values())
        points.sort(key=lambda z, k=k: z.imag * (k + 1))
    return time.perf_counter() - start


def scaled(elapsed: float, before: float, after: float) -> float:
    """elapsed at reference speed, from the kernel times around it."""
    return elapsed * 2 * REF_SECONDS / (before + after)
