"""Calibration kernels: how fast the machine runs at the moment of a pass.

The 2-core sandbox the benchmark was written on shares its host, and the
speed it gives one process is not steady: a fixed loop runs up to 1.6x its
best time within seconds, and a whole pass of ``cli-pipeline`` took 10 to
20 s within minutes, with process CPU time equal to wall time and no steal
time reported. A pass therefore runs a fixed kernel before every job and
after the last one, and the runner scales the pass's times by the kernel's
nominal time over its mean measured time (``speed_factor``). A scaled time
is what the pass would have taken on a machine that runs the kernel in its
nominal time.

Each kernel is the benchmark's own code and calls nothing in ``zassenhaus``,
so a change to the program cannot move it. Each resembles the work of its
workload, because the drift does not slow every kind of work alike: a
pure-Python kernel tracked the series jobs but not the numpy jobs of the
finite oracle, which drift less.
"""
from __future__ import annotations

import statistics


def series_kernel() -> int:
    """Plain-int truncated series arithmetic: 1 / (1 - 3t + t^2 - 2t^3) and its square."""
    order = 440
    den = (1, -3, 1, -2)
    inv = [1] + [0] * order
    for n in range(1, order + 1):
        inv[n] = -sum(den[k] * inv[n - k] for k in range(1, min(n, 3) + 1))
    square = [sum(inv[k] * inv[n - k] for k in range(n + 1)) for n in range(order + 1)]
    return square[-1]


def numpy_kernel() -> int:
    """Elimination mod 3 of a fixed 320 x 90 int64 matrix, then a unique over 40000 ints."""
    import numpy as np

    rng = np.random.default_rng(7)
    m = rng.integers(0, 3, size=(320, 90), dtype=np.int64)
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.nonzero(m[rank:, col])[0]
        if len(pivots) == 0:
            continue
        r = rank + pivots[0]
        m[[rank, r]] = m[[r, rank]]
        m[rank] = (m[rank] * m[rank, col]) % 3  # x * x = 1 mod 3 for x = 1, 2
        below = m[rank + 1:, col]
        hits = np.nonzero(below)[0]
        if len(hits):
            m[rank + 1 + hits] = (m[rank + 1 + hits] - np.outer(below[hits], m[rank])) % 3
        rank += 1
    keys = rng.integers(0, 1 << 20, size=40_000)
    return rank + len(np.unique((keys * 2654435761) % 1000003))


# workload -> (kernel, its nominal time in seconds: its median on the machine
# the reference figures of README.md were measured on)
KERNELS = {
    "cli-pipeline": (series_kernel, 0.023),
    "finite-oracle": (numpy_kernel, 0.028),
}


def speed_factor(workload: str, kernel_seconds: list[float]) -> float:
    """Nominal over mean measured kernel time: multiply a pass's times by it."""
    return KERNELS[workload][1] / statistics.fmean(kernel_seconds)
