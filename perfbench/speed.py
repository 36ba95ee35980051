"""Host speed, measured with a fixed reference kernel between ops.

The benchmark shares a host whose speed changes by up to about 1.8x within
seconds: on a 2-vCPU Xeon VM the kernel below takes either about 2.8 ms or
about 5 ms for stretches of several seconds, and the library's ops slow
down in step. No run length averages that away, so each op's wall time is
scaled by the speed measured right around it:

    scaled_ms = wall_ms * REFERENCE_KERNEL_MS / kernel_ms

where ``kernel_ms`` is the mean of the kernel blocks just before and just
after the op. A scaled time is the op's time on a host where the kernel
takes ``REFERENCE_KERNEL_MS``; the constant sets the scale only.

The kernel is pure Python of the same kind as the library's hot path
(``math.dist``, then max/sum over rows of a distance table in a greedy
loop) on inputs fixed here, and it imports nothing from the library, so
no change to the library moves it.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

REFERENCE_KERNEL_MS = 2.8

_rng = random.Random(20220623)
_AGENTS = tuple((_rng.uniform(0.0, 100.0), _rng.uniform(0.0, 100.0)) for _ in range(16))
_ACTIONS = tuple((_rng.uniform(0.0, 100.0), _rng.uniform(0.0, 100.0)) for _ in range(200))
_PICKS = 4


def kernel() -> list[int]:
    """Greedy max-sum-of-max selection of ``_PICKS`` actions."""
    table = [tuple(math.dist(a, p) for p in _ACTIONS) for a in _AGENTS]
    current = [0.0] * len(_AGENTS)
    chosen: list[int] = []
    for _ in range(_PICKS):
        best, best_j = -1.0, -1
        for j in range(len(_ACTIONS)):
            if j in chosen:
                continue
            gain = sum(max(c, row[j]) for c, row in zip(current, table))
            if gain > best:
                best, best_j = gain, j
        chosen.append(best_j)
        current = [max(c, row[best_j]) for c, row in zip(current, table)]
    return chosen


# The kernel's output is fixed; a different one means it no longer does
# the same work.
_EXPECTED = kernel()


def kernel_ms(reps: int) -> float:
    """Mean wall time of one kernel call over ``reps`` calls, in ms."""
    t0 = perf_counter()
    for _ in range(reps):
        if kernel() != _EXPECTED:
            raise RuntimeError("the reference kernel changed its output")
    return (perf_counter() - t0) * 1000.0 / reps


def scales(blocks: list[float]) -> list[float]:
    """Scale factor of each interval between consecutive kernel blocks."""
    return [2.0 * REFERENCE_KERNEL_MS / (before + after) for before, after in zip(blocks, blocks[1:])]
