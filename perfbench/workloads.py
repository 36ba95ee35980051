"""The benchmark's workloads: seeded scenario generators and the library
calls that make up one op.

Every generator is a pure function of (seed, index), so the same seed gives
the same pool of scenarios. The library is imported from the ``src``
directory of the checkout this file lives in, never from an installed copy,
so the benchmark always measures the source next to it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import robust_select  # noqa: E402

if Path(robust_select.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"robust_select was not imported from {SRC}")

from robust_select import (  # noqa: E402
    BenchConfig,
    PartitionMatroid,
    Scenario,
    UniformMatroid,
    generate_scenario,
    trial_seed,
)

# The paper's sweep: 5 agents, 50 actions, quadrant partition; also the
# solver parameters `robust-select bench` uses.
PAPER_CONFIG = BenchConfig()
PAPER_Z_CYCLE = 10


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload with a single caller.

    ``pool_size`` scenarios are generated in set-up; op ``k`` runs on pool
    entry ``k % pool_size``. The first ``exact_ops`` ops always run, however
    long they take, and define the run's exact metrics. ``kernel_reps``
    reference kernels (``speed.py``) run after each op to measure the host
    speed; it is set so that they take about a tenth of an op or more.
    """

    name: str
    generate: Callable[[int, int], Scenario]
    with_ratio_baseline: bool
    pool_size: int
    exact_ops: int
    kernel_reps: int


def paper_quadrant(seed: int, index: int) -> Scenario:
    z = 1 + index % PAPER_Z_CYCLE
    return generate_scenario(PAPER_CONFIG, z, trial_seed(seed, index))


def _ring(rng: np.random.Generator, count: int, radius: float) -> list:
    angle = rng.uniform(0.0, 2.0 * math.pi, count)
    r = radius + rng.normal(0.0, 2.0, count)
    return np.column_stack((50.0 + r * np.cos(angle), 50.0 + r * np.sin(angle))).tolist()


def ring_uniform(seed: int, index: int) -> Scenario:
    """16 agents on a ring of radius 40 and 300 actions on a ring of radius
    45, both around (50, 50); any 3 actions may be chosen."""
    rng = np.random.default_rng((seed, index))
    agents = _ring(rng, 16, 40.0)
    actions = _ring(rng, 300, 45.0)
    return Scenario.from_coords(agents, actions, UniformMatroid(300, 3))


def crowd_grid(seed: int, index: int) -> Scenario:
    """64 agents in 8 Gaussian clusters and 160 uniform actions in a
    100 x 100 square; at most one action per non-empty cell of an 8 x 8
    grid."""
    rng = np.random.default_rng((seed, index))
    centres = rng.uniform(10.0, 90.0, size=(8, 2))
    agents = np.repeat(centres, 8, axis=0) + rng.normal(0.0, 3.0, size=(64, 2))
    actions = rng.uniform(0.0, 100.0, size=(160, 2))
    cells = np.minimum((actions // 12.5).astype(int), 7)
    cell_id = cells[:, 0] * 8 + cells[:, 1]
    blocks = tuple(tuple(np.flatnonzero(cell_id == c).tolist()) for c in np.unique(cell_id))
    matroid = PartitionMatroid(blocks, (1,) * len(blocks))
    return Scenario.from_coords(agents.tolist(), actions.tolist(), matroid)


# Why each workload exists is recorded with its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-quadrant",
            generate=paper_quadrant,
            with_ratio_baseline=True,
            pool_size=1000,
            exact_ops=300,
            kernel_reps=2,
        ),
        Workload(
            name="ring-uniform",
            generate=ring_uniform,
            with_ratio_baseline=False,
            pool_size=400,
            exact_ops=60,
            kernel_reps=6,
        ),
        Workload(
            name="crowd-grid",
            generate=crowd_grid,
            with_ratio_baseline=False,
            pool_size=300,
            exact_ops=60,
            kernel_reps=8,
        ),
    )
}
