"""Monte Carlo benchmark harness.

Scenarios are drawn uniformly over a square region that is split into four
equal quadrants; each quadrant is one block of a partition constraint with a
shared per-block capacity z. Scenario seeds are mixed stably out of
(base seed, trial) only: every algorithm in a (z, trial) cell consumes the
identical scenario, and the whole z sweep reuses the same scenarios per
trial index, so both cross-algorithm and cross-z comparisons are paired
(common random numbers) instead of drowning small effects in fresh
sampling noise. Results land in CSV files; plotting is left to whatever
consumes them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import astuple, dataclass, fields, replace
from typing import Iterable, Sequence, TextIO, get_type_hints

import numpy as np

from .matroid import PartitionMatroid, is_int, is_real
from .scenario import Scenario
from .solvers import SOLVERS, SolverParams


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark settings. Defaults reproduce the headline comparison:
    5 agents and 50 actions in a 100 x 100 region, capacities 1..10,
    100 trials per capacity."""

    n_agents: int = 5
    n_actions: int = 50
    region: float = 100.0
    z_min: int = 1
    z_max: int = 10
    trials: int = 100
    base_seed: int = 0
    delta: float = SolverParams.delta
    epsilon: float | None = SolverParams.epsilon
    measure_wall_time: bool = True

    def __post_init__(self) -> None:
        for name in ("n_agents", "n_actions", "z_min", "z_max", "trials", "base_seed"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"bench config: {name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.measure_wall_time, bool):
            raise ValueError(f"bench config: measure_wall_time must be true or false, got {self.measure_wall_time!r}")
        if self.n_agents < 1:
            raise ValueError("bench config: n_agents must be >= 1")
        if self.n_actions < 0:
            raise ValueError("bench config: n_actions must be >= 0")
        if not (is_real(self.region) and self.region > 0):
            raise ValueError(f"bench config: region must be a finite real number > 0, got {self.region!r}")
        if self.z_min < 0 or self.z_max < self.z_min:
            raise ValueError("bench config: need 0 <= z_min <= z_max")
        if self.trials < 1:
            raise ValueError("bench config: trials must be >= 1")
        # Delegate solver-parameter validation.
        self.solver_params()

    def solver_params(self) -> SolverParams:
        return SolverParams(delta=self.delta, epsilon=self.epsilon)

    @classmethod
    def from_json_file(cls, path: str) -> "BenchConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bench config {path}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError(f"bench config {path}: top level must be an object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"bench config {path}: unknown field '{sorted(unknown)[0]}'")
        return cls(**data)


@dataclass(frozen=True)
class TrialResult:
    """One (capacity, trial, algorithm) benchmark record."""

    z: int
    trial: int
    algorithm: str
    objective: float
    evaluations: float
    wall_time_ms: float
    seed: int


@dataclass(frozen=True)
class SummaryRow:
    z: int
    algorithm: str
    mean_objective: float
    sd_objective: float
    mean_evaluations: float
    sd_evaluations: float
    mean_wall_time_ms: float


def trial_seed(base_seed: int, trial: int) -> int:
    """Stable 63-bit seed for one trial index. Hash-based so that the
    mapping never changes across runs, platforms, or interpreter versions;
    adding algorithms or capacity settings never perturbs scenarios."""
    digest = hashlib.sha256(f"{base_seed}:{trial}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# A point's quadrant code, 0 to 3, is (x >= half) + 2 (y >= half).
_QUADRANT_WEIGHTS = np.array([1, 2])


def quadrant_blocks(actions: np.ndarray, half: float) -> tuple[tuple[int, ...], ...]:
    """The ids of the (M, 2) ``actions`` in each quadrant of a square split
    at ``half`` on both axes, ascending within a block: lower left, lower
    right, upper left, upper right. Points on the mid lines belong to the
    right/upper half. One stable argsort of the quadrant codes puts the ids
    in block order, and one bincount gives the block sizes."""
    quadrant = (actions >= half) @ _QUADRANT_WEIGHTS
    ids = quadrant.argsort(kind="stable").tolist()
    ends = np.bincount(quadrant, minlength=4).cumsum().tolist()
    return tuple(tuple(ids[start:end]) for start, end in zip([0, *ends], ends))


def generate_scenario(config: BenchConfig, z: int, seed: int) -> Scenario:
    """Draw agent and action positions i.i.d. uniform over the region and
    build the quadrant partition constraint (``quadrant_blocks``) with
    capacity z per block. Block sizes are whatever the draw produces. The
    agents are the first N rows of one (N + M, 2) draw and the actions the
    rest: the same doubles as drawing the agents, then the actions."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, config.region, size=(config.n_agents + config.n_actions, 2))
    agents, actions = points[: config.n_agents], points[config.n_agents :]
    blocks = quadrant_blocks(actions, config.region / 2.0)
    return Scenario.from_coords(agents, actions, PartitionMatroid(blocks, (z,) * 4))


def _run_cell(
    config: BenchConfig, z: int, trial: int, seed: int, scenario: Scenario, algorithms: tuple[str, ...]
) -> list[TrialResult]:
    params = config.solver_params()
    scenario.distances  # built here, or the first solver's wall time would include it
    results = []
    for name in algorithms:
        solution = SOLVERS[name](scenario, params)
        results.append(
            TrialResult(
                z=z,
                trial=trial,
                algorithm=name,
                objective=solution.min_value,
                evaluations=solution.f_evaluations,
                wall_time_ms=solution.wall_time_s * 1000.0 if config.measure_wall_time else 0.0,
                seed=seed,
            )
        )
    return results


def run_benchmark(
    config: BenchConfig,
    algorithms: Sequence[str] = ("fast", "ratio"),
    workers: int = 1,
) -> list[TrialResult]:
    """Run every algorithm on every (z, trial) cell, in this process. Output
    order is fixed (by z, trial, algorithm name), and identical configs
    produce identical results. ``workers`` accepts only 1."""
    if not is_int(workers) or workers != 1:
        raise ValueError(f"the benchmark runs in one process: workers must be 1, got {workers!r}")
    names = tuple(algorithms)
    if not names:
        raise ValueError("no algorithms requested")
    for name in names:
        if name not in SOLVERS:
            raise ValueError(f"unknown algorithm '{name}': expected one of {', '.join(SOLVERS)}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate algorithm names requested")
    results = []
    for trial in range(config.trials):
        # Every capacity of a trial has the same points: draw them once.
        seed = trial_seed(config.base_seed, trial)
        drawn = generate_scenario(config, config.z_min, seed)
        for z in range(config.z_min, config.z_max + 1):
            scenario = replace(drawn, matroid=PartitionMatroid(drawn.matroid.blocks, (z,) * 4))
            results += _run_cell(config, z, trial, seed, scenario, names)
    results.sort(key=lambda r: (r.z, r.trial, r.algorithm))
    return results


def aggregate(results: Iterable[TrialResult]) -> list[SummaryRow]:
    """Per-(z, algorithm) means and sample standard deviations, ordered by
    (z, algorithm). Single-trial groups report a standard deviation of 0."""
    groups: dict[tuple[int, str], list[TrialResult]] = {}
    for r in results:
        groups.setdefault((r.z, r.algorithm), []).append(r)
    if not groups:
        raise ValueError("cannot aggregate an empty result set")
    rows = []
    for (z, algorithm), members in sorted(groups.items()):
        objectives = [m.objective for m in members]
        evaluations = [m.evaluations for m in members]
        times = [m.wall_time_ms for m in members]
        rows.append(
            SummaryRow(
                z=z,
                algorithm=algorithm,
                mean_objective=_mean(objectives),
                sd_objective=_sample_sd(objectives),
                mean_evaluations=_mean(evaluations),
                sd_evaluations=_sample_sd(evaluations),
                mean_wall_time_ms=_mean(times),
            )
        )
    return rows


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _sample_sd(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def _write_records(handle: TextIO, record: type, records: Iterable) -> None:
    """A header of ``record``'s field names in declaration order, then each
    record's values; the csv module writes a float in repr (shortest
    round-trip) form."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(f.name for f in fields(record))
    writer.writerows(map(astuple, records))


def write_results_csv(results: Iterable[TrialResult], path: str) -> None:
    """Raw per-trial CSV; reading the file back recovers its floats exactly."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_records(handle, TrialResult, results)
    except OSError as exc:
        raise OSError(f"cannot write results CSV {path}: {exc}") from exc


def read_results_csv(path: str) -> list[TrialResult]:
    """The records of a raw per-trial CSV, each column converted by the type
    of its ``TrialResult`` field. A row with more or fewer fields than the
    header is refused with ValueError, naming the file and the line."""
    types = get_type_hints(TrialResult)
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != list(types):
                raise ValueError(f"results CSV {path}: unexpected header {header}")
            records = []
            for row in reader:
                if len(row) != len(types):
                    raise ValueError(
                        f"results CSV {path}, line {reader.line_num}: {len(row)} fields, the header has {len(types)}"
                    )
                records.append(TrialResult(*(kind(value) for kind, value in zip(types.values(), row))))
            return records
    except OSError as exc:
        raise OSError(f"cannot read results CSV {path}: {exc}") from exc


def write_summary(rows: Iterable[SummaryRow], handle: TextIO) -> None:
    """The per-(z, algorithm) summary as CSV text; the one format of the
    summary file and of ``robust-select bench``'s stdout."""
    _write_records(handle, SummaryRow, rows)


def write_summary_csv(rows: Iterable[SummaryRow], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_summary(rows, handle)
    except OSError as exc:
        raise OSError(f"cannot write summary CSV {path}: {exc}") from exc
