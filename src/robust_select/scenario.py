"""Problem instances: agent/action geometry, per-agent proximity objectives,
and the worst-case (minimum over agents) system objective.

Each agent values an action set by the largest distance from itself to any
selected action; the system is scored by its worst agent, which is exactly
what an attacker removing the best agent's contribution leaves behind.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import product, starmap
from typing import Iterable, NamedTuple

import numpy as np

from .matroid import Matroid, ground_ids, is_real, matroid_from_dict, matroid_to_dict

# Agent-action pairs a scenario may have: about 1 GB, at the ~32 bytes a pair a solve holds.
DISTANCE_PAIRS_CAP = 30_000_000


class Point2(NamedTuple):
    """A planar location."""

    x: float
    y: float


class EvaluationCounter:
    """Tally of objective evaluations: computing one agent's objective on one
    set counts 1. Divide by the agent count (``f_equivalent``) to compare
    algorithms that evaluate the averaged surrogate against ones that touch
    individual objectives directly. Counts never decrease."""

    __slots__ = ("individual_evals",)

    def __init__(self) -> None:
        self.individual_evals = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("evaluation counts only grow")
        self.individual_evals += n

    def f_equivalent(self, n_agents: int) -> float:
        return self.individual_evals / n_agents

    def __repr__(self) -> str:
        return f"EvaluationCounter({self.individual_evals})"


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance: agent and action locations plus the
    selection constraint over action ids 0..M-1. Safe to share across
    threads; all mutable run state lives in per-run counters."""

    agents: tuple[Point2, ...]
    actions: tuple[Point2, ...]
    matroid: Matroid

    def __post_init__(self) -> None:
        if len(self.agents) < 1:
            raise ValueError("scenario needs at least one agent")
        for label, points in (("agents", self.agents), ("actions", self.actions)):
            for p in points:
                if not (math.isfinite(p.x) and math.isfinite(p.y)):
                    raise ValueError(f"scenario {label}: coordinates must be finite")
        if self.matroid.n_actions != len(self.actions):
            raise ValueError("matroid ground set size does not match the action count")

    @classmethod
    def from_coords(
        cls,
        agents: Iterable[tuple[float, float]],
        actions: Iterable[tuple[float, float]],
        matroid: Matroid,
    ) -> "Scenario":
        return cls(
            agents=tuple(Point2(float(x), float(y)) for x, y in agents),
            actions=tuple(Point2(float(x), float(y)) for x, y in actions),
            matroid=matroid,
        )

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def distances(self) -> np.ndarray:
        """Agent-to-action distance matrix, one row per agent: a read-only
        float64 N x M array, built on first use so constructing a scenario
        stays free of numpy work. Entries are ``math.dist`` values of each
        (agent, action) pair in row order, one ``starmap``. More than
        DISTANCE_PAIRS_CAP pairs are refused with ValueError before allocating.

        ``math.dist`` stays, one call per pair, because the vectorised forms
        round differently and every selection and golden file rests on these
        bits. Over 100 generated scenarios of each benchmark workload (seeds
        1 and 101), ``np.hypot`` differed in the last bit on 136-154 of
        25,000 paper-quadrant pairs, 2,508-2,576 of 480,000 ring-uniform
        pairs and 5,764-5,842 of 1,024,000 crowd-grid pairs, and
        ``np.sqrt(dx * dx + dy * dy)`` on about 16% of all pairs.

        A matrix whose largest entry times 2 N is not a finite double is
        refused with ValueError: that covers an infinite distance, the
        surrogate's sum over agents and the bisection's midpoint sum."""
        shape = (self.n_agents, self.n_actions)
        if shape[0] * shape[1] > DISTANCE_PAIRS_CAP:
            raise ValueError(f"N x M = {shape[0]} x {shape[1]} exceeds DISTANCE_PAIRS_CAP = {DISTANCE_PAIRS_CAP}")
        pairs = starmap(math.dist, product(self.agents, self.actions))
        array = np.fromiter(pairs, np.float64, shape[0] * shape[1]).reshape(shape)
        largest = float(array.max(initial=0.0))
        if not math.isfinite(2 * shape[0] * largest):
            raise ValueError(
                f"largest distance {largest!r} exceeds the distance scale limit "
                f"{sys.float_info.max / (2 * shape[0]):.6g} = float64 max / (2 x {shape[0]} agents): "
                "2 x N x the largest distance must be finite"
            )
        array.setflags(write=False)
        return array


def agent_values(scenario: Scenario, subset: Iterable[int]) -> np.ndarray:
    """Every agent's value of ``subset``: the largest distance from the
    agent to any selected action, 0 for the empty set. Charges nothing. A
    step-1 ``range`` with 0 <= start <= stop <= M (the trivial bound) reads a slice."""
    distances, n = scenario.distances, scenario.n_actions
    if isinstance(subset, range) and subset.step == 1 and 0 <= subset.start <= subset.stop <= n:
        return distances[:, subset.start : subset.stop].max(axis=1, initial=0.0)
    return distances[:, ground_ids(subset, n)].max(axis=1, initial=0.0)


def min_objective(
    scenario: Scenario,
    subset: Iterable[int],
    counter: EvaluationCounter | None = None,
) -> float:
    """Worst agent's value of ``subset``, the minimum of ``agent_values``;
    charges one evaluation per agent."""
    values = agent_values(scenario, subset)
    if counter is not None:
        counter.add(scenario.n_agents)
    return float(values.min())


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "agents": [[p.x, p.y] for p in scenario.agents],
        "actions": [[p.x, p.y] for p in scenario.actions],
        "matroid": matroid_to_dict(scenario.matroid),
    }


def scenario_from_dict(data: object) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("scenario config: top level must be an object")
    agents = _coord_field(data, "agents", minimum=1)
    actions = _coord_field(data, "actions", minimum=0)
    if "matroid" not in data:
        raise ValueError("scenario config: field 'matroid' is missing")
    matroid = matroid_from_dict(data["matroid"], n_actions=len(actions))
    return Scenario(agents=agents, actions=actions, matroid=matroid)


def _coord_field(data: dict, name: str, minimum: int) -> tuple[Point2, ...]:
    if name not in data:
        raise ValueError(f"scenario config: field '{name}' is missing")
    raw = data[name]
    if not isinstance(raw, list) or len(raw) < minimum:
        raise ValueError(
            f"scenario config: field '{name}' must be a list of at least {minimum} [x, y] pairs"
        )
    points = []
    for entry in raw:
        ok = (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and all(map(is_real, entry))
        )
        if not ok:
            raise ValueError(f"scenario config: field '{name}' must contain finite [x, y] pairs")
        points.append(Point2(float(entry[0]), float(entry[1])))
    return tuple(points)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario config {path}: invalid JSON ({exc})") from None
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_dict(scenario), handle)
        handle.write("\n")
