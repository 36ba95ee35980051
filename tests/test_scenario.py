"""Scenario geometry, per-agent objectives, worst-case evaluation, counters,
and the scenario JSON format."""

import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robust_select import (
    EvaluationCounter,
    PartitionMatroid,
    Point2,
    Scenario,
    UniformMatroid,
    agent_values,
    load_scenario,
    min_objective,
    saturate_robust,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from robust_select.matroid import all_subsets

SQRT50 = math.sqrt(50.0)

coord = st.integers(-1000, 1000).map(lambda v: v / 10.0)


def test_distance_identity():
    assert math.dist(Point2(0.0, 0.0), Point2(0.0, 0.0)) == 0.0


def test_distance_axis():
    assert math.dist(Point2(0.0, 0.0), Point2(10.0, 0.0)) == 10.0


def test_distance_diagonal():
    d = math.dist(Point2(0.0, 0.0), Point2(5.0, 5.0))
    assert d == pytest.approx(SQRT50, abs=1e-12)
    assert d == pytest.approx(7.0711, abs=1e-4)


@given(coord, coord, coord, coord)
def test_distance_symmetric_nonnegative(ax, ay, bx, by):
    p, q = Point2(ax, ay), Point2(bx, by)
    assert math.dist(p, q) == math.dist(q, p) >= 0.0


def test_proximity_examples(tiny):
    assert agent_values(tiny, {0, 1})[0] == 10.0
    assert agent_values(tiny, set())[0] == 0.0
    assert agent_values(tiny, {2})[1] == pytest.approx(SQRT50, abs=1e-12)


def test_proximity_action_out_of_range(tiny):
    with pytest.raises(IndexError):
        agent_values(tiny, {3})
    for bad in (-1, 3):
        with pytest.raises(IndexError, match="outside ground set"):
            min_objective(tiny, {0, bad})
        with pytest.raises(IndexError, match="outside ground set"):
            agent_values(tiny, [bad])


def test_a_bool_among_ids_is_refused(tiny):
    """numpy would read True as id 1 in a list of ints; every path that
    takes action ids refuses it instead."""
    for ids in ([True, 0], [0, True], (2, False), {True, 2}):
        with pytest.raises(IndexError, match="got bool"):
            agent_values(tiny, ids)
        with pytest.raises(IndexError, match="got bool"):
            min_objective(tiny, ids)


@pytest.mark.parametrize(
    "ids",
    [range(3), range(0), range(2, 0, -1), range(0, 3, 2), range(2, 3), range(3, 1), range(0, -1), range(2, -1)],
)
def test_a_range_reads_as_its_list(tiny, ids):
    assert agent_values(tiny, ids).tolist() == agent_values(tiny, list(ids)).tolist()
    assert min_objective(tiny, ids) == min_objective(tiny, list(ids))


@pytest.mark.parametrize("ids", [range(-1, 2), range(4), range(3, -1, -1), range(-3, -1)])
def test_a_range_outside_the_ground_set_is_refused(tiny, ids):
    with pytest.raises(IndexError, match="outside ground set"):
        agent_values(tiny, ids)


def _random_scenario(rng, n_agents, n_actions):
    return Scenario.from_coords(
        rng.uniform(0.0, 100.0, (n_agents, 2)),
        rng.uniform(0.0, 100.0, (n_actions, 2)),
        UniformMatroid(n_actions, 2),
    )


def test_the_trivial_bound_reads_a_slice(rng, monkeypatch):
    """The ground set ``range(M)`` builds no id array."""
    scenario = _random_scenario(rng, 9, 8)
    expected = agent_values(scenario, list(range(8))).tolist()

    def refuse(*args):
        raise AssertionError("ground_ids was called")

    monkeypatch.setattr("robust_select.scenario.ground_ids", refuse)
    assert agent_values(scenario, range(8)).tolist() == expected
    with pytest.raises(AssertionError, match="ground_ids"):
        agent_values(scenario, range(0, 8, 2))


def test_distances_refuse_more_pairs_than_the_cap(rng, monkeypatch):
    """N x M above DISTANCE_PAIRS_CAP is refused with an error naming the
    cap, before any distance is computed or stored; the cap itself runs."""
    monkeypatch.setattr("robust_select.scenario.DISTANCE_PAIRS_CAP", 24)
    assert _random_scenario(rng, 3, 8).distances.shape == (3, 8)
    oversized = _random_scenario(rng, 5, 5)

    def refuse(*args):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(math, "dist", refuse)
    with pytest.raises(ValueError, match=r"N x M = 5 x 5 exceeds DISTANCE_PAIRS_CAP = 24"):
        oversized.distances
    assert "distances" not in vars(oversized)


# Distances that overflow a sum: an infinite one, a midpoint sum past the
# largest double, and two agents' surrogate sum past it.
OVERFLOWING = [
    ([(-1e308, 0.0)], [(1e308, 0.0), (0.0, 0.0)]),
    ([(0.0, 0.0)], [(1.7e308, 0.0), (1e308, 0.0)]),
    ([(0.0, 0.0), (0.0, 0.0)], [(1.2e308, 0.0), (1e308, 0.0)]),
]


@pytest.mark.parametrize("agents, actions", OVERFLOWING)
def test_distances_refuse_a_scale_that_overflows(agents, actions):
    """A matrix whose largest distance times 2 N is not finite is refused
    with an error naming the limit, and is not kept; a solve at the limit
    itself finds it."""
    scenario = Scenario.from_coords(agents, actions, UniformMatroid(len(actions), 1))
    limit = sys.float_info.max / (2 * len(agents))
    with pytest.raises(ValueError, match=re.escape(f"distance scale limit {limit:.6g} ")):
        scenario.distances
    assert "distances" not in vars(scenario)
    at_limit = Scenario.from_coords([(0.0, 0.0)] * len(agents), [(limit, 0.0)], UniformMatroid(1, 1))
    assert saturate_robust(at_limit).min_value == limit


def test_distances_is_one_read_only_array(tiny):
    d = tiny.distances
    assert isinstance(d, np.ndarray) and d.dtype == np.float64 and d.shape == (2, 3)
    assert not d.flags.writeable
    assert tiny.distances is d
    for i, agent in enumerate(tiny.agents):
        for j, action in enumerate(tiny.actions):
            assert d[i][j] == math.dist(agent, action)
    empty = Scenario.from_coords([(0.0, 0.0)], [], PartitionMatroid((), ()))
    assert empty.distances.shape == (1, 0)
    assert agent_values(empty, set()).tolist() == [0.0]


def test_agent_values(tiny):
    assert agent_values(tiny, set()).tolist() == [0.0, 0.0]
    assert agent_values(tiny, {0, 1}).tolist() == [10.0, 10.0]
    assert agent_values(tiny, np.array([2])).tolist() == tiny.distances[:, 2].tolist()
    with pytest.raises(IndexError, match="integers"):
        agent_values(tiny, [1.0])


def test_min_objective_examples(tiny):
    assert min_objective(tiny, {2}) == pytest.approx(SQRT50, abs=1e-12)
    assert min_objective(tiny, {0}) == 0.0
    assert min_objective(tiny, set()) == 0.0


def test_min_objective_brute_matches(tiny):
    # Independent recomputation over both agents.
    for subset in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}):
        expected = min(
            max(math.dist(tiny.agents[i], tiny.actions[j]) for j in subset)
            for i in range(2)
        )
        assert min_objective(tiny, subset) == expected


def test_worst_case_attack_examples(tiny):
    """An optimal attacker leaves the system its worst agent's value."""
    assert agent_values(tiny, {1}).tolist() == [10.0, 0.0]
    assert min_objective(tiny, {1}) == 0.0
    # Both agents tie at sqrt(50).
    assert agent_values(tiny, {2}).tolist() == [min_objective(tiny, {2})] * 2
    assert min_objective(tiny, {2}) == pytest.approx(SQRT50, abs=1e-12)


def test_worst_case_attack_single_agent():
    lone = Scenario.from_coords([(0.0, 0.0)], [(3.0, 4.0)], UniformMatroid(1, 1))
    assert min_objective(lone, {0}) == 5.0


def test_min_objective_never_exceeds_any_agent(tiny):
    for subset in all_subsets(range(3)):
        g = min_objective(tiny, subset)
        for agent in range(2):
            assert g <= agent_values(tiny, subset)[agent] + 1e-12


def test_monotone_and_submodular_exhaustive(rng):
    """Definitional check of both properties for every agent on random
    geometry, every subset pair with at most 7 actions."""
    from robust_select.checks import random_small_scenario

    for _ in range(20):
        scenario = random_small_scenario(rng, max_actions=7)
        n = scenario.n_actions
        subsets = all_subsets(range(n))
        for agent in range(scenario.n_agents):
            value = {s: agent_values(scenario, s)[agent] for s in subsets}
            for b in subsets:
                for a in subsets:
                    if not a <= b:
                        continue
                    assert value[a] <= value[b] + 1e-12
                    for v in range(n):
                        if v in b:
                            continue
                        gain_small = value[a | {v}] - value[a]
                        gain_large = value[b | {v}] - value[b]
                        assert gain_small >= gain_large - 1e-12


def test_counter_monotone_and_units(tiny):
    counter = EvaluationCounter()
    seen = [counter.individual_evals]
    agent_values(tiny, {1})
    seen.append(counter.individual_evals)
    min_objective(tiny, {1, 2}, counter)
    seen.append(counter.individual_evals)
    min_objective(tiny, {0}, counter)
    seen.append(counter.individual_evals)
    assert seen == [0, 0, 2, 4]
    assert seen == sorted(seen)
    assert counter.f_equivalent(tiny.n_agents) == 2.0
    with pytest.raises(ValueError):
        counter.add(-1)


def test_from_coords_reads_arrays_lists_and_points():
    """An array, a list of lists and a tuple of points give one scenario,
    with float coordinates."""
    agents, actions = [[1, 2]], [[0.0, -3], [4.25, 7.0]]
    matroid = UniformMatroid(2, 1)
    scenarios = [
        Scenario.from_coords(np.array(agents), np.array(actions), matroid),
        Scenario.from_coords(agents, actions, matroid),
        Scenario.from_coords(tuple(Point2(*p) for p in agents), tuple(Point2(*p) for p in actions), matroid),
    ]
    assert scenarios[0] == scenarios[1] == scenarios[2]
    for scenario in scenarios:
        assert scenario.agents == (Point2(1.0, 2.0),)
        assert all(type(c) is float for p in scenario.agents + scenario.actions for c in p)


def test_scenario_validation():
    with pytest.raises(ValueError, match="at least one agent"):
        Scenario.from_coords([], [(0.0, 0.0)], UniformMatroid(1, 1))
    one = UniformMatroid(1, 1)
    with pytest.raises(ValueError, match="at least one agent"):
        Scenario.from_coords(np.empty((0, 2)), [(0.0, 0.0)], one)
    with pytest.raises(ValueError, match="unpack"):
        Scenario.from_coords([(0.0, 0.0)], np.zeros((1, 3)), one)
    with pytest.raises(TypeError):
        Scenario.from_coords(np.zeros(2), [(0.0, 0.0)], one)
    with pytest.raises(ValueError):
        Scenario.from_coords(np.array([["a", "0"]]), [(0.0, 0.0)], one)
    # A complex coordinate is refused, not cut to its real part.
    with pytest.raises(TypeError, match="complex"):
        Scenario.from_coords(np.array([[1 + 2j, 0]]), [(0.0, 0.0)], one)
    with pytest.raises(ValueError, match="finite"):
        Scenario.from_coords(np.array([[math.inf, 0.0]]), [(0.0, 0.0)], one)
    with pytest.raises(ValueError, match="finite"):
        Scenario.from_coords([(math.nan, 0.0)], [(0.0, 0.0)], UniformMatroid(1, 1))
    with pytest.raises(ValueError, match="ground set size"):
        Scenario.from_coords([(0.0, 0.0)], [(0.0, 0.0)], UniformMatroid(2, 1))


def test_json_round_trip(tiny, tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(tiny, str(path))
    loaded = load_scenario(str(path))
    assert loaded == tiny


def test_json_round_trip_partition(tmp_path):
    scenario = Scenario.from_coords(
        [(1.0, 2.0)],
        [(0.0, 0.0), (3.0, 3.0), (9.0, 9.0)],
        PartitionMatroid(((0,), (1, 2)), (1, 2)),
    )
    path = tmp_path / "scenario.json"
    save_scenario(scenario, str(path))
    assert load_scenario(str(path)) == scenario


def test_json_errors_name_the_field():
    with pytest.raises(ValueError, match="'agents'"):
        scenario_from_dict({"actions": [], "matroid": {"type": "uniform", "rank": 1}})
    with pytest.raises(ValueError, match="'actions'"):
        scenario_from_dict({"agents": [[0, 0]], "matroid": {"type": "uniform", "rank": 1}})
    with pytest.raises(ValueError, match="'matroid'"):
        scenario_from_dict({"agents": [[0, 0]], "actions": []})
    with pytest.raises(ValueError, match="matroid.type"):
        scenario_from_dict({"agents": [[0, 0]], "actions": [], "matroid": {"type": "graphic"}})
    with pytest.raises(ValueError, match="'agents'"):
        scenario_from_dict({"agents": [[0, math.inf]], "actions": [], "matroid": {"type": "uniform", "rank": 1}})
    # JSON true/false are not numbers: read as 1/0, they would load a
    # scenario that saves differently.
    with pytest.raises(ValueError, match="'agents'"):
        scenario_from_dict({"agents": [[True, 0]], "actions": [], "matroid": {"type": "uniform", "rank": 1}})
    with pytest.raises(ValueError, match="'actions'"):
        scenario_from_dict({"agents": [[0, 0]], "actions": [[0, False]], "matroid": {"type": "uniform", "rank": 1}})
    with pytest.raises(ValueError, match="matroid.capacity"):
        scenario_from_dict(
            {"agents": [[0, 0]], "actions": [[0, 0]], "matroid": {"type": "partition", "blocks": [[0]], "capacity": True}}
        )


def test_load_scenario_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_scenario(str(path))


def test_scenario_dict_shape(tiny):
    data = scenario_to_dict(tiny)
    assert json.dumps(data)  # serializable
    assert data["matroid"] == {"type": "uniform", "rank": 1}
    assert data["agents"][1] == [10.0, 0.0]
