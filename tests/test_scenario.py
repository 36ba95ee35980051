"""Scenario geometry, per-agent objectives, worst-case evaluation, counters,
and the scenario JSON format."""

import dataclasses
import json
import math
import pickle
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robust_select import (
    BenchConfig,
    EvaluationCounter,
    PartitionMatroid,
    Scenario,
    UniformMatroid,
    agent_values,
    generate_scenario,
    load_scenario,
    min_objective,
    saturate_robust,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    trial_seed,
)
from robust_select import scenario as scenario_module
from robust_select.matroid import all_subsets
from test_bench_shaped_golden import crowd_scenario, ring_scenario

SQRT50 = math.sqrt(50.0)

coord = st.integers(-1000, 1000).map(lambda v: v / 10.0)


def test_distance_identity():
    assert math.dist((0.0, 0.0), (0.0, 0.0)) == 0.0


def test_distance_axis():
    assert math.dist((0.0, 0.0), (10.0, 0.0)) == 10.0


def test_distance_diagonal():
    d = math.dist((0.0, 0.0), (5.0, 5.0))
    assert d == pytest.approx(SQRT50, abs=1e-12)
    assert d == pytest.approx(7.0711, abs=1e-4)


@given(coord, coord, coord, coord)
def test_distance_symmetric_nonnegative(ax, ay, bx, by):
    p, q = (ax, ay), (bx, by)
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
    monkeypatch.setattr(scenario_module, "_certified_distances", refuse)
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
    assert not d.flags.writeable and d.flags.c_contiguous
    assert tiny.distances is d and vars(tiny)["distances"] is d
    assert Scenario.distances.__doc__.startswith("Agent-to-action distance matrix")
    for i, agent in enumerate(tiny.agents):
        for j, action in enumerate(tiny.actions):
            assert d[i][j] == math.dist(agent, action)
    empty = Scenario.from_coords([(0.0, 0.0)], [], PartitionMatroid((), ()))
    assert empty.distances.shape == (1, 0)
    assert agent_values(empty, set()).tolist() == [0.0]


def _math_dist_matrix(agents, actions) -> np.ndarray:
    return np.array([[math.dist(a, b) for b in actions] for a in agents], dtype=np.float64).reshape(len(agents), -1)


def _assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


class _CountingDist:
    """Stands in for ``math.dist``, counts its calls and keeps each pair and
    result."""

    def __init__(self):
        self.dist = math.dist
        self.seen = []

    @property
    def calls(self):
        return len(self.seen)

    def __call__(self, p, q):
        self.seen.append((p, q, self.dist(p, q)))
        return self.seen[-1][2]


# Coordinate scales: subnormal, tiny, unit, and past the pass's 2**510
# extent; a drawn scenario mixes one scale with exact repeats and one-axis
# offsets of its agents.
SCALES = (5e-324, 1e-310, 1e-300, 1e-150, 1.0, 1e6, 1e150, 1e300)


@st.composite
def point_sets(draw):
    scale = draw(st.sampled_from(SCALES))
    coordinate = st.floats(-1.0, 1.0).map(lambda v: v * scale)
    point = st.tuples(coordinate, coordinate)
    agents = draw(st.lists(point, min_size=1, max_size=4))
    actions = draw(st.lists(point, max_size=5))
    for x, y in draw(st.lists(st.sampled_from(agents), max_size=3)):
        step = draw(coordinate)
        actions += [(x, y), (x + step, y), (x, y + step)]
    return agents, actions or [(0.0, 0.0)]


@given(point_sets())
def test_distances_have_math_dists_bits(points):
    """Every entry is ``math.dist`` of its pair, bit for bit, from
    subnormal differences to spans of 2e300, for equal points and
    one-axis offsets."""
    agents, actions = points
    scenario = Scenario.from_coords(agents, actions, UniformMatroid(len(actions), 1))
    _assert_same_bits(scenario.distances, _math_dist_matrix(agents, actions))


def _near_midpoint_actions(rng, count):
    """Actions (dx, dy) whose distance from (0, 0) lies within 1e-6 to 1e-2
    of an ulp from a rounding midpoint: dx is an integer in [2**52, 2**53),
    where the ulp is 1, and dx**2 + dy**2 = (dx + 1/2 + off)**2 - 1/4 - off**2."""
    dx = rng.integers(2**52, 2**53, count).astype(np.float64)
    off = 10.0 ** rng.uniform(-6.0, -2.0, count) * rng.choice([-1.0, 1.0], count)
    return np.column_stack((dx, np.sqrt(2.0 * dx * (0.5 + off))))


def test_near_midpoint_distances_take_math_dists_bits(rng, monkeypatch):
    actions = _near_midpoint_actions(rng, 2000)
    expected = _math_dist_matrix([(0.0, 0.0)], actions.tolist())
    counting = _CountingDist()
    monkeypatch.setattr(math, "dist", counting)
    scenario = Scenario.from_coords([(0.0, 0.0)], actions, UniformMatroid(len(actions), 1))
    _assert_same_bits(scenario.distances, expected)
    if scenario_module._PASS_EXTENT:
        assert 0 < counting.calls < len(actions)  # the band sends some, not all, to math.dist
    else:  # no pass: every pair takes math.dist
        assert counting.calls == len(actions)


def _correctly_rounded(r: float, dx: float, dy: float) -> bool:
    """Whether ``r`` is sqrt(dx**2 + dy**2) rounded to nearest (ties to
    even), decided in exact rational arithmetic: the exact sum of squares
    lies strictly between the squares of the midpoints from ``r`` to its
    neighbours, or on one when ``r``'s last significand bit is 0."""
    total = Fraction(dx) ** 2 + Fraction(dy) ** 2
    exact = Fraction(r)
    below = (exact + Fraction(math.nextafter(r, -math.inf))) / 2 if r > 0 else Fraction(0)
    above = (exact + Fraction(math.nextafter(r, math.inf))) / 2
    if below**2 < total < above**2:
        return True
    return total in (below**2, above**2) and (exact / Fraction(math.ulp(r))).numerator % 2 == 0


def test_the_exact_check_refuses_a_neighbour():
    assert _correctly_rounded(5.0, 3.0, -4.0) and _correctly_rounded(0.0, 0.0, 0.0)
    assert not _correctly_rounded(math.nextafter(5.0, 6.0), 3.0, 4.0)
    assert not _correctly_rounded(math.nextafter(5.0, 4.0), 3.0, 4.0)
    assert not _correctly_rounded(5e-324, 0.0, 0.0)
    dx = 2.0**52 + 1.0  # sqrt(dx**2 + dy**2) lies 1e-3 past the midpoint dx + 1/2
    dy = math.sqrt(2.0 * dx * (0.5 + 1e-3))
    assert _correctly_rounded(dx + 1.0, dx, dy) and not _correctly_rounded(dx, dx, dy)


def test_distances_are_correctly_rounded_roots(rng, monkeypatch):
    """Checked exactly: each entry is the correctly rounded square root of
    the exact sum of the squared float64 differences, on every pair of 8
    paper-sweep scenarios, every second pair of a benchmark-shaped ring and
    every fourth of a crowd, and on 2,000 near-midpoint pairs; and every
    pair the pass hands to ``math.dist`` got the correctly rounded root
    from it."""
    counting = _CountingDist()
    monkeypatch.setattr(math, "dist", counting)
    midpoints = _near_midpoint_actions(rng, 2000)
    checked = [(generate_scenario(BenchConfig(), 1, trial_seed(0, i)), 1) for i in range(8)]
    checked += [(ring_scenario(0), 2), (crowd_scenario(0), 4)]
    checked += [(Scenario.from_coords([(0.0, 0.0)], midpoints, UniformMatroid(2000, 1)), 1)]
    for scenario, step in checked:
        distances, agents, actions = scenario.distances, scenario.agents.tolist(), scenario.actions.tolist()
        for k in range(0, distances.size, step):
            (ax, ay), (bx, by) = agents[k // len(actions)], actions[k % len(actions)]
            assert _correctly_rounded(float(distances.flat[k]), ax - bx, ay - by), (agents, actions, k)
    assert counting.calls > 1000
    for (ax, ay), (bx, by), r in counting.seen:
        assert _correctly_rounded(r, ax - bx, ay - by), ((ax, ay), (bx, by))


def test_a_band_too_wide_to_certify_gives_math_dists_bits(rng, monkeypatch):
    """With a band no cast pair agrees on, as where long double is float64,
    every pair takes ``math.dist`` and the matrix keeps its bits."""
    agents, actions = rng.uniform(0.0, 100.0, (7, 2)), rng.uniform(0.0, 100.0, (30, 2))
    expected = _math_dist_matrix(agents.tolist(), actions.tolist())
    counting = _CountingDist()
    monkeypatch.setattr(math, "dist", counting)
    monkeypatch.setattr(scenario_module, "_CERTIFY_BAND", (np.longdouble(1.5), np.longdouble(0.5)))
    _assert_same_bits(Scenario.from_coords(agents, actions, UniformMatroid(30, 1)).distances, expected)
    assert counting.calls == 7 * 30


def test_distances_ignore_a_raising_numpy_error_state():
    """Under np.seterr(all="raise") a distance below the normal range, whose
    cast underflows, still takes ``math.dist``'s bits."""
    agents, actions = [(0.0, 0.0), (1.0, 1.0)], [(1e-310, 0.0), (3.0, 4.0), (0.0, 5e-324)]
    with np.errstate(all="raise"):
        distances = Scenario.from_coords(agents, actions, UniformMatroid(3, 1)).distances
    _assert_same_bits(distances, _math_dist_matrix(agents, actions))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="long double is not x87 extended precision")
def test_the_x87_pass_certifies_almost_every_pair(rng, monkeypatch):
    """Fewer than 1% of a crowd-grid-sized matrix's pairs take ``math.dist``
    (about 0.28% on the benchmark workloads)."""
    counting = _CountingDist()
    monkeypatch.setattr(math, "dist", counting)
    scenario = _random_scenario(rng, 64, 160)
    scenario.distances
    assert counting.calls < 0.01 * 64 * 160


def _refuse_the_pass(*args):
    raise AssertionError("the distance pass ran")


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 52, reason="long double is not float64")
def test_where_long_double_is_float64_every_pair_takes_math_dist(rng, monkeypatch):
    """The band would certify no pair there (Windows, and macOS on arm64),
    so the pass is skipped and every pair takes ``math.dist``."""
    counting = _CountingDist()
    monkeypatch.setattr(math, "dist", counting)
    monkeypatch.setattr(scenario_module, "_certified_distances", _refuse_the_pass)
    scenario = _random_scenario(rng, 64, 160)
    scenario.distances
    assert counting.calls == 64 * 160


def test_skipping_the_pass_keeps_every_workloads_bits(monkeypatch):
    """The path a platform without a certifying long double takes, forced
    here: with _PASS_EXTENT at 0, benchmark-shaped matrices (a 16 x 300
    ring, a 64 x 160 crowd and a 5 x 50 paper draw) never enter the pass,
    call ``math.dist`` once a pair and keep the bits this platform's own
    path gives them."""
    shapes = [ring_scenario(0), crowd_scenario(0), generate_scenario(BenchConfig(), 5, trial_seed(0, 5))]
    expected = [np.array(s.distances) for s in shapes]
    monkeypatch.setattr(scenario_module, "_PASS_EXTENT", 0.0)
    monkeypatch.setattr(scenario_module, "_certified_distances", _refuse_the_pass)
    for scenario, matrix in zip(shapes, expected):
        counting = _CountingDist()
        monkeypatch.setattr(math, "dist", counting)
        _assert_same_bits(Scenario(scenario.agents, scenario.actions, scenario.matroid).distances, matrix)
        assert counting.calls == matrix.size


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 112, reason="long double is not IEEE quad")
def test_the_quad_pass_certifies_almost_every_pair(rng, monkeypatch):
    """The quad long double of aarch64 Linux is certified by the x87 band:
    fewer than 1% of a crowd-grid-sized matrix's pairs take ``math.dist``."""
    counting = _CountingDist()
    monkeypatch.setattr(math, "dist", counting)
    scenario = _random_scenario(rng, 64, 160)
    scenario.distances
    assert counting.calls < 0.01 * 64 * 160


@pytest.mark.parametrize("chunk", [1, 3, 8, 20, 39])
def test_chunked_distances_equal_one_chunk(rng, monkeypatch, chunk):
    """A matrix built in chunks of a few pairs (parts of rows, single rows,
    several rows with a short last chunk) equals the one-chunk matrix."""
    agents, actions = rng.uniform(0.0, 100.0, (5, 2)), rng.uniform(0.0, 100.0, (8, 2))
    whole = Scenario.from_coords(agents, actions, UniformMatroid(8, 1)).distances
    monkeypatch.setattr(scenario_module, "_DISTANCE_CHUNK", chunk)
    _assert_same_bits(Scenario.from_coords(agents, actions, UniformMatroid(8, 1)).distances, whole)


def test_distances_hold_the_matrix_and_one_chunk(rng):
    """Building 64 x 20,000 distances peaks below the 10.24 MB matrix plus
    4 MB: the pass holds one chunk's planes (48 bytes a pair, at most 2**16
    pairs) at a time. An unchunked long-double pass holds about 3x the matrix."""
    scenario = _random_scenario(rng, 64, 20_000)
    tracemalloc.start()
    try:
        scenario.distances
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 20_000 * 8 + 4_000_000


def test_threads_building_distances_get_the_main_threads_bits():
    """Four threads (more than two cores) run the distance pass on
    benchmark-shaped scenarios (16 x 300 rings, 64 x 160 crowds and 5 x 50
    paper draws) over and over, with the thread switch interval cut to a
    microsecond. numpy releases the GIL inside the pass's loops, so a work
    buffer shared by the threads would let one thread's chunk overwrite
    another's; each thread's own workspace keeps every matrix equal to the
    one the main thread built. Each read is of a fresh scenario's
    ``distances``, over the same sealed coordinate arrays."""
    shapes = [ring_scenario(0), ring_scenario(1), crowd_scenario(0), crowd_scenario(1)]
    shapes += [generate_scenario(BenchConfig(), z, trial_seed(0, z)) for z in (1, 5)]
    expected = [np.array(s.distances) for s in shapes]
    mismatches, errors = [], []

    def build(offset):
        try:
            for round_ in range(40):
                for i in range(len(shapes)):
                    k = (i + offset + round_) % len(shapes)
                    s = shapes[k]
                    if not np.array_equal(Scenario(s.agents, s.actions, s.matroid).distances, expected[k]):
                        mismatches.append(k)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert mismatches == []


def test_threads_build_different_scenarios_distances_at_once(monkeypatch):
    """Two threads reading two scenarios' ``distances`` are inside the
    distance pass at the same time: the pass is patched to wait on a
    two-party barrier, which breaks after 10 s unless both threads reach
    it. ``functools.cached_property`` before Python 3.12 holds one lock for
    every instance, which would let only one thread in."""
    barrier = threading.Barrier(2, timeout=10.0)
    certified = scenario_module._certified_distances

    def meeting(agents, actions):
        barrier.wait()
        return certified(agents, actions)

    monkeypatch.setattr(scenario_module, "_certified_distances", meeting)
    monkeypatch.setattr(scenario_module, "_PASS_EXTENT", 2.0**510)  # as in the workspace test below
    scenarios = [generate_scenario(BenchConfig(), 1, trial_seed(0, t)) for t in range(2)]
    built, errors = [], []

    def read(scenario):
        try:
            built.append(scenario.distances.shape)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=read, args=(s,)) for s in scenarios]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert built == [(5, 50), (5, 50)]


def test_a_threads_workspace_is_one_chunk_pair_across_shapes(monkeypatch):
    """After matrices of several shapes, among them a row longer than a chunk
    (M > 2**16, one row per chunk, the last short), and no actions at all,
    a thread's workspace still holds the one pair of buffers its first
    matrix allocated: 2 * _DISTANCE_CHUNK float64 and long-double entries."""
    chunk = scenario_module._DISTANCE_CHUNK
    rng = np.random.default_rng(5)
    shapes = [(5, 50), (64, 160), (16, 300), (3, chunk + 5), (2, 0), (1, 1)]
    # A platform whose long double certifies nothing skips the pass; it runs there too.
    monkeypatch.setattr(scenario_module, "_PASS_EXTENT", 2.0**510)
    seen = {"shapes": []}

    def build():
        for n, m in shapes:
            seen["shapes"].append(_random_scenario(rng, n, m).distances.shape)
            seen.setdefault("first", scenario_module._workspace.buffers)
        seen["state"] = dict(vars(scenario_module._workspace))

    thread = threading.Thread(target=build)
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert seen["shapes"] == shapes
    assert list(seen["state"]) == ["buffers"]
    planes, squares = seen["state"]["buffers"]
    assert planes is seen["first"][0] and squares is seen["first"][1]
    assert (planes.shape, planes.dtype) == ((2 * chunk,), np.float64)
    assert (squares.shape, squares.dtype) == ((2 * chunk,), np.longdouble)


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
    """An array, a list of lists and a tuple of (x, y) tuples give one
    scenario, with float coordinates."""
    agents, actions = [[1, 2]], [[0.0, -3], [4.25, 7.0]]
    matroid = UniformMatroid(2, 1)
    scenarios = [
        Scenario.from_coords(np.array(agents), np.array(actions), matroid),
        Scenario.from_coords(agents, actions, matroid),
        Scenario.from_coords(tuple(map(tuple, agents)), tuple(map(tuple, actions)), matroid),
    ]
    assert scenarios[0] == scenarios[1] == scenarios[2]
    for scenario in scenarios:
        assert scenario.agents.tolist() == [[1.0, 2.0]]
        assert scenario.agents.dtype == scenario.actions.dtype == np.float64
        assert all(type(c) is float for row in scenario.agents.tolist() + scenario.actions.tolist() for c in row)


def test_scenario_validation():
    with pytest.raises(ValueError, match="at least one agent"):
        Scenario.from_coords([], [(0.0, 0.0)], UniformMatroid(1, 1))
    one = UniformMatroid(1, 1)
    with pytest.raises(ValueError, match="at least one agent"):
        Scenario.from_coords(np.empty((0, 2)), [(0.0, 0.0)], one)
    with pytest.raises(ValueError, match=r"\(x, y\) rows"):
        Scenario.from_coords([(0.0, 0.0)], np.zeros((1, 3)), one)
    # Lists with a row of one or three entries, or ragged rows.
    for rows in ([(0.0,)], [(0.0, 0.0, 0.0)], [(0.0, 0.0), (1.0,)], [[0.0, 0.0], [1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError, match=r"\(x, y\) rows"):
            Scenario.from_coords(rows, [(0.0, 0.0)], one)
        with pytest.raises(ValueError, match=r"\(x, y\) rows"):
            Scenario.from_coords([(0.0, 0.0)], rows, one)
    with pytest.raises(TypeError):
        Scenario.from_coords(np.zeros(2), [(0.0, 0.0)], one)
    with pytest.raises(TypeError):
        Scenario.from_coords([0.0, 0.0], [(0.0, 0.0)], one)
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


def test_the_constructor_reads_rows_as_from_coords_does():
    rows = ([(0.0, 0.0)], [(1.0, 1.0)])
    direct = Scenario(*rows, UniformMatroid(1, 1))
    assert direct == Scenario.from_coords(*rows, UniformMatroid(1, 1))
    assert direct.agents.tolist() == [[0.0, 0.0]] and direct.actions.tolist() == [[1.0, 1.0]]


def test_the_constructor_refuses_a_nan_row():
    with pytest.raises(ValueError, match="finite"):
        Scenario([(math.nan, 0.0)], [(1.0, 1.0)], UniformMatroid(1, 1))
    with pytest.raises(ValueError, match="finite"):
        Scenario([(0.0, 0.0)], [(1.0, math.nan)], UniformMatroid(1, 1))


def test_coordinates_are_read_only_float64_rows(rng):
    scenario = _random_scenario(rng, 4, 7)
    for points, n in ((scenario.agents, 4), (scenario.actions, 7)):
        assert isinstance(points, np.ndarray) and points.dtype == np.float64 and points.shape == (n, 2)
        assert points.flags.c_contiguous
        assert not points.flags.writeable
        with pytest.raises(ValueError):
            points[0, 0] = 1.0
    # A float32, a Fortran-ordered and an integer array become the same rows.
    rows = [[1, 2], [3, 4]]
    for array in (np.array(rows, np.float32), np.asfortranarray(rows, np.float64), np.array(rows)):
        made = Scenario.from_coords([(0.0, 0.0)], array, UniformMatroid(2, 1)).actions
        assert made.tolist() == [[1.0, 2.0], [3.0, 4.0]] and made.flags.c_contiguous and made.dtype == np.float64


def test_the_callers_coordinates_are_copied():
    agents, actions = np.array([[1.0, 2.0]]), [[3.0, 4.0], [5.0, 6.0]]
    scenario = Scenario.from_coords(agents, actions, UniformMatroid(2, 1))
    distances = scenario.distances.copy()
    agents[0, 0] = 100.0
    actions[1][0] = 100.0
    actions.append([7.0, 8.0])
    assert scenario.agents.tolist() == [[1.0, 2.0]]
    assert scenario.actions.tolist() == [[3.0, 4.0], [5.0, 6.0]]
    assert np.array_equal(scenario.distances, distances)
    # A read-only view does not own its data, so it is copied too.
    base = np.array([[1.0, 2.0], [3.0, 4.0]])
    view = base[:1]
    view.setflags(write=False)
    kept = Scenario(view, actions[:2], UniformMatroid(2, 1))
    base[0, 0] = 100.0
    assert kept.agents is not view and kept.agents.tolist() == [[1.0, 2.0]]


def test_no_array_of_a_scenario_can_be_made_writeable_again():
    """numpy lets whoever holds an array over its own or a caller's memory
    make it writeable again. A scenario copies a read-only caller array, so
    writing to it afterwards changes nothing, and its coordinates (from an
    array or a list) and its distances refuse the flag."""
    adopted = np.array([[0.0, 0.0]])
    adopted.setflags(write=False)
    scenario = Scenario(adopted, [(3.0, 4.0)], UniformMatroid(1, 1))
    assert scenario.distances.tolist() == [[5.0]]
    adopted.setflags(write=True)
    adopted[0, 0] = 3.0
    for array in (scenario.agents, scenario.actions, scenario.distances, scenario.agents[:1]):
        with pytest.raises(ValueError):
            array.setflags(write=True)
        with pytest.raises(ValueError):
            array[0, 0] = 99.0
    assert scenario.agents.tolist() == [[0.0, 0.0]]
    assert Scenario(scenario.agents, scenario.actions, scenario.matroid).distances.tolist() == [[5.0]]


def test_a_scenarios_own_arrays_are_not_copied(tiny):
    again = Scenario(tiny.agents, tiny.actions, UniformMatroid(3, 2))
    assert again.agents is tiny.agents and again.actions is tiny.actions
    replaced = dataclasses.replace(tiny, matroid=UniformMatroid(3, 3))
    assert replaced.agents is tiny.agents and replaced.actions is tiny.actions


def test_scenarios_compare_and_hash_by_value(tiny):
    rows = (tiny.agents.tolist(), tiny.actions.tolist())
    same = Scenario.from_coords(*rows, UniformMatroid(3, 1))
    assert same == tiny and hash(same) == hash(tiny)
    assert len({tiny, same}) == 1
    assert same != Scenario.from_coords(*rows, UniformMatroid(3, 2))
    moved = Scenario.from_coords(rows[0], [[0.0, 0.0], [10.0, 0.0], [5.0, 6.0]], UniformMatroid(3, 1))
    assert moved != tiny
    assert tiny != rows and tiny.__eq__(rows) is NotImplemented
    zero = Scenario.from_coords([(0.0, 0.0)], [(0.0, 1.0)], UniformMatroid(1, 1))
    negative_zero = Scenario.from_coords([(-0.0, 0.0)], [(0.0, 1.0)], UniformMatroid(1, 1))
    assert zero == negative_zero and hash(zero) == hash(negative_zero)


def test_a_pickled_scenario_comes_back_read_only(tiny):
    loaded = pickle.loads(pickle.dumps(tiny))
    assert loaded == tiny
    assert not loaded.agents.flags.writeable and not loaded.actions.flags.writeable


def test_a_scenario_retains_about_16_bytes_a_point(rng):
    """100 scenarios of ring-uniform's size (16 agents, 300 actions) retain
    under 10 KB each: the coordinates take 5,056 bytes."""
    agents = rng.uniform(0.0, 100.0, (16, 2)).tolist()
    actions = rng.uniform(0.0, 100.0, (300, 2)).tolist()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [Scenario.from_coords(agents, actions, UniformMatroid(300, 3)) for _ in range(100)]
        retained = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert retained < 10_000


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
