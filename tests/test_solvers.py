"""Selection algorithms: worked examples, exhaustive-oracle bounds, the
bisection contract, accounting, and determinism."""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from robust_select import (
    SOLVERS,
    GreedyStep,
    Matroid,
    MinObjectiveOracle,
    PartitionMatroid,
    Scenario,
    SolverParams,
    SurrogateOracle,
    UniformMatroid,
    brute_force_maxmin,
    brute_force_surrogate_max,
    compute_curvature,
    iter_independent_sets,
    min_objective,
    ratio_greedy_baseline,
    saturate_robust,
    simple_greedy,
    threshold_greedy,
)
from robust_select.checks import gamma_grid, random_small_scenario
from robust_select import solvers
from robust_select.solvers import (
    _LADDER_CHUNK,
    BRUTE_FORCE_CAP,
    THRESHOLD_STEPS_CAP,
    _Ladder,
    threshold_ladder,
    threshold_steps,
)

SQRT50 = math.sqrt(50.0)
DELTA = 1e-3


def empty_ground_scenario():
    return Scenario.from_coords([(0.0, 0.0)], [], PartitionMatroid((), ()))


def maxmin_by_enumeration(scenario):
    """Independent max-min oracle: plain itertools enumeration with inline
    independence checks, no shared code with the solvers module."""
    matroid = scenario.matroid
    best_value, best_set = -math.inf, ()
    for r in range(scenario.n_actions + 1):
        for combo in itertools.combinations(range(scenario.n_actions), r):
            if isinstance(matroid, UniformMatroid):
                ok = len(combo) <= matroid.rank
            else:
                ok = all(
                    sum(1 for e in combo if e in block) <= cap
                    for block, cap in zip(matroid.blocks, matroid.capacities)
                )
            if not ok:
                continue
            value = min_objective(scenario, combo)
            if value > best_value or (
                value == best_value
                and (len(combo), combo) < (len(best_set), best_set)
            ):
                best_value, best_set = value, combo
    return best_value, best_set


# -- threshold greedy -------------------------------------------------


def test_threshold_greedy_tiny(tiny):
    oracle = SurrogateOracle(tiny, 8.0)
    assert threshold_greedy(oracle, tiny.matroid, DELTA) == {2}


def test_threshold_greedy_initial_threshold_is_best_singleton(tiny):
    stats = {}
    threshold_greedy(SurrogateOracle(tiny, 8.0), tiny.matroid, DELTA, stats=stats)
    assert stats["initial_threshold"] == pytest.approx(SQRT50, abs=1e-12)


def test_threshold_greedy_empty_ground_set():
    scenario = empty_ground_scenario()
    oracle = SurrogateOracle(scenario, 1.0)
    assert threshold_greedy(oracle, scenario.matroid, DELTA) == set()
    assert oracle.counter.individual_evals == 0


def test_threshold_greedy_zero_capacity():
    scenario = Scenario.from_coords(
        [(0.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)], PartitionMatroid(((0, 1),), (0,))
    )
    assert threshold_greedy(SurrogateOracle(scenario, 5.0), scenario.matroid, DELTA) == set()


def test_threshold_greedy_worthless_singletons():
    scenario = Scenario.from_coords(
        [(5.0, 5.0)], [(5.0, 5.0), (5.0, 5.0)], UniformMatroid(2, 2)
    )
    assert threshold_greedy(SurrogateOracle(scenario, 9.0), scenario.matroid, DELTA) == set()


def test_threshold_greedy_rejects_bad_delta(tiny):
    # True is not a real number here, as SolverParams has it.
    for delta in (0.0, 1.5, True):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
            threshold_greedy(SurrogateOracle(tiny, 8.0), tiny.matroid, delta)


def test_threshold_greedy_feasible_output(rng):
    for _ in range(20):
        scenario = random_small_scenario(rng, max_actions=6)
        upper = min_objective(scenario, range(scenario.n_actions))
        selected = threshold_greedy(
            SurrogateOracle(scenario, 0.7 * upper if upper > 0 else 1.0),
            scenario.matroid,
            DELTA,
        )
        assert scenario.matroid.is_independent(selected)


def test_threshold_greedy_eval_budget(rng):
    """Measured oracle cost never exceeds passes*M + M + 1 evaluations."""
    for _ in range(30):
        scenario = random_small_scenario(rng, max_actions=6)
        upper = min_objective(scenario, range(scenario.n_actions))
        if upper <= 0:
            continue
        for frac in (0.3, 1.0):
            oracle = SurrogateOracle(scenario, frac * upper)
            stats = {}
            threshold_greedy(oracle, scenario.matroid, DELTA, stats=stats)
            budget = stats["passes"] * scenario.n_actions + scenario.n_actions + 1
            assert oracle.counter.f_equivalent(scenario.n_agents) <= budget


def test_threshold_greedy_bound_vs_optimal(rng):
    """Greedy value at fixed gamma within 1/(1 + curvature + delta) of the
    enumerated optimum, exact computed curvature."""
    for _ in range(40):
        scenario = random_small_scenario(rng, max_actions=6)
        upper = min_objective(scenario, range(scenario.n_actions))
        if upper <= 0:
            continue
        for frac in (0.2, 0.6, 1.0):
            gamma = frac * upper
            oracle = SurrogateOracle(scenario, gamma)
            greedy_value = oracle.evaluate(threshold_greedy(oracle, scenario.matroid, DELTA))
            best = brute_force_surrogate_max(SurrogateOracle(scenario, gamma), scenario.matroid)
            best_value = SurrogateOracle(scenario, gamma).evaluate(best)
            curvature = compute_curvature(SurrogateOracle(scenario, gamma), range(scenario.n_actions))
            assert greedy_value >= best_value / (1.0 + curvature + DELTA) - 1e-9


def test_threshold_greedy_accepted_gains_dominate(rng):
    """Every accepted element's gain is within (1 + delta) of the gain of
    any still-feasible element of the enumerated optimum."""
    checked = 0
    for _ in range(40):
        scenario = random_small_scenario(rng, max_actions=6)
        upper = min_objective(scenario, range(scenario.n_actions))
        if upper <= 0:
            continue
        gamma = 0.8 * upper
        oracle = SurrogateOracle(scenario, gamma)
        trace = []
        threshold_greedy(oracle, scenario.matroid, DELTA, trace=trace)
        best = brute_force_surrogate_max(SurrogateOracle(scenario, gamma), scenario.matroid)
        probe = SurrogateOracle(scenario, gamma)
        for step in trace:
            for o in best - step.base:
                if not scenario.matroid.can_extend(step.base, o):
                    continue
                checked += 1
                gain = probe.evaluate(step.base | {o}) - probe.evaluate(step.base)
                assert (1.0 + DELTA) * step.gain >= gain - 1e-9
    assert checked > 0


def literal_threshold_greedy(oracle, matroid, delta):
    """The descending-threshold greedy written out pass by pass: one gain
    per scanned candidate, one division per pass, and no shared code with
    ``threshold_greedy``. A pass over the set the previous pass left
    unchanged, while that pass's best gain is still below the threshold,
    would insert nothing; it is neither scanned nor counted, since those are
    exactly the passes ``threshold_greedy`` skips.

    It counts its own charges, in evaluations: one per gain it takes, plus
    one for the empty base unless the oracle is known to be zero (gamma ==
    0). Every later base is the extension by the last candidate scanned,
    which the one-at-a-time scan has already evaluated. Returns the
    selection, the trace, the stats ``threshold_greedy`` would report and
    the charges."""
    n = matroid.n_actions
    selected, trace, passes = set(), [], 0
    gains_taken = 0

    def gain_of(base, e):
        nonlocal gains_taken
        gains_taken += 1
        return oracle.evaluate(base | {e}) - oracle.evaluate(base)

    initial = max([0.0] + [gain_of(frozenset(), e) for e in range(n)])
    threshold, floor = initial, delta * initial
    unchanged_best = None  # best gain of the last pass, if it inserted nothing
    while initial > 0 and threshold >= floor and any(matroid.can_extend(selected, e) for e in range(n)):
        if unchanged_best is None or unchanged_best >= threshold:
            passes += 1
            best, inserted = 0.0, False
            for e in range(n):
                if e in selected or not matroid.can_extend(selected, e):
                    continue
                gain = gain_of(selected, e)
                if gain >= threshold:
                    trace.append(GreedyStep(threshold, e, gain, frozenset(selected)))
                    selected.add(e)
                    inserted = True
                else:
                    best = max(best, gain)
            if not inserted and best == 0.0:
                break
            unchanged_best = None if inserted else best
        threshold /= 1.0 + delta
    stats = {"passes": passes, "initial_threshold": initial, "final_threshold": threshold}
    known_zero = isinstance(oracle, SurrogateOracle) and oracle.gamma == 0.0
    charges = gains_taken + (gains_taken > 0 and not known_zero)
    return selected, trace, stats, charges


def random_matroid_scenario(rng, n_agents, n_actions):
    agents = rng.uniform(0.0, 100.0, (n_agents, 2))
    actions = rng.uniform(0.0, 100.0, (n_actions, 2))
    if rng.random() < 0.5:
        matroid = UniformMatroid(n_actions, int(rng.integers(1, 7)))
    else:
        assignment = rng.integers(0, 5, n_actions)
        blocks = tuple(tuple(int(j) for j in np.flatnonzero(assignment == b)) for b in range(5))
        matroid = PartitionMatroid(blocks, tuple(int(c) for c in rng.integers(0, 3, 5)))
    return Scenario.from_coords(agents, actions, matroid)


@pytest.mark.parametrize("delta", [1e-3, 0.1, 1.0])
def test_threshold_greedy_matches_the_literal_loop(rng, delta):
    """Ladder jumps and batched scans change nothing observable: selection,
    trace, stats and charges equal those of the literal pass-by-pass loop,
    and the selection's value is the same bits from either oracle."""
    checked_partition = checked_uniform = 0
    for _ in range(12):
        scenario = random_matroid_scenario(rng, int(rng.integers(1, 12)), int(rng.integers(1, 30)))
        upper = min_objective(scenario, range(scenario.n_actions))
        makers = [lambda g=g: SurrogateOracle(scenario, g) for g in (0.0, 0.4 * upper, upper, 3.0 * upper)]
        makers.append(lambda: MinObjectiveOracle(scenario))
        for make in makers:
            literal_oracle, oracle = make(), make()
            *expected, charges = literal_threshold_greedy(literal_oracle, scenario.matroid, delta)
            trace, stats = [], {}
            selected = threshold_greedy(oracle, scenario.matroid, delta, trace=trace, stats=stats)
            assert [selected, trace, stats] == expected
            assert oracle.counter.individual_evals == charges * scenario.n_agents
            assert oracle.evaluate(selected) == literal_oracle.evaluate(selected)
            assert oracle.counter.individual_evals == (charges + 1) * scenario.n_agents
        if isinstance(scenario.matroid, PartitionMatroid):
            checked_partition += 1
        else:
            checked_uniform += 1
    assert checked_partition and checked_uniform


@pytest.mark.parametrize("delta", [1e-5, 1e-3, 0.1, 1.0, 3.0])
def test_threshold_ladder_is_the_division_chain(delta):
    start = 7.123456789
    rungs = threshold_ladder(start, delta, 2 * _LADDER_CHUNK + 3)
    t = start
    for rung in rungs:
        assert rung == t
        t /= 1.0 + delta
    # The chunked cursor, stepping across chunk boundaries.
    ladder, t = _Ladder(start, delta), start
    for _ in range(3 * _LADDER_CHUNK + 2):
        assert ladder.threshold == t
        ladder.step()
        t /= 1.0 + delta
    # Jumps land where replaying the division chain stops, across chunks,
    # including on a rung equal to the bound or to the floor.
    floor = rungs[-2] if delta < 1e-2 else start * 1e-4
    marks = [rungs[k] for k in (1, 7, _LADDER_CHUNK - 1, _LADDER_CHUNK + 10) if k < rungs.size - 2]
    ladder, t = _Ladder(start, delta), start
    for at_most in [*marks, start * 0.99, start * 0.5, start * 0.2, start * 1e-3, 0.0]:
        if not (t >= floor and t > at_most):
            continue
        while t >= floor and t > at_most:
            t /= 1.0 + delta
        ladder.drop(at_most, floor)
        assert ladder.threshold == t


def test_stalled_threshold_raises_instead_of_hanging():
    """Far enough into the subnormals, dividing by 1 + delta returns its
    argument; a jump that can only land below that point is refused instead
    of looping forever, as the literal loop would."""
    with pytest.raises(ValueError, match="stalled"):
        _Ladder(1e-320, 1e-3).drop(1e-323, 1e-323)
    # Distances of a few hundred units of the smallest subnormal.
    scale = 1e-321
    scenario = Scenario.from_coords(
        [(85.0 * scale, 63.0 * scale), (51.0 * scale, 26.0 * scale)],
        [(x * scale, y * scale) for x, y in ((30.0, 4.0), (7.0, 1.0), (17.0, 81.0), (64.0, 91.0))],
        UniformMatroid(4, 2),
    )
    with pytest.raises(ValueError, match="stalled"):
        saturate_robust(scenario, SolverParams(delta=1e-3))


def test_delta_beyond_the_step_cap_is_refused(tiny):
    """A delta so small that 1 + delta rounds to 1 used to hang the greedy;
    any delta whose descent needs more than THRESHOLD_STEPS_CAP divisions is
    now refused up front, by the parameters and by the greedy itself."""
    assert threshold_steps(1e-5) < THRESHOLD_STEPS_CAP < threshold_steps(1e-6)
    assert saturate_robust(tiny, SolverParams(delta=1e-5)).selected == (2,)
    for delta in (1e-6, 1e-17, 5e-324):
        with pytest.raises(ValueError, match="THRESHOLD_STEPS_CAP"):
            SolverParams(delta=delta)
        with pytest.raises(ValueError, match="THRESHOLD_STEPS_CAP"):
            threshold_greedy(SurrogateOracle(tiny, 8.0), tiny.matroid, delta)


# -- certified ladder ---------------------------------------------------

NORMAL_STARTS = st.floats(min_value=sys.float_info.min, max_value=1e300)
LADDER_DELTAS = st.floats(min_value=1.35e-6, max_value=3.0)


def ladder_length(delta, cap):
    """Rungs from the start to two past the greedy's floor, at most ``cap``."""
    return min(max(int(threshold_steps(delta)), 0) + 2, cap) + 1


@given(start=NORMAL_STARTS, delta=LADDER_DELTAS, data=st.data())
def test_ladder_bounds_contain_the_division_chain(start, delta, data):
    """The certified bounds of every rung hold the exact chain's rung, from
    rung 0 and from a rung computed exactly later on; they are given for
    every rung well inside the normal range."""
    chain = threshold_ladder(start, delta, ladder_length(delta, 20_000))
    last = chain.size - 1
    ladder = _Ladder(start, delta)
    for base in (0, data.draw(st.integers(0, last), label="base")):
        if base:
            ladder.drop(chain[base], 0.0)
            assert ladder.threshold == chain[base]
        ks = {*range(base, min(base + 32, last) + 1), *range(max(base, last - 32), last + 1)}
        ks |= set(data.draw(st.lists(st.integers(base, last), max_size=16), label="ks"))
        for k in sorted(ks):
            bounds = ladder.bounds(k)
            if bounds is None:
                assert chain[k] < 2.0 * sys.float_info.min
            else:
                assert bounds[0] <= chain[k] <= bounds[1]


@given(start=NORMAL_STARTS, delta=LADDER_DELTAS, data=st.data())
def test_ladder_drop_lands_where_the_chain_stops(start, delta, data):
    """``drop`` lands where searchsorted over the exact chain does, also for
    a bound equal to a rung or one ulp either side of it, and for a floor
    of 0.0 or of the smallest subnormal."""
    chain = threshold_ladder(start, delta, ladder_length(delta, 5_000))
    negated = -chain

    def near_rung(label):
        rung = chain[data.draw(st.integers(1, chain.size - 1), label=label)]
        return float(rung + data.draw(st.sampled_from([-1, 0, 1]), label=f"{label} ulps") * np.spacing(rung))

    # Near a rung, or 0.0 or the smallest subnormal, below every rung.
    floors = st.one_of(st.builds(near_rung, st.just("floor")), st.sampled_from([0.0, math.ulp(0.0)]))
    floor = data.draw(floors, label="floor")
    ladder, k = _Ladder(start, delta), 0
    for at_most in data.draw(st.lists(st.builds(near_rung, st.just("at_most")), min_size=1, max_size=4)):
        if not (chain[k] >= floor and chain[k] > at_most):
            continue
        k = int(min(negated.searchsorted(-at_most, side="left"), negated.searchsorted(-floor, side="right")))
        assume(k < chain.size)
        ladder.drop(at_most, floor)
        assert ladder.k == k
        assert ladder.threshold == chain[k]


def test_untraced_greedy_computes_no_rung(rng, monkeypatch):
    """Without a trace or stats, the greedy decides every comparison from
    the ladder's bounds on these instances: no rung is computed."""
    computed = []
    chain = solvers.threshold_ladder
    monkeypatch.setattr(solvers, "threshold_ladder", lambda *args: computed.append(args) or chain(*args))
    for _ in range(12):
        scenario = random_matroid_scenario(rng, int(rng.integers(2, 12)), int(rng.integers(5, 30)))
        upper = min_objective(scenario, range(scenario.n_actions))
        for gamma in (0.4 * upper, upper):
            threshold_greedy(SurrogateOracle(scenario, gamma), scenario.matroid, DELTA)
    assert computed == []


@pytest.mark.parametrize("slack", [2**52 - 2**46, 2**54])
def test_threshold_greedy_with_undecided_bounds_matches_the_literal_loop(rng, monkeypatch, slack):
    """With bounds too wide to decide most comparisons (2**52 - 2**46 units
    of 2**-52: from 1/64 of the rung to nearly twice it; 2**54: none, so
    every rung is computed), the greedy takes the exact path and still
    equals the literal loop in selection, trace, stats and charges. With
    the first, a search can find a gain at the low bound but short of the
    rung, and go on to the rung itself."""
    monkeypatch.setattr(solvers, "_LADDER_SLACK", slack)
    continued = 0
    first_hit = solvers._Ladder.first_hit

    def spy(ladder, running):
        nonlocal continued
        at_low = int(running.searchsorted(ladder.low))
        hit = first_hit(ladder, running)
        continued += hit > at_low
        return hit

    monkeypatch.setattr(solvers._Ladder, "first_hit", spy)
    for _ in range(12):
        scenario = random_matroid_scenario(rng, int(rng.integers(1, 12)), int(rng.integers(1, 30)))
        upper = min_objective(scenario, range(scenario.n_actions))
        for gamma, delta in itertools.product((0.0, 0.4 * upper, upper), (1e-3, 0.1, 1.0)):
            literal_oracle, oracle = SurrogateOracle(scenario, gamma), SurrogateOracle(scenario, gamma)
            *expected, charges = literal_threshold_greedy(literal_oracle, scenario.matroid, delta)
            trace, stats = [], {}
            selected = threshold_greedy(oracle, scenario.matroid, delta, trace=trace, stats=stats)
            assert [selected, trace, stats] == expected
            assert oracle.counter.individual_evals == charges * scenario.n_agents
    assert continued if slack < 2**52 else not continued

# -- saturating solver ------------------------------------------------


def test_saturate_tiny(tiny):
    solution = saturate_robust(tiny, SolverParams(delta=DELTA, curvature=1.0))
    assert solution.selected == (2,)
    assert solution.min_value == pytest.approx(SQRT50, abs=1e-3)
    reference = brute_force_maxmin(tiny)
    assert solution.selected == reference.selected


def test_saturate_single_agent_line():
    scenario = Scenario.from_coords(
        [(0.0, 0.0)], [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], UniformMatroid(3, 1)
    )
    solution = saturate_robust(scenario)
    assert solution.selected == (2,)
    assert solution.min_value == 3.0


def test_saturate_empty_ground_set():
    solution = saturate_robust(empty_ground_scenario())
    assert solution.selected == ()
    assert solution.min_value == 0.0
    assert solution.params["iterations"] == 0


def test_saturate_zero_upper_bound():
    scenario = Scenario.from_coords([(5.0, 5.0)], [(5.0, 5.0)], UniformMatroid(1, 1))
    solution = saturate_robust(scenario)
    assert solution.selected == ()
    assert solution.min_value == 0.0


def test_saturate_solution_fields(tiny):
    solution = saturate_robust(tiny)
    assert tiny.matroid.is_independent(frozenset(solution.selected))
    assert solution.min_value == min_objective(tiny, solution.selected)
    assert solution.f_evaluations == solution.individual_evals / tiny.n_agents
    assert solution.wall_time_s >= 0.0
    assert solution.params["lower"] <= solution.params["upper"]
    doc = solution.to_json_dict()
    assert doc["algorithm"] == "fast"
    assert doc["selected"] == [2]
    assert doc["evaluations"] == solution.f_evaluations
    assert doc["wall_time_ms"] == solution.wall_time_s * 1000.0


def test_saturate_deterministic(rng):
    for _ in range(5):
        scenario = random_small_scenario(rng, max_actions=6)
        first = saturate_robust(scenario)
        second = saturate_robust(scenario)
        assert first.selected == second.selected
        assert first.min_value == second.min_value
        assert first.individual_evals == second.individual_evals


def test_saturate_bisection_contract(rng):
    """Bracket halves exactly and the iteration count is the base-2
    logarithm of the initial width over epsilon, rounded up."""
    checked = 0
    while checked < 50:
        scenario = random_small_scenario(rng, max_actions=6)
        upper = min_objective(scenario, range(scenario.n_actions))
        if upper <= 0:
            continue
        ratio = float(rng.uniform(3.0, 4000.0))
        if abs(math.log2(ratio) - round(math.log2(ratio))) < 0.02:
            continue  # keep clear of knife-edge iteration counts
        epsilon = upper / ratio
        trace = []
        solution = saturate_robust(scenario, SolverParams(epsilon=epsilon), bisection_trace=trace)
        assert solution.params["iterations"] == math.ceil(math.log2(upper / epsilon))
        width = upper
        for lower, upper_bound in trace:
            assert abs((upper_bound - lower) - width / 2.0) <= 1e-9 * upper
            assert -1e-12 <= lower <= upper_bound <= upper * (1 + 1e-12)
            width = upper_bound - lower
        assert width <= epsilon
        checked += 1


def test_saturate_stops_when_a_probe_leaves_the_bracket_unchanged(deadline):
    """An epsilon finer than the doubles near the bracket: the midpoint
    rounds onto an end, the probe leaves the bracket as it was, and so
    would every later one. The solve stops at the first such probe."""
    rng = np.random.default_rng(0)
    scenarios = [random_small_scenario(rng, 7) for _ in range(5)]
    selected = []
    for index in (1, 4):
        trace = []
        solution = saturate_robust(scenarios[index], SolverParams(epsilon=1e-300), bisection_trace=trace)
        assert solution.params["iterations"] == len(trace)
        assert trace[-1] == trace[-2]
        assert all(a != b for a, b in zip(trace, trace[1:-1]))
        selected.append(solution.selected)
    assert selected == [(1,), (0,)]


def test_saturate_end_to_end_bound(rng):
    """Worst-agent value within 1/(1 + c + delta) of the enumerated
    max-min optimum, minus epsilon, on the random family."""
    for _ in range(60):
        scenario = random_small_scenario(rng, max_actions=6)
        params = SolverParams(delta=DELTA, curvature=1.0)
        solution = saturate_robust(scenario, params)
        optimum, _ = maxmin_by_enumeration(scenario)
        bound = optimum / (1.0 + params.curvature + DELTA) - solution.params["epsilon"]
        assert solution.min_value >= bound - 1e-9


def test_saturate_end_to_end_bound_known_counterexample():
    """The end-to-end factor bound is NOT a theorem of this procedure for
    two or more agents: the bisection accepts on an average, so a set that
    saturates one agent while starving another can survive to the end.
    This frozen instance reproduces such a run; it documents the defect
    rather than hiding it (see the known-limitation section of the README)."""
    scenario = Scenario.from_coords(
        agents=[
            (72.99064826081936, 72.28374821774557),
            (2.9603362766074226, 17.930248033646677),
        ],
        actions=[
            (5.0690685454808815, 37.315268594036155),
            (90.86266030515034, 50.064183670527605),
            (70.48692549472841, 66.70188512637834),
            (57.888490455050324, 99.93913614626162),
        ],
        matroid=PartitionMatroid(((0, 1, 3), (), (2,)), (1, 1, 1)),
    )
    params = SolverParams(delta=DELTA, curvature=1.0)
    solution = saturate_robust(scenario, params)
    optimum = brute_force_maxmin(scenario)
    bound = optimum.min_value / (1.0 + params.curvature + DELTA) - solution.params["epsilon"]
    assert solution.min_value < bound  # the bound genuinely fails here
    # The per-gamma guarantee still holds; the defect is only end-to-end.
    assert solution.min_value > 0.0
    assert scenario.matroid.is_independent(frozenset(solution.selected))


def test_solver_params_validation():
    for delta in (0.0, 1.5, math.inf):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
            SolverParams(delta=delta)
    for field in ("delta", "epsilon", "curvature"):
        for flag in (True, False):
            with pytest.raises(ValueError, match=field):
                SolverParams(**{field: flag})
    with pytest.raises(ValueError):
        SolverParams(epsilon=-1.0)
    with pytest.raises(ValueError):
        SolverParams(curvature=1.5)


# -- simple greedy -----------------------------------------------------


def test_simple_greedy_direct(tiny):
    solution = simple_greedy(tiny)
    assert solution.algorithm == "greedy"
    assert tiny.matroid.is_independent(frozenset(solution.selected))


def test_simple_greedy_empty_ground_set():
    assert simple_greedy(empty_ground_scenario()).selected == ()


def test_simple_greedy_all_zero_objective():
    scenario = Scenario.from_coords(
        [(5.0, 5.0)], [(5.0, 5.0), (5.0, 5.0)], UniformMatroid(2, 2)
    )
    assert simple_greedy(scenario).selected == ()


# -- ratio baseline ----------------------------------------------------


def test_ratio_tiny(tiny):
    # Action 2 is the only candidate with a nonzero worst-case ratio.
    assert ratio_greedy_baseline(tiny).selected == (2,)


def test_ratio_sole_candidate():
    scenario = Scenario.from_coords(
        [(0.0, 0.0), (4.0, 0.0)], [(1.0, 1.0)], UniformMatroid(1, 1)
    )
    assert ratio_greedy_baseline(scenario).selected == (0,)


def test_ratio_zero_capacity():
    scenario = Scenario.from_coords(
        [(0.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)], PartitionMatroid(((0, 1),), (0,))
    )
    assert ratio_greedy_baseline(scenario).selected == ()


def test_ratio_runs_to_basis(rng):
    """With positive distances everywhere the baseline fills the matroid."""
    for _ in range(10):
        scenario = random_small_scenario(rng, max_actions=6)
        solution = ratio_greedy_baseline(scenario)
        if all(
            scenario.distances[i][j] > 0
            for i in range(scenario.n_agents)
            for j in range(scenario.n_actions)
        ):
            selected = set(solution.selected)
            assert not any(scenario.matroid.can_extend(selected, e) for e in range(scenario.n_actions))


def test_ratio_counts_full_scans(tiny):
    # Round 1 scans 3 candidates x 2 agents x (1 + 3) computations, the
    # final recheck adds 2; the baseline is deliberately scan-heavy.
    solution = ratio_greedy_baseline(tiny)
    assert solution.individual_evals == 3 * 2 * 4 + 2


def test_ratio_zero_normalizer_scores_zero():
    # Agent 0 sits on both actions, so its normalizer is 0 and every score
    # is 0: the round is charged, nothing is added, no 0/0 warning fires.
    scenario = Scenario.from_coords(
        [(0.0, 0.0), (10.0, 0.0)], [(0.0, 0.0), (0.0, 0.0)], UniformMatroid(2, 1)
    )
    with np.errstate(all="raise"):
        solution = ratio_greedy_baseline(scenario)
    assert solution.selected == ()
    assert solution.min_value == 0.0
    assert solution.individual_evals == 2 * 2 * 3 + 2


def test_ratio_scores_only_the_feasible_pool():
    """Round 2's pool is the one action at a subnormal distance; the
    infeasible far action would overflow its score, and is not scored."""
    scenario = Scenario.from_coords(
        [(0.0, 0.0)], [(1e-310, 0.0), (1e10, 0.0)], PartitionMatroid(((0,), (1,)), (1, 1))
    )
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        solution = ratio_greedy_baseline(scenario)
    assert solution.selected == (0, 1)


def reference_ratio_baseline(scenario):
    """The baseline as defined, round by round: rebuild the feasible pool,
    its normalizers and every score."""
    matroid, selected, charges = scenario.matroid, set(), 0
    while True:
        feasible = np.flatnonzero([matroid.can_extend(selected, e) for e in range(matroid.n_actions)])
        if feasible.size == 0:
            break
        charges += scenario.n_agents * feasible.size * (1 + feasible.size)
        pool = scenario.distances[:, feasible]
        norm = pool.max(axis=1, keepdims=True)
        scores = (pool / np.where(norm > 0.0, norm, 1.0)).min(axis=0)
        best = int(np.argmax(scores))
        if not scores[best] > 0.0:
            break
        selected.add(int(feasible[best]))
    return tuple(sorted(selected)), min_objective(scenario, selected), charges + scenario.n_agents


def test_ratio_baseline_matches_the_round_by_round_definition(rng):
    """Keeping the scores and the pick order until a normalizer moves, and
    the normalizers until a column attaining one leaves, changes no pick,
    value or charge: on uniform and partition matroids (zero capacities
    included), on tied scores (duplicated actions), on partition blocks that
    fill (capacity one: a pick removes its whole block) and on a matroid
    whose mask is replaced on each ``add``."""
    for _ in range(40):
        n_actions = int(rng.integers(1, 30))
        scenario = random_matroid_scenario(rng, int(rng.integers(1, 12)), n_actions)
        agents, actions = [(p.x, p.y) for p in scenario.agents], [(p.x, p.y) for p in scenario.actions]
        copies = rng.integers(0, n_actions, n_actions)
        tied = Scenario.from_coords(agents, [actions[j] for j in copies], scenario.matroid)
        assignment = rng.integers(0, 4, n_actions)
        blocks = tuple(tuple(int(j) for j in np.flatnonzero(assignment == b)) for b in range(4))
        filling = Scenario.from_coords(agents, actions, PartitionMatroid(blocks, (1,) * 4))
        forwarding = Scenario.from_coords(agents, actions, _ForwardingMatroid(scenario.matroid))
        for instance in (scenario, tied, filling, forwarding):
            solution = ratio_greedy_baseline(instance)
            got = (solution.selected, solution.min_value, solution.individual_evals)
            assert got == reference_ratio_baseline(instance)


# -- exhaustive oracles ------------------------------------------------


def test_brute_force_tiny(tiny):
    solution = brute_force_maxmin(tiny)
    assert solution.selected == (2,)
    assert solution.min_value == pytest.approx(SQRT50, abs=1e-12)


def test_brute_force_cardinality_tie_break(tiny):
    wide = Scenario.from_coords(
        [(p.x, p.y) for p in tiny.agents],
        [(p.x, p.y) for p in tiny.actions],
        UniformMatroid(3, 3),
    )
    solution = brute_force_maxmin(wide)
    assert solution.selected == (0, 1)
    assert solution.min_value == 10.0


def test_brute_force_empty_ground_set():
    solution = brute_force_maxmin(empty_ground_scenario())
    assert solution.selected == ()
    assert solution.min_value == 0.0


def test_brute_force_matches_independent_enumeration(rng):
    for _ in range(25):
        scenario = random_small_scenario(rng, max_actions=6)
        solution = brute_force_maxmin(scenario)
        value, selected = maxmin_by_enumeration(scenario)
        assert solution.min_value == value
        assert solution.selected == selected


def test_brute_force_cap():
    scenario = Scenario.from_coords(
        [(0.0, 0.0)],
        [(float(j), 0.0) for j in range(BRUTE_FORCE_CAP + 1)],
        UniformMatroid(BRUTE_FORCE_CAP + 1, 1),
    )
    with pytest.raises(ValueError, match="brute force"):
        brute_force_maxmin(scenario)
    with pytest.raises(ValueError, match="brute force"):
        brute_force_surrogate_max(SurrogateOracle(scenario, 1.0), scenario.matroid)


def test_surrogate_max_tiny(tiny):
    assert brute_force_surrogate_max(SurrogateOracle(tiny, 8.0), tiny.matroid) == {2}


def test_surrogate_max_gamma_zero(tiny):
    # Everything evaluates to 0; smallest cardinality wins.
    assert brute_force_surrogate_max(SurrogateOracle(tiny, 0.0), tiny.matroid) == frozenset()


def test_surrogate_max_large_gamma_reaches_full_value():
    scenario = Scenario.from_coords(
        [(0.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)], UniformMatroid(2, 2)
    )
    oracle = SurrogateOracle(scenario, 100.0)
    best = brute_force_surrogate_max(oracle, scenario.matroid)
    # Monotonicity: the winner matches the full set's value; the tie order
    # prefers the smallest set achieving it.
    assert oracle.evaluate(best) == oracle.evaluate({0, 1})
    assert best == {1}


def test_iter_independent_sets_unique_and_complete():
    matroid = PartitionMatroid(((0, 1), (2,)), (1, 1))
    sets = list(iter_independent_sets(matroid))
    assert len(sets) == len(set(sets))
    expected = {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }
    assert set(sets) == expected


# -- registry ------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "solvers_small_golden.json"


def test_registry_matches_small_instance_golden():
    """Every registered solver on 200 seeded small instances (uniform and
    partition matroids, zero capacities included): selection, repr of the
    min value and evaluation count, against a file written before the
    objectives and the ratio baseline moved onto one distance array."""
    golden = json.loads(GOLDEN.read_text())
    rng = np.random.default_rng(golden["seed"])
    assert len(golden["solutions"]) == golden["instances"]
    for expected in golden["solutions"]:
        scenario = random_small_scenario(rng, golden["max_actions"], golden["max_agents"])
        assert set(expected) == set(SOLVERS)
        for name, solve in SOLVERS.items():
            solution = solve(scenario, SolverParams())
            got = [list(solution.selected), repr(solution.min_value), solution.individual_evals]
            assert got == expected[name], name
            assert solution.algorithm == name


class _ForwardingMatroid(Matroid):
    """Defines only ``is_independent``, forwarded to a built-in matroid, so
    every other query takes the generic path."""

    def __init__(self, inner):
        self.inner = inner
        self.n_actions = inner.n_actions

    def is_independent(self, subset):
        return self.inner.is_independent(subset)


def test_generic_matroid_path_solves_as_the_built_in(rng):
    """A matroid that defines only ``is_independent`` gets every solver's
    answer and every threshold-greedy trace and stat of the built-in it
    forwards to."""
    for _ in range(30):
        scenario = random_small_scenario(rng, max_actions=12, max_agents=4)
        generic = Scenario(scenario.agents, scenario.actions, _ForwardingMatroid(scenario.matroid))
        for name, solve in SOLVERS.items():
            want, got = solve(scenario, SolverParams()), solve(generic, SolverParams())
            assert (got.selected, got.min_value, got.individual_evals) == (
                want.selected,
                want.min_value,
                want.individual_evals,
            ), name
        upper = min_objective(scenario, range(scenario.n_actions))
        for gamma in gamma_grid(upper):
            runs = []
            for instance in (scenario, generic):
                oracle, trace, stats = SurrogateOracle(instance, gamma), [], {}
                selected = threshold_greedy(oracle, instance.matroid, 1e-3, trace=trace, stats=stats)
                runs.append((selected, trace, stats, oracle.counter.individual_evals))
            assert runs[0] == runs[1]
