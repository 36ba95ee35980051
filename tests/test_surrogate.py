"""Truncated-average surrogate: values, marginal gains, base handles,
evaluation accounting, curvature, and the structural properties."""

import math

import numpy as np
import pytest

from robust_select import (
    EvaluationCounter,
    MinObjectiveOracle,
    Scenario,
    SurrogateOracle,
    UniformMatroid,
    compute_curvature,
    min_objective,
    threshold_greedy,
)
from robust_select.checks import random_small_scenario
from robust_select.matroid import all_subsets
from robust_select.scenario import agent_values
from robust_select.surrogate import CURVATURE_GROUND_CAP

SQRT50 = math.sqrt(50.0)


def surrogate_by_hand(scenario, gamma, subset):
    """Independent recomputation: truncated per-agent maxima, averaged."""
    total = 0.0
    for i in range(scenario.n_agents):
        h = max((scenario.distances[i][j] for j in subset), default=0.0)
        total += min(h, gamma)
    return total / scenario.n_agents


def test_evaluate_truncates_both(tiny):
    assert SurrogateOracle(tiny, 5.0).evaluate({2}) == 5.0


def test_evaluate_partial_truncation(tiny):
    value = SurrogateOracle(tiny, 8.0).evaluate({2})
    assert value == pytest.approx(SQRT50, abs=1e-12)
    assert value == pytest.approx(7.0711, abs=1e-4)


def test_evaluate_gamma_zero(tiny):
    oracle = SurrogateOracle(tiny, 0.0)
    assert oracle.evaluate({0, 1, 2}) == 0.0
    assert oracle.evaluate(set()) == 0.0
    # short-circuit still charges one evaluation per agent
    assert oracle.counter.individual_evals == 4


def test_evaluate_matches_hand_computation(tiny):
    for gamma in (0.0, 3.0, 8.0, 50.0):
        oracle = SurrogateOracle(tiny, gamma)
        for subset in all_subsets(range(3)):
            assert oracle.evaluate(subset) == surrogate_by_hand(tiny, gamma, subset)


def test_empty_set_is_zero(tiny):
    assert SurrogateOracle(tiny, 8.0).evaluate(set()) == 0.0


def test_marginal_gain_from_empty(tiny):
    oracle = SurrogateOracle(tiny, 8.0)
    gain = oracle.gains(oracle.base(set()))[2]
    assert gain == pytest.approx(SQRT50, abs=1e-12)


def test_marginal_gain_partial(tiny):
    # Adding action 0 to {2}: agent 0 unchanged at sqrt(50), agent 1 goes
    # to min(10, 8); recomputed here from scratch.
    expected = (SQRT50 + min(10.0, 8.0)) / 2.0 - SQRT50
    oracle = SurrogateOracle(tiny, 8.0)
    gain = oracle.gains(oracle.base({2}))[0]
    assert gain == pytest.approx(expected, abs=1e-12)
    assert gain == pytest.approx(0.4645, abs=1e-4)


def test_marginal_gain_cache_transparency(tiny, rng):
    """Gains read from one oracle's handles, each base the child of the one
    before, equal a fresh oracle's from-scratch difference, bit for bit."""
    for _ in range(10):
        scenario = random_small_scenario(rng, max_actions=6)
        upper = min_objective(scenario, range(scenario.n_actions))
        gamma = 0.6 * upper if upper > 0 else 1.0
        warm = SurrogateOracle(scenario, gamma)
        handle = warm.base(())
        for e in range(scenario.n_actions):
            cached_gain = warm.gains(handle)[e]
            fresh = SurrogateOracle(scenario, gamma)
            uncached_gain = fresh.evaluate(handle.subset | {e}) - fresh.evaluate(handle.subset)
            assert cached_gain == uncached_gain
            if e % 2 == 0:
                handle = warm.child(handle, e)


def test_marginal_gain_accounting(tiny):
    """A handle's first scan charges its base and its candidates, later
    scans only their candidates, and every fresh handle is cold again.
    ``evaluate`` charges one evaluation whether or not the set is the last
    handle's, and reads that handle only for its own set."""
    oracle = SurrogateOracle(tiny, 8.0)
    n = tiny.n_agents
    base = oracle.base(set())
    oracle.charge_scan(base, 1)
    assert oracle.counter.individual_evals == 2 * n  # base + candidate
    oracle.charge_scan(base, 1)
    assert oracle.counter.individual_evals == 3 * n  # the base is warm now
    base = oracle.base({1})
    oracle.charge_scan(base, 1)
    assert oracle.counter.individual_evals == 5 * n  # a fresh handle is cold
    assert oracle.evaluate({2}) == SQRT50  # the last handle is {1}
    assert oracle.evaluate({1}) == 4.0
    oracle.evaluate({1, 2})
    assert oracle.counter.individual_evals == 8 * n  # evaluate always charges


def random_scenario(rng, n_agents, n_actions):
    return Scenario.from_coords(
        rng.uniform(0.0, 100.0, (n_agents, 2)),
        rng.uniform(0.0, 100.0, (n_actions, 2)),
        UniformMatroid(n_actions, n_actions),
    )


@pytest.mark.parametrize("n_agents", [16, 64])
def test_batched_gains_bit_for_bit(rng, n_agents):
    """A handle's gains over its feasible candidates equal a fresh
    evaluate(S | {e}) - evaluate(S), its children's values a fresh
    evaluate(S | {e}), and evaluate equals a sequential sum over agents,
    exactly."""
    for _ in range(4):
        scenario = random_scenario(rng, n_agents, 24)
        upper = min_objective(scenario, range(24))
        for oracle_of in (
            lambda: SurrogateOracle(scenario, 0.7 * upper),
            lambda: SurrogateOracle(scenario, 2.0 * upper),
            lambda: MinObjectiveOracle(scenario),
        ):
            for size in (0, 1, 3):
                subset = frozenset(int(j) for j in rng.choice(24, size, replace=False))
                mask = np.ones(24, dtype=bool)
                mask[list(subset)] = False
                batched = oracle_of()
                handle = batched.base(subset)
                candidates, gains = batched.feasible(handle, mask)
                for e, gain in zip(candidates.tolist(), gains):
                    fresh = oracle_of()
                    extended = fresh.evaluate(subset | {e})
                    assert gain == extended - fresh.evaluate(subset)
                    assert batched.child(handle, e).value == extended
            oracle = SurrogateOracle(scenario, 0.7 * upper)
            assert oracle.evaluate(subset) == surrogate_by_hand(scenario, 0.7 * upper, subset)


def test_batched_cold_base_costs_one_extra_evaluation(rng):
    scenario = random_scenario(rng, 16, 12)
    oracle = SurrogateOracle(scenario, 50.0)
    n = scenario.n_agents
    base = oracle.base({0, 1})
    gains = oracle.gains(base)[2:]
    oracle.charge_scan(base, gains.size)
    assert oracle.counter.individual_evals == 11 * n  # cold base + 10 candidates
    oracle.charge_scan(base, gains.size)
    assert oracle.counter.individual_evals == 21 * n  # a scanned base is warm
    again = oracle.base({0, 1})
    oracle.charge_scan(again, gains.size)
    assert oracle.counter.individual_evals == 32 * n  # a fresh handle is cold


def test_batched_stop_charges_only_the_scanned_prefix(rng):
    scenario = random_scenario(rng, 16, 12)
    n = scenario.n_agents
    candidates = list(range(1, 12))
    fresh = SurrogateOracle(scenario, 50.0)
    full = [fresh.evaluate({0, e}) - fresh.evaluate({0}) for e in candidates]
    hit = int(np.argmax(full))
    oracle = SurrogateOracle(scenario, 50.0)
    base = oracle.base({0})
    assert oracle.gains(base)[1:].tolist() == full
    # Charging no candidates charges nothing, and leaves the base cold.
    oracle.charge_scan(base, 0)
    assert oracle.counter.individual_evals == 0 and base.cold
    # A scan that stops at the first best gain charges its prefix only.
    oracle.charge_scan(base, hit + 1)
    assert oracle.counter.individual_evals == (1 + hit + 1) * n
    # The accepted extension is warm: a scan of it charges its candidates only.
    child = oracle.child(base, candidates[hit])
    oracle.charge_scan(child, 1)
    assert oracle.counter.individual_evals == (1 + hit + 1 + 1) * n
    # A scan that nothing stops charges every candidate.
    oracle = SurrogateOracle(scenario, 50.0)
    base = oracle.base({0})
    assert oracle.gains(base)[1:].tolist() == full
    oracle.charge_scan(base, len(candidates))
    assert oracle.counter.individual_evals == (1 + len(candidates)) * n


def test_batched_gamma_zero_charges_per_candidate_only(tiny):
    oracle = SurrogateOracle(tiny, 0.0)
    n = tiny.n_agents
    base = oracle.base({0})
    gains = oracle.gains(base)[[1, 2]]
    assert gains.tolist() == [0.0, 0.0]
    oracle.charge_scan(base, gains.size)
    assert oracle.counter.individual_evals == 2 * n  # no cold-base charge
    oracle.charge_scan(oracle.base({0}), 1)
    assert oracle.counter.individual_evals == 3 * n


@pytest.mark.parametrize("n_agents", [16, 64])
def test_base_handle_matches_evaluate_differences(rng, n_agents):
    """The threshold greedy's path (``base``, ``feasible``, ``charge_scan``
    over slices, ``child``) returns the gains a fresh
    evaluate(S | {e}) - evaluate(S) gives, scan by scan, and a child's
    value equals a from-scratch evaluation, bit for bit. ``feasible``
    checks its mask once: a wrong length is an IndexError, a member a
    ValueError, and neither it nor a child charges anything. A handle's first scan charges its base, later
    scans only their candidates."""
    scenario = random_scenario(rng, n_agents, 30)
    upper = min_objective(scenario, range(30))
    n = scenario.n_agents
    for make in (lambda: SurrogateOracle(scenario, 0.7 * upper), lambda: MinObjectiveOracle(scenario)):
        oracle = make()
        base = oracle.base({3, 7})
        with pytest.raises(IndexError, match="ground set"):
            oracle.feasible(base, np.ones(31, dtype=bool))
        mask = rng.random(30) < 0.7
        mask[3] = True
        with pytest.raises(ValueError, match="outside"):
            oracle.feasible(base, mask)
        mask[[3, 7]] = False
        ids, gains = oracle.feasible(base, mask)
        assert ids.tolist() == np.flatnonzero(mask).tolist()
        assert oracle.counter.individual_evals == 0
        reference = make()
        by_definition = [reference.evaluate({3, 7, e}) - reference.evaluate({3, 7}) for e in ids.tolist()]
        charged = 1  # the cold base, with the first scan
        for lo in (0, ids.size // 2):
            scanned = gains[lo:]
            oracle.charge_scan(base, scanned.size)
            assert scanned.tolist() == by_definition[lo:]
            charged += scanned.size
            assert oracle.counter.individual_evals == charged * n
        e = int(ids[-1])
        child = oracle.child(base, e)
        fresh = make()
        assert child.value == fresh.evaluate({3, 7, e})
        assert oracle.counter.individual_evals == charged * n
        # The child's gains are the from-scratch differences of its set.
        rest = [j for j in ids.tolist() if j != e]
        assert oracle.feasible(child, mask & (np.arange(30) != e))[1].tolist() == [
            fresh.evaluate({3, 7, e, j}) - fresh.evaluate({3, 7, e}) for j in rest
        ]
        assert oracle.counter.individual_evals == charged * n


def test_gamma_zero_builds_no_lanes(rng):
    """At gamma == 0 the gains are known to be 0: the oracle returns them,
    charges them and checks ids and members as at any gamma, but builds no
    capped matrix and no N x M lanes."""
    scenario = random_scenario(rng, 16, 12)
    n = scenario.n_agents
    oracle = SurrogateOracle(scenario, 0.0)
    base = oracle.base({0, 3})
    feasibility = scenario.matroid.feasibility()
    feasibility.add(0)
    feasibility.add(3)
    ids, gains = oracle.feasible(base, feasibility.mask)
    assert ids.tolist() == [1, 2, *range(4, 12)] and gains.tolist() == [0.0] * 10
    oracle.charge_scan(base, gains.size)
    empty = oracle.base(())
    assert oracle.gains(empty)[:1].tolist() == [0.0]
    oracle.charge_scan(empty, 1)
    assert oracle.counter.individual_evals == 11 * n  # no cold-base charges
    with pytest.raises(ValueError, match="outside"):
        oracle.feasible(base, np.ones(12, dtype=bool))
    with pytest.raises(IndexError, match="ground set"):
        oracle.feasible(base, np.ones(13, dtype=bool))
    with pytest.raises(IndexError, match="outside ground set"):
        oracle.base({12})
    assert oracle.counter.individual_evals == 11 * n
    assert base.lanes is None and empty.lanes is None and not base.cold
    assert "_capped" not in vars(oracle)


def _bits(array):
    """The float64 bit patterns of ``array``, so that +0.0 and -0.0 differ."""
    return np.asarray(array, dtype=np.float64).view(np.uint64).tolist()


def _lane_path(oracle):
    """``oracle`` with saturation never detected: every handle builds lanes."""
    oracle._saturated = lambda handle: False
    return oracle


@pytest.mark.parametrize("n_agents", [1, 16, 64])
def test_saturated_handles_build_no_lanes(rng, n_agents):
    """Below every distance, gamma saturates every agent of a non-empty set.
    Its handle builds no lanes, and its gains are +0.0 bit for bit: the
    from-scratch lanes (``np.maximum``, then ``np.add.reduce`` in agent
    order) minus its value. Scanning them charges what the lane path
    charges, and its child is the lane path's child."""
    scenario = random_scenario(rng, n_agents, 30)
    gamma = 0.5 * float(scenario.distances.min())
    capped = np.minimum(scenario.distances, gamma)
    for members in ({3}, {3, 7}, {0, 1, 29}):
        oracle, lanes = SurrogateOracle(scenario, gamma), _lane_path(SurrogateOracle(scenario, gamma))
        base, reference = oracle.base(members), lanes.base(members)
        values = np.minimum(agent_values(scenario, members), gamma)
        scratch = np.add.reduce(np.maximum(values[:, None], capped), axis=0) / n_agents - base.value
        assert _bits(oracle.gains(base)) == _bits(scratch) == _bits(np.zeros(30))
        assert base.lanes is None
        assert _bits(lanes.gains(reference)) == _bits(scratch) and reference.lanes is not None
        mask = np.ones(30, dtype=bool)
        mask[list(members)] = False
        for each, handle in ((oracle, base), (lanes, reference)):
            gains = each.feasible(handle, mask)[1]
            each.charge_scan(handle, 5)
            each.charge_scan(handle, 1)
        assert oracle.counter.individual_evals == lanes.counter.individual_evals == 7 * n_agents
        child, expected = oracle.child(base, 12), lanes.child(reference, 12)
        assert child.subset == expected.subset and child.value == expected.value
        assert _bits(child.values) == _bits(expected.values)
        assert _bits(oracle.gains(child)) == _bits(lanes.gains(expected)) and child.lanes is None
        assert oracle.evaluate(members | {12}) == lanes.evaluate(members | {12})
        assert oracle.counter.individual_evals == lanes.counter.individual_evals == 8 * n_agents


@pytest.mark.parametrize("n_agents", [16, 64])
def test_partly_saturated_handles_build_lanes(rng, n_agents):
    """A handle with only some agents at gamma builds its lanes, and its
    gains and its children are the from-scratch values, bit for bit, even
    for a child taken before any gain was read."""
    scenario = random_scenario(rng, n_agents, 30)
    for members in ({3}, {3, 7}, {0, 1, 29}):
        gamma = float(np.median(agent_values(scenario, members)))
        values = np.minimum(agent_values(scenario, members), gamma)
        assert (values == gamma).any() and (values < gamma).any()
        oracle = SurrogateOracle(scenario, gamma)
        base = oracle.base(members)
        capped = np.minimum(scenario.distances, gamma)
        scratch = np.add.reduce(np.maximum(values[:, None], capped), axis=0) / n_agents - base.value
        assert _bits(oracle.gains(base)) == _bits(scratch) and base.lanes is not None
        child = oracle.child(base, 12)
        assert _bits(child.values) == _bits(np.minimum(agent_values(scenario, members | {12}), gamma))
        assert child.value == SurrogateOracle(scenario, gamma).evaluate(members | {12})
        unread = SurrogateOracle(scenario, gamma)
        assert _bits(unread.child(unread.base(members), 12).values) == _bits(child.values)


def test_a_saturated_value_with_an_agent_below_gamma_builds_lanes():
    """Two agents at d and at gamma = the next double above d (of even last
    bit) sum to 2 * gamma after rounding, so the set's value equals that of
    a set saturating both while agent 0 is below gamma. Its handle still
    builds lanes, and an element that raises agent 0 reaches gamma in its
    child."""
    for k in range(1, 100):
        near = (3.0, 0.37 * k)
        d = math.dist((0.0, 0.0), near)
        gamma = math.nextafter(d, math.inf)
        if not np.float64(gamma).view(np.uint64) & 1 and math.frexp(gamma)[0] != 0.5:
            break
    scenario = Scenario.from_coords([(0.0, 0.0), (100.0, 0.0)], [near, (0.0, 50.0)], UniformMatroid(2, 2))
    oracle = SurrogateOracle(scenario, gamma)
    base = oracle.base({0})
    assert base.values.tolist() == [d, gamma] and base.value == oracle.evaluate({0, 1})
    assert oracle.gains(base).tolist() == [0.0, 0.0] and base.lanes is not None
    assert oracle.child(base, 1).values.tolist() == [gamma, gamma]


def _greedy_outputs(scenario, gamma):
    """What the threshold greedy returns at ``gamma``."""
    oracle = SurrogateOracle(scenario, gamma)
    trace, stats = [], {}
    selected = threshold_greedy(oracle, scenario.matroid, 0.05, trace=trace, stats=stats)
    return selected, trace, stats, oracle.counter.individual_evals


def test_greedies_match_the_lane_path(rng, monkeypatch):
    """Skipping the lanes of saturated handles changes no selection, trace,
    stat or charge of the threshold greedy."""
    saturated = 0
    for _ in range(12):
        n_actions = int(rng.integers(5, 25))
        scenario = Scenario.from_coords(
            rng.uniform(0.0, 100.0, (int(rng.integers(1, 20)), 2)),
            rng.uniform(0.0, 100.0, (n_actions, 2)),
            UniformMatroid(n_actions, int(rng.integers(1, 6))),
        )
        upper = min_objective(scenario, range(n_actions))
        for gamma in (0.0, 0.1 * upper, 0.5 * upper, upper, 2.0 * upper):
            outputs = _greedy_outputs(scenario, gamma)
            oracle = SurrogateOracle(scenario, gamma)
            handle = oracle.base(outputs[0])
            oracle.gains(handle)
            saturated += bool(handle.subset) and handle.lanes is None
            with monkeypatch.context() as patch:
                patch.setattr(SurrogateOracle, "_saturated", lambda self, handle: False)
                assert _greedy_outputs(scenario, gamma) == outputs
    assert saturated  # the skip was exercised


def test_batched_rejects_members_and_skips_empty(tiny):
    """A mask that admits a member is refused; an empty one builds no lanes,
    and a scan of nothing charges nothing, not even a cold base."""
    oracle = SurrogateOracle(tiny, 8.0)
    base = oracle.base({1})
    with pytest.raises(ValueError, match="outside"):
        oracle.feasible(base, np.array([True, True, False]))
    ids, gains = oracle.feasible(base, np.zeros(3, dtype=bool))
    assert ids.size == gains.size == 0 and base.lanes is None
    oracle.charge_scan(base, gains.size)
    assert oracle.counter.individual_evals == 0 and base.cold


def test_members_of_a_promoted_base_are_rejected(tiny):
    """The member mask of a child handle covers the element it added."""
    oracle = SurrogateOracle(tiny, 8.0)
    base = oracle.base({0})
    oracle.feasible(base, np.array([False, True, True]))
    child = oracle.child(base, 1)
    with pytest.raises(ValueError, match="outside"):
        oracle.feasible(child, np.array([False, True, True]))
    assert oracle.feasible(child, np.array([False, False, True]))[0].tolist() == [2]


def agent_order_sum(values):
    """Sum over axis 0 one agent at a time, in agent order."""
    total = values[0].copy() if values.ndim > 1 else float(values[0])
    for row in values[1:]:
        total = total + row
    return total


@pytest.mark.parametrize(
    "layout",
    ["vector", "single column", "c-contiguous", "fortran", "strided view", "two columns"],
)
def test_reduce_is_the_agent_order_sum(rng, layout):
    """``_total`` of ``_cap``ped values equals an explicit agent-order sum
    bit for bit, whatever the layout numpy hands it."""
    for n_agents in (1, 2, 9, 64, 333):
        raw = rng.uniform(0.0, 1.0, (n_agents, 12)) * 10.0 ** rng.integers(-6, 7, (n_agents, 12))
        values = {
            "vector": raw[:, 0].copy(),
            "single column": raw[:, :1].copy(),
            "c-contiguous": raw,
            "fortran": np.asfortranarray(raw),
            "strided view": raw[:, ::3],
            "two columns": raw[:, :2].copy(),
        }[layout]
        gamma = float(np.median(raw))
        expected = agent_order_sum(np.minimum(values, gamma)) / n_agents
        oracle = SurrogateOracle(random_scenario(rng, 1, 1), gamma)
        reduced = oracle._total(oracle._cap(values))
        assert np.array_equal(reduced, expected)


@pytest.mark.parametrize("n_agents", [16, 64])
def test_lane_reads_equal_cold_gains_and_charges(rng, n_agents):
    """A gain read from a scanned handle's lanes equals the gain a cold
    oracle computes and a from-scratch difference, and costs exactly what a
    fresh oracle's scan of the same candidate costs after its base charge.
    ``evaluate`` reads a child's value from the handle, charging one
    evaluation and returning the from-scratch bits."""
    scenario = random_scenario(rng, n_agents, 30)
    upper = min_objective(scenario, range(30))
    n = scenario.n_agents
    for make in (lambda: SurrogateOracle(scenario, 0.7 * upper), lambda: MinObjectiveOracle(scenario)):
        warm = make()
        for members in ({3, 7}, {1, 2, 29}, {3, 7}):
            base = warm.base(members)
            mask = np.ones(30, dtype=bool)
            mask[list(members)] = False
            ids, gains = warm.feasible(base, mask)
            warm.charge_scan(base, 1)
            for e, gain in zip(ids.tolist(), gains.tolist()):
                before = warm.counter.individual_evals
                warm.charge_scan(base, 1)
                assert warm.counter.individual_evals - before == n  # a scanned base
                cold = make()
                handle = cold.base(members)
                assert cold.gains(handle)[e] == gain
                cold.charge_scan(handle, 1)
                assert cold.counter.individual_evals == 2 * n  # cold base + candidate
                fresh = make()
                assert fresh.evaluate(members | {e}) - fresh.evaluate(members) == gain
                warm.child(base, e)
                before = warm.counter.individual_evals
                assert warm.evaluate(members | {e}) == fresh.evaluate(members | {e})
                assert warm.counter.individual_evals - before == n


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("make", [lambda s: SurrogateOracle(s, 8.0), lambda s: SurrogateOracle(s, 0.0), MinObjectiveOracle])
def test_out_of_range_ids_raise(tiny, make, bad):
    """Ids outside [0, M) are refused, never wrapped to another action, and
    a refused call charges nothing."""
    oracle = make(tiny)
    with pytest.raises(IndexError, match="outside ground set"):
        oracle.evaluate({bad})
    with pytest.raises(IndexError, match="outside ground set"):
        oracle.base({bad})
    assert oracle.counter.individual_evals == 0


def test_a_bool_among_ids_is_refused(tiny):
    """True is not read as id 1, in a base set or in a set that equals the
    memo; a refused call charges nothing."""
    for oracle in (SurrogateOracle(tiny, 8.0), MinObjectiveOracle(tiny)):
        with pytest.raises(IndexError, match="got bool"):
            oracle.base([True, 2])
        with pytest.raises(IndexError, match="got bool"):
            oracle.evaluate([0, True])
        oracle.base({0, 1})
        with pytest.raises(IndexError, match="got bool"):
            oracle.evaluate([0, True])
        assert oracle.counter.individual_evals == 0


def test_shared_counter(tiny):
    counter = EvaluationCounter()
    SurrogateOracle(tiny, 4.0, counter).evaluate({0})
    SurrogateOracle(tiny, 6.0, counter).evaluate({0})
    assert counter.individual_evals == 2 * tiny.n_agents


def test_gamma_validation(tiny):
    with pytest.raises(ValueError):
        SurrogateOracle(tiny, -1.0)
    with pytest.raises(ValueError):
        SurrogateOracle(tiny, math.nan)
    with pytest.raises(ValueError, match="gamma"):
        SurrogateOracle(tiny, 10**400)  # no double holds it
    for flag in (True, False):
        with pytest.raises(ValueError, match="gamma"):
            SurrogateOracle(tiny, flag)


def test_min_objective_oracle(tiny):
    oracle = MinObjectiveOracle(tiny)
    assert oracle.evaluate({2}) == min_objective(tiny, {2})
    assert oracle.evaluate(set()) == 0.0
    gain = oracle.gains(oracle.base({0}))[1]
    assert gain == min_objective(tiny, {0, 1}) - min_objective(tiny, {0})


def test_structural_properties_random_instances(rng):
    """Monotonicity, submodularity, range, floor, and saturation of the
    surrogate, exhaustively on random instances with a gamma grid that
    includes 0 and the worst agent's full-set value."""
    for _ in range(25):
        scenario = random_small_scenario(rng, max_actions=6)
        n = scenario.n_actions
        subsets = all_subsets(range(n))
        upper = min_objective(scenario, range(n))
        for gamma in (0.0, 0.3 * upper, 0.7 * upper, upper):
            oracle = SurrogateOracle(scenario, gamma)
            value = {s: oracle.evaluate(s) for s in subsets}
            assert value[frozenset()] == 0.0
            for s in subsets:
                assert -1e-12 <= value[s] <= gamma + 1e-12
                worst = min(
                    max((scenario.distances[i][j] for j in s), default=0.0)
                    for i in range(scenario.n_agents)
                )
                assert value[s] >= min(worst, gamma) / scenario.n_agents - 1e-12
            for b in subsets:
                for a in subsets:
                    if not a <= b:
                        continue
                    assert value[a] <= value[b] + 1e-12
                    for v in range(n):
                        if v in b:
                            continue
                        assert (
                            value[a | {v}] - value[a]
                            >= value[b | {v}] - value[b] - 1e-12
                        )


def test_marginal_gain_nonnegative(rng):
    for _ in range(10):
        scenario = random_small_scenario(rng, max_actions=6)
        upper = min_objective(scenario, range(scenario.n_actions))
        oracle = SurrogateOracle(scenario, 0.5 * upper if upper > 0 else 1.0)
        handle = oracle.base(())
        for e in range(scenario.n_actions):
            assert (oracle.gains(handle) >= 0.0).all()
            handle = oracle.child(handle, e)


class _ModularOracle:
    def __init__(self, weights):
        self.weights = weights

    def evaluate(self, subset):
        return sum(self.weights[i] for i in subset)


class _CappedCount:
    def evaluate(self, subset):
        return float(min(len(subset), 1))


class _ZeroOracle:
    def evaluate(self, subset):
        return 0.0


class _DecreasingOracle:
    def evaluate(self, subset):
        return 1.0 / (1 + len(subset))


def test_curvature_modular_is_zero():
    assert compute_curvature(_ModularOracle([1.0, 2.0, 3.0]), range(3)) == 0.0


def test_curvature_fully_saturated_is_one():
    assert compute_curvature(_CappedCount(), range(2)) == 1.0


def test_curvature_zero_function_is_zero():
    assert compute_curvature(_ZeroOracle(), range(3)) == 0.0


def test_curvature_clamps_and_warns_on_nonmonotone():
    with pytest.warns(RuntimeWarning, match="outside"):
        value = compute_curvature(_DecreasingOracle(), range(3))
    assert value == 1.0


def test_curvature_of_surrogate_in_unit_interval(tiny, rng):
    for _ in range(10):
        scenario = random_small_scenario(rng, max_actions=6)
        upper = min_objective(scenario, range(scenario.n_actions))
        c = compute_curvature(SurrogateOracle(scenario, 0.8 * upper), range(scenario.n_actions))
        assert 0.0 <= c <= 1.0


def test_curvature_ground_cap():
    with pytest.raises(ValueError, match="<= 20"):
        compute_curvature(_ZeroOracle(), range(CURVATURE_GROUND_CAP + 1))
