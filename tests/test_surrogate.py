"""Truncated-average surrogate: values, marginal gains read from a base's
lanes, evaluation accounting and the memo, curvature, and the structural
properties."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from robust_select import (
    EvaluationCounter,
    Matroid,
    PartitionMatroid,
    Scenario,
    SOLVERS,
    SolverParams,
    SurrogateOracle,
    UniformMatroid,
    compute_curvature,
    min_objective,
    threshold_greedy,
)
from robust_select import surrogate
from robust_select.checks import gamma_grid, random_small_scenario
from robust_select.matroid import all_subsets
from robust_select.scenario import agent_values
from robust_select.surrogate import CURVATURE_GROUND_CAP
from test_bench_shaped_golden import crowd_scenario, ring_scenario

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


def scratch_base(scenario, gamma, subset):
    """``subset`` as the threshold greedy holds a base, scored from scratch:
    its capped per-agent values (None for the empty set) and its value."""
    subset = frozenset(subset)
    values = np.minimum(agent_values(scenario, subset), gamma) if subset else None
    return values, SurrogateOracle(scenario, gamma).evaluate(subset)


def lane_gains(oracle, values, value):
    """A base's gain against every ground element, read from its lanes: the
    reduced row minus its value, or +0.0 where the base is saturated."""
    built = oracle.lanes(values, value)
    return np.zeros(oracle.scenario.n_actions) if built is None else built[1] - value


def child(oracle, values, value, element):
    """The base plus ``element`` as the greedy takes it: the element's lane
    and reduced entry, or the base's own values when it is saturated."""
    built = oracle.lanes(values, value)
    return (values, value) if built is None else (built[0][:, element], float(built[1][element]))


class _FaultyMatroid(Matroid):
    """A matroid whose feasibility state offers ``mask_of(chosen)`` after
    every insertion, whether or not it is a valid mask."""

    def __init__(self, n_actions, mask_of):
        self.n_actions, self.mask_of = n_actions, mask_of

    def feasibility(self):
        chosen = set()
        state = SimpleNamespace(mask=self.mask_of(chosen))

        def add(element):
            chosen.add(element)
            state.mask = self.mask_of(chosen)

        state.add = add
        return state


def test_marginal_gain_from_empty(tiny):
    oracle = SurrogateOracle(tiny, 8.0)
    gain = oracle.lanes()[1][2]  # the empty set's gains are its reduced row
    assert gain == pytest.approx(SQRT50, abs=1e-12)


def test_marginal_gain_partial(tiny):
    # Adding action 0 to {2}: agent 0 unchanged at sqrt(50), agent 1 goes
    # to min(10, 8); recomputed here from scratch.
    expected = (SQRT50 + min(10.0, 8.0)) / 2.0 - SQRT50
    oracle = SurrogateOracle(tiny, 8.0)
    gain = lane_gains(oracle, *scratch_base(tiny, 8.0, {2}))[0]
    assert gain == pytest.approx(expected, abs=1e-12)
    assert gain == pytest.approx(0.4645, abs=1e-4)


def test_marginal_gain_cache_transparency(tiny, rng):
    """Gains read from one oracle's lanes, each base the child of the one
    before, equal a fresh oracle's from-scratch difference, bit for bit."""
    for _ in range(10):
        scenario = random_small_scenario(rng, max_actions=6)
        upper = min_objective(scenario, range(scenario.n_actions))
        gamma = 0.6 * upper if upper > 0 else 1.0
        warm = SurrogateOracle(scenario, gamma)
        subset, values, value = frozenset(), None, 0.0
        for e in range(scenario.n_actions):
            cached_gain = lane_gains(warm, values, value)[e]
            fresh = SurrogateOracle(scenario, gamma)
            uncached_gain = fresh.evaluate(subset | {e}) - fresh.evaluate(subset)
            assert cached_gain == uncached_gain
            if e % 2 == 0:
                subset, (values, value) = subset | {e}, child(warm, values, value, e)


def test_marginal_gain_accounting(tiny):
    """Lanes charge nothing, ``charge`` charges its count of evaluations per
    agent, and ``evaluate`` charges one evaluation whether or not it reads
    the memo, which it reads only for the remembered set."""
    oracle = SurrogateOracle(tiny, 8.0)
    n = tiny.n_agents
    lanes, reduced = oracle.lanes()
    values, value = lanes[:, 1], float(reduced[1])
    assert oracle.lanes(values, value) is not None
    assert oracle.counter.individual_evals == 0
    oracle.charge(3)
    assert oracle.counter.individual_evals == 3 * n
    oracle.remember(frozenset({1}), value)
    assert oracle.evaluate({2}) == SQRT50  # a miss: the memo holds {1}
    assert oracle.counter.individual_evals == 4 * n
    assert oracle.evaluate({1}) == 4.0 == value  # a hit
    assert oracle.counter.individual_evals == 5 * n


def random_scenario(rng, n_agents, n_actions):
    return Scenario.from_coords(
        rng.uniform(0.0, 100.0, (n_agents, 2)),
        rng.uniform(0.0, 100.0, (n_actions, 2)),
        UniformMatroid(n_actions, n_actions),
    )


@pytest.mark.parametrize("n_agents", [16, 64])
def test_batched_gains_bit_for_bit(rng, n_agents):
    """A base's lane gains over its candidates equal a fresh
    evaluate(S | {e}) - evaluate(S), its children's values a fresh
    evaluate(S | {e}), and evaluate equals a sequential sum over agents,
    exactly."""
    for _ in range(4):
        scenario = random_scenario(rng, n_agents, 24)
        upper = min_objective(scenario, range(24))
        for gamma in (0.7 * upper, 2.0 * upper):
            for size in (0, 1, 3):
                subset = frozenset(int(j) for j in rng.choice(24, size, replace=False))
                batched = SurrogateOracle(scenario, gamma)
                values, value = scratch_base(scenario, gamma, subset)
                gains = lane_gains(batched, values, value)
                for e in sorted(set(range(24)) - subset):
                    fresh = SurrogateOracle(scenario, gamma)
                    extended = fresh.evaluate(subset | {e})
                    assert gains[e] == extended - fresh.evaluate(subset)
                    assert child(batched, values, value, e)[1] == extended
            oracle = SurrogateOracle(scenario, 0.7 * upper)
            assert oracle.evaluate(subset) == surrogate_by_hand(scenario, 0.7 * upper, subset)


def test_batched_cold_base_costs_one_extra_evaluation(rng):
    """The greedy charges the empty set, scored cold, with its first scan of
    every element. Under a matroid that admits nothing that scan is all it
    charges: one evaluation more than at gamma == 0, where every value is
    known to be 0."""
    scenario = random_scenario(rng, 16, 12)
    nothing = PartitionMatroid((tuple(range(12)),), (0,))
    for gamma, charged in ((50.0, 13), (0.0, 12)):
        oracle = SurrogateOracle(scenario, gamma)
        assert threshold_greedy(oracle, nothing, 0.1) == set()
        assert oracle.counter.individual_evals == charged * scenario.n_agents


def test_batched_stop_charges_only_the_scanned_prefix(rng, monkeypatch):
    """Under rank 1 the greedy's one pass stops at the first best singleton:
    it charges the cold empty set, every element, and the prefix of the pass
    up to that singleton, which it takes. The set it leaves has no
    candidate, so only the empty set's lanes are asked for, and
    ``evaluate`` reads the set's value from the memo, scoring no agent."""
    scenario = random_scenario(rng, 16, 12)
    fresh = SurrogateOracle(scenario, 50.0)
    full = [fresh.evaluate({e}) for e in range(12)]
    hit = int(np.argmax(full))
    oracle = _CountingOracle(scenario, 50.0)
    assert threshold_greedy(oracle, UniformMatroid(12, 1), 0.1) == {hit}
    assert oracle.counter.individual_evals == (1 + 12 + hit + 1) * scenario.n_agents
    assert oracle.built == [True]
    monkeypatch.setattr(surrogate, "agent_values", None)
    assert oracle.evaluate({hit}) == full[hit]
    assert oracle.counter.individual_evals == (1 + 12 + hit + 2) * scenario.n_agents


def test_batched_gamma_zero_charges_per_candidate_only(tiny):
    """At gamma == 0 the greedy charges its scan of every element and no
    cold base, and returns the empty set."""
    oracle = SurrogateOracle(tiny, 0.0)
    assert threshold_greedy(oracle, tiny.matroid, 0.1) == set()
    assert oracle.counter.individual_evals == 3 * tiny.n_agents


@pytest.mark.parametrize("n_agents", [16, 64])
def test_base_handle_matches_evaluate_differences(rng, n_agents):
    """A base as the threshold greedy holds it, a set with its capped values
    and value, gets from ``lanes`` the gains a fresh
    evaluate(S | {e}) - evaluate(S) gives, and its child, taken from the
    element's lane, the value and the gains of a from-scratch evaluation,
    bit for bit. Lanes charge nothing."""
    scenario = random_scenario(rng, n_agents, 30)
    gamma = 0.7 * min_objective(scenario, range(30))
    oracle, reference = SurrogateOracle(scenario, gamma), SurrogateOracle(scenario, gamma)
    values, value = scratch_base(scenario, gamma, {3, 7})
    ids = [e for e in range(30) if e not in (3, 7)]
    by_definition = [reference.evaluate({3, 7, e}) - reference.evaluate({3, 7}) for e in ids]
    assert lane_gains(oracle, values, value)[ids].tolist() == by_definition
    e, rest = ids[-1], ids[:-1]
    values, value = child(oracle, values, value, e)
    assert value == reference.evaluate({3, 7, e})
    assert lane_gains(oracle, values, value)[rest].tolist() == [
        reference.evaluate({3, 7, e, j}) - reference.evaluate({3, 7, e}) for j in rest
    ]
    assert oracle.counter.individual_evals == 0


def test_gamma_zero_builds_no_lanes(rng):
    """At gamma == 0 every base is saturated: ``lanes`` builds no capped
    matrix and no N x M lanes, and the greedy charges every element once and
    no cold base, and still refuses a mask of the wrong shape."""
    scenario = random_scenario(rng, 16, 12)
    oracle = SurrogateOracle(scenario, 0.0)
    assert oracle.lanes() is None and oracle.lanes(*scratch_base(scenario, 0.0, {0, 3})) is None
    assert threshold_greedy(oracle, scenario.matroid, 0.1) == set()
    assert oracle.counter.individual_evals == 12 * scenario.n_agents  # no cold-base charge
    with pytest.raises(IndexError, match="ground set"):
        threshold_greedy(oracle, _FaultyMatroid(12, lambda chosen: np.ones(13, dtype=bool)), 0.1)
    assert oracle._capped is None  # no capped matrix was built


def _bits(array):
    """The float64 bit patterns of ``array``, so that +0.0 and -0.0 differ."""
    return np.asarray(array, dtype=np.float64).view(np.uint64).tolist()


def _lane_path(oracle):
    """``oracle`` with saturation never detected: every base gets lanes."""
    oracle._saturated = lambda values, value: False
    return oracle


class _CountingOracle(SurrogateOracle):
    """Records, for each ``lanes`` call, whether it built lanes."""

    def __init__(self, *args):
        super().__init__(*args)
        self.built = []

    def lanes(self, *base):
        built = super().lanes(*base)
        self.built.append(built is not None)
        return built


@pytest.mark.parametrize("n_agents", [1, 16, 64])
def test_saturated_handles_build_no_lanes(rng, n_agents):
    """Below every distance, gamma saturates every agent of a non-empty set.
    ``lanes`` builds none for it, and its gains are +0.0 bit for bit: the
    from-scratch lanes (``np.maximum``, then ``np.add.reduce`` in agent
    order) minus its value, which the lane path returns too. Its child is
    the lane path's child, and the memo reads the same value."""
    scenario = random_scenario(rng, n_agents, 30)
    gamma = 0.5 * float(scenario.distances.min())
    capped = np.minimum(scenario.distances, gamma)
    for members in ({3}, {3, 7}, {0, 1, 29}):
        oracle, lanes = SurrogateOracle(scenario, gamma), _lane_path(SurrogateOracle(scenario, gamma))
        values, value = scratch_base(scenario, gamma, members)
        scratch = np.add.reduce(np.maximum(values[:, None], capped), axis=0) / n_agents - value
        assert oracle.lanes(values, value) is None
        assert _bits(lane_gains(oracle, values, value)) == _bits(scratch) == _bits(np.zeros(30))
        assert _bits(lane_gains(lanes, values, value)) == _bits(scratch)
        got, expected = child(oracle, values, value, 12), child(lanes, values, value, 12)
        assert got[1] == expected[1] and _bits(got[0]) == _bits(expected[0])
        assert _bits(lane_gains(oracle, *got)) == _bits(lane_gains(lanes, *expected))
        for each in (oracle, lanes):
            each.remember(frozenset(members | {12}), got[1])
        assert oracle.evaluate(members | {12}) == lanes.evaluate(members | {12}) == got[1]
        assert oracle.counter.individual_evals == lanes.counter.individual_evals == n_agents


@pytest.mark.parametrize("n_agents", [16, 64])
def test_partly_saturated_handles_build_lanes(rng, n_agents):
    """A base with only some agents at gamma gets its lanes, and its gains
    and its children are the from-scratch values, bit for bit."""
    scenario = random_scenario(rng, n_agents, 30)
    for members in ({3}, {3, 7}, {0, 1, 29}):
        gamma = float(np.median(agent_values(scenario, members)))
        values, value = scratch_base(scenario, gamma, members)
        assert (values == gamma).any() and (values < gamma).any()
        oracle = SurrogateOracle(scenario, gamma)
        capped = np.minimum(scenario.distances, gamma)
        scratch = np.add.reduce(np.maximum(values[:, None], capped), axis=0) / n_agents - value
        assert oracle.lanes(values, value) is not None
        assert _bits(lane_gains(oracle, values, value)) == _bits(scratch)
        got = child(oracle, values, value, 12)
        assert _bits(got[0]) == _bits(np.minimum(agent_values(scenario, members | {12}), gamma))
        assert got[1] == SurrogateOracle(scenario, gamma).evaluate(members | {12})


def test_a_saturated_value_with_an_agent_below_gamma_builds_lanes():
    """Two agents at d and at gamma = the next double above d (of even last
    bit) sum to 2 * gamma after rounding, so the set's value equals that of
    a set saturating both while agent 0 is below gamma. It still gets
    lanes, and an element that raises agent 0 reaches gamma in its child."""
    for k in range(1, 100):
        near = (3.0, 0.37 * k)
        d = math.dist((0.0, 0.0), near)
        gamma = math.nextafter(d, math.inf)
        if not np.float64(gamma).view(np.uint64) & 1 and math.frexp(gamma)[0] != 0.5:
            break
    scenario = Scenario.from_coords([(0.0, 0.0), (100.0, 0.0)], [near, (0.0, 50.0)], UniformMatroid(2, 2))
    oracle = SurrogateOracle(scenario, gamma)
    values, value = scratch_base(scenario, gamma, {0})
    assert values.tolist() == [d, gamma] and value == oracle.evaluate({0, 1})
    assert oracle.lanes(values, value) is not None
    assert lane_gains(oracle, values, value).tolist() == [0.0, 0.0]
    assert child(oracle, values, value, 1)[0].tolist() == [gamma, gamma]


def _greedy_outputs(scenario, gamma):
    """What the threshold greedy returns at ``gamma``."""
    oracle = SurrogateOracle(scenario, gamma)
    trace, stats = [], {}
    selected = threshold_greedy(oracle, scenario.matroid, 0.05, trace=trace, stats=stats)
    return selected, trace, stats, oracle.counter.individual_evals


def test_greedies_match_the_lane_path(rng, monkeypatch):
    """Skipping the lanes of saturated bases changes no selection, trace,
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
            values, value = scratch_base(scenario, gamma, outputs[0])
            saturated += bool(outputs[0]) and SurrogateOracle(scenario, gamma).lanes(values, value) is None
            with monkeypatch.context() as patch:
                patch.setattr(SurrogateOracle, "_saturated", lambda self, values, value: False)
                assert _greedy_outputs(scenario, gamma) == outputs
    assert saturated  # the skip was exercised


def test_batched_rejects_members_and_skips_empty(tiny):
    """The greedy refuses a feasibility mask of the wrong shape, or one that
    admits a member of its set, and asks for no lanes for a base with no
    feasible candidate: under rank 1, only for the empty set."""
    everything = _FaultyMatroid(3, lambda chosen: np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="outside"):
        threshold_greedy(SurrogateOracle(tiny, 8.0), everything, 0.1)
    with pytest.raises(IndexError, match="ground set"):
        threshold_greedy(SurrogateOracle(tiny, 8.0), _FaultyMatroid(3, lambda chosen: np.ones(2, dtype=bool)), 0.1)
    oracle = _CountingOracle(tiny, 8.0)
    assert threshold_greedy(oracle, tiny.matroid, 0.1) == {2}
    assert oracle.built == [True]


@pytest.mark.parametrize("size", [2, 4], ids=["one short", "one long"])
@pytest.mark.parametrize("name", ["fast", "greedy", "ratio"])
def test_every_greedy_refuses_a_mask_of_the_wrong_shape(tiny, name, size):
    """Every solver that grows its set through ``Matroid.feasibility``
    refuses a mask that does not cover the ground set, with the same
    IndexError, rather than read a selection from it."""
    faulty = Scenario(tiny.agents, tiny.actions, _FaultyMatroid(3, lambda chosen: np.ones(size, dtype=bool)))
    with pytest.raises(IndexError, match=r"feasibility mask of shape .* does not cover the ground set \[0, 3\)"):
        SOLVERS[name](faulty, SolverParams())


def test_members_of_a_promoted_base_are_rejected(tiny):
    """The member check covers the element the greedy added last: a mask
    that admits only that element is refused, and one that admits every
    other element is not."""
    only_chosen = _FaultyMatroid(3, lambda chosen: np.array([not chosen or j in chosen for j in range(3)]))
    with pytest.raises(ValueError, match="outside"):
        threshold_greedy(SurrogateOracle(tiny, 8.0), only_chosen, 0.1)
    others = _FaultyMatroid(3, lambda chosen: np.array([j not in chosen for j in range(3)]))
    assert 2 in threshold_greedy(SurrogateOracle(tiny, 8.0), others, 0.1)


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


def _mean_error_to_bound(values: np.ndarray, got: float) -> Fraction:
    """How far ``got`` lies from the exact mean of ``values``, as a share of
    the bound on an agent-order float mean: recursive summation's
    gamma_{N-1} * sum |x| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2; gamma_k = k u / (1 - k u), u = 2**-53)
    over N, plus half an ulp of ``got`` for the division by N. Every double
    is an integer multiple of 2**-1074, so the sums are exact integers."""
    n, scale = len(values), 2**1074
    scaled = [num * (scale // den) for num, den in map(float.as_integer_ratio, values.tolist())]
    exact = Fraction(sum(scaled), n * scale)
    gamma = Fraction(n - 1, 2**53 - (n - 1))
    bound = gamma * Fraction(sum(map(abs, scaled)), n * scale) + Fraction(math.ulp(got)) / 2
    return abs(Fraction(got) - exact) / bound


def test_agent_order_means_are_within_the_summation_bound():
    """Every entry of the reduced row that ``lanes`` returns, for the empty
    base and a one-element base, and ``evaluate`` of random sets scored from
    scratch, lie within ``_mean_error_to_bound``'s bound of the exact
    rational mean of the capped values they average: on 60 small draws, a
    16 x 300 ring and a 64 x 160 crowd, at three gammas each."""
    rng = np.random.default_rng(27)
    scenarios = [random_small_scenario(rng, 7) for _ in range(60)] + [ring_scenario(0), crowd_scenario(0)]
    worst = Fraction(0)
    for scenario in scenarios:
        upper = min_objective(scenario, range(scenario.n_actions))
        top = float(scenario.distances.max(initial=0.0))
        for gamma in (0.5 * upper, upper, top):
            oracle = SurrogateOracle(scenario, gamma)
            rows = [oracle.lanes()]
            if rows[0] is not None:  # the base of the best single element
                lanes, reduced = rows[0]
                e = int(reduced.argmax())
                rows.append(oracle.lanes(lanes[:, e].copy(), float(reduced[e])))
            for lanes, reduced in filter(None, rows):
                for j in range(lanes.shape[1]):
                    worst = max(worst, _mean_error_to_bound(lanes[:, j], float(reduced[j])))
            for _ in range(3):
                size = int(rng.integers(1, min(scenario.n_actions, 5) + 1))
                chosen = rng.choice(scenario.n_actions, size, replace=False).tolist()
                capped = np.minimum(agent_values(scenario, chosen), gamma)
                got = SurrogateOracle(scenario, gamma).evaluate(chosen)
                worst = max(worst, _mean_error_to_bound(capped, got))
    assert worst <= 1, f"worst error {float(worst):.3g} of the bound"


@pytest.mark.parametrize("n_agents", [16, 64])
def test_lane_reads_equal_cold_gains_and_charges(rng, n_agents):
    """A base built warm, each element taken from its predecessor's lanes,
    has the values of the same set scored cold from scratch, and its lane
    gains equal the cold base's and a from-scratch difference, bit for bit.
    ``evaluate`` reads a remembered child's value, returning the
    from-scratch bits and charging one evaluation, as a miss does."""
    scenario = random_scenario(rng, n_agents, 30)
    gamma = 0.7 * min_objective(scenario, range(30))
    n = scenario.n_agents
    warm = SurrogateOracle(scenario, gamma)
    for members in ({3, 7}, {1, 2, 29}, {3, 7}):
        values, value = None, 0.0
        for m in sorted(members):
            values, value = child(warm, values, value, m)
        cold_values, cold_value = scratch_base(scenario, gamma, members)
        assert _bits(values) == _bits(cold_values) and value == cold_value
        gains = lane_gains(warm, values, value)
        assert _bits(gains) == _bits(lane_gains(SurrogateOracle(scenario, gamma), cold_values, cold_value))
        for e in sorted(set(range(30)) - members):
            fresh = SurrogateOracle(scenario, gamma)
            assert fresh.evaluate(members | {e}) - fresh.evaluate(members) == gains[e]
            warm.remember(frozenset(members | {e}), child(warm, values, value, e)[1])
            before = warm.counter.individual_evals
            assert warm.evaluate(members | {e}) == fresh.evaluate(members | {e})
            assert warm.evaluate(members) == fresh.evaluate(members)  # a miss
            assert warm.counter.individual_evals - before == 2 * n


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("make", [lambda s: SurrogateOracle(s, 8.0), lambda s: SurrogateOracle(s, 0.0)])
def test_out_of_range_ids_raise(tiny, make, bad):
    """Ids outside [0, M) are refused, never wrapped to another action, and
    a refused call charges nothing."""
    oracle = make(tiny)
    with pytest.raises(IndexError, match="outside ground set"):
        oracle.evaluate({bad})
    assert oracle.counter.individual_evals == 0


def test_a_bool_among_ids_is_refused(tiny):
    """True is not read as id 1, in any set or in one that equals the
    memo; a refused call charges nothing."""
    oracle = SurrogateOracle(tiny, 8.0)
    with pytest.raises(IndexError, match="got bool"):
        oracle.evaluate([True, 2])
    with pytest.raises(IndexError, match="got bool"):
        oracle.evaluate([0, True])
    oracle.remember(frozenset({0, 1}), 8.0)
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
        values, value = None, 0.0
        for e in range(scenario.n_actions):
            assert (lane_gains(oracle, values, value) >= 0.0).all()
            values, value = child(oracle, values, value, e)


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


def test_curvature_is_one_when_actions_outnumber_agents(rng):
    """With M > N, at every gamma up to the trivial bound some action is no
    agent's only one at distance >= gamma, so dropping it from the ground
    set changes no capped value: the curvature is exactly 1."""
    checked = 0
    while checked < 200:
        scenario = random_small_scenario(rng, max_actions=12, max_agents=6)
        if scenario.n_actions <= scenario.n_agents:
            continue
        checked += 1
        for gamma in gamma_grid(min_objective(scenario, range(scenario.n_actions))):
            assert compute_curvature(SurrogateOracle(scenario, gamma), range(scenario.n_actions)) == 1.0
    # The proof needs such an action away from some agent: on the only agent, it leaves c at 0.
    on_the_agent = Scenario.from_coords([(0.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)], UniformMatroid(2, 1))
    assert compute_curvature(SurrogateOracle(on_the_agent, 0.5), range(2)) == 0.0


def test_curvature_ground_cap():
    with pytest.raises(ValueError, match="<= 20"):
        compute_curvature(_ZeroOracle(), range(CURVATURE_GROUND_CAP + 1))
