"""Selection algorithms.

The headline solver, ``saturate_robust``, maximizes the worst agent's value
under a matroid constraint by bisecting on a saturation level gamma: at each
gamma it greedily maximizes the truncated-average surrogate with a descending
acceptance threshold (no per-step argmax scans), keeps the candidate set when
its surrogate value clears gamma / (1 + c + delta), and tightens the bisection
bracket accordingly. Baselines (`simple_greedy`, `ratio_greedy_baseline`) and
exhaustive references (`brute_force_maxmin`, `brute_force_max`) share the
same scenario/matroid types so benchmark trials stay paired.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .matroid import Matroid, is_real
from .scenario import EvaluationCounter, Scenario, min_objective
from .surrogate import SurrogateOracle

# Exhaustive enumeration of independent sets; refuse beyond this many actions.
BRUTE_FORCE_CAP = 20

# The threshold greedy descends from its first threshold F to its floor
# delta * F in ln(1/delta) / log1p(delta) divisions; refuse a delta that needs
# more (delta = 1e-5 needs 1.15e6; the cap admits delta >= about 1.35e-6). As
# delta -> 0 the count grows without bound, and once 1 + delta rounds to 1
# the threshold never falls at all.
THRESHOLD_STEPS_CAP = 10_000_000

# Rungs of the threshold ladder the exact walk computes at a time, and the
# most divisions one jump computes at a time.
_LADDER_CHUNK = 256
_LADDER_JUMP_CAP = 1 << 16

# A rung's certified bounds are its estimate widened by (n + _LADDER_SLACK)
# units of 2**-52, n divisions past the last rung computed exactly: twice
# the n roundings of the chain, plus sixteen units for ``pow`` and the few
# products that form the bounds (each within one unit).
_LADDER_SLACK = 16
# Below the smallest normal double a division's rounding error is no longer
# relative, so no bound is certified there.
_MIN_NORMAL = sys.float_info.min


def threshold_steps(delta: float) -> float:
    """Divisions by 1 + delta that take a threshold down to delta times its
    start: ln(1/delta) / log1p(delta), which is 0 at delta == 1."""
    return -math.log(delta) / math.log1p(delta)


def _check_delta(delta: float) -> None:
    """Refuse with ValueError a delta that is not a real number in (0, 1], or
    whose descent would take more than THRESHOLD_STEPS_CAP divisions."""
    if not (is_real(delta) and 0 < delta <= 1):
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    steps = threshold_steps(delta)
    if steps > THRESHOLD_STEPS_CAP:
        raise ValueError(
            f"delta {delta!r} needs {steps:.3g} threshold steps "
            f"(ln(1/delta) / log1p(delta)); THRESHOLD_STEPS_CAP is {THRESHOLD_STEPS_CAP}"
        )


def threshold_ladder(start: float, delta: float, length: int) -> np.ndarray:
    """``length`` thresholds from ``start`` on, each the previous divided by
    1 + delta. Accumulate divides in order and IEEE division is correctly
    rounded, so these are exactly the values of the chain t /= 1.0 + delta."""
    steps = np.full(length, 1.0 + delta)
    steps[0] = start
    return np.divide.accumulate(steps)


class _Ladder:
    """A forward cursor over ``threshold_ladder(start, delta, ...)`` whose
    current rung ``k`` is known by certified bounds ``low <= rung <= high``,
    and computed only when they cannot decide a comparison or a caller reads
    it (``threshold``).

    The bound: with c = 1.0 + delta, each division t / c whose result is
    normal is correctly rounded, off by a factor in [1 - u, 1 + u] with
    u = 2**-53, so the rung n divisions past an exact rung b lies within
    b * c**-n * [(1 - u)**n, (1 + u)**n], and (1 + u)**n <= 1 + 2nu at any
    n a ladder reaches. The bounds are ``b * c ** -n`` widened by
    (n + _LADDER_SLACK) * 2**-52. Where the low bound is a normal double,
    every rung down to it is normal and the bound holds; a rung whose low
    bound is not is computed exactly, from the last exact rung (rung 0 is
    ``start``), with the chunked chain. The bounds decide only comparisons
    the chain decides the same way, so every rung in force is the chain's,
    bit for bit."""

    def __init__(self, start: float, delta: float) -> None:
        self.delta = delta
        self._c = 1.0 + delta
        self._log_c = math.log(self._c)
        self._settle(0, float(start))

    def _settle(self, k: int, value: float) -> None:
        """Make rung ``k``, of exact ``value``, current and the base of the
        bounds of the rungs below it."""
        self.k = self._exact_k = k
        self._exact = self.low = self.high = value

    def bounds(self, k: int) -> tuple[float, float] | None:
        """Certified (low, high) of rung ``k``, at or past the last exact
        rung, or None where they would certify nothing."""
        n = k - self._exact_k
        if n == 0:
            return self._exact, self._exact
        estimate = self._exact * self._c**-n
        slack = estimate * ((n + _LADDER_SLACK) * 2.0**-52)
        low = estimate - slack
        if not low >= _MIN_NORMAL:
            return None
        return low, estimate + slack

    def _rung(self, k: int) -> float:
        """Rung ``k`` exactly: the chain from the last exact rung, at most
        _LADDER_JUMP_CAP divisions at a time."""
        t, n = self._exact, k - self._exact_k
        while n:
            length = min(n, _LADDER_JUMP_CAP)
            t = float(threshold_ladder(t, self.delta, length + 1)[-1])
            n -= length
        return t

    @property
    def threshold(self) -> float:
        """The current rung, exactly."""
        if self.k != self._exact_k:
            self._settle(self.k, self._rung(self.k))
        return self._exact

    def step(self) -> None:
        """Move one rung down, computing it when its bounds certify nothing."""
        k = self.k + 1
        bounds = self.bounds(k)
        if bounds is None:
            self._settle(k, self._rung(k))
        else:
            self.k, (self.low, self.high) = k, bounds

    def at_least(self, floor: float) -> bool:
        """Whether the current rung is >= ``floor``."""
        if self.low >= floor:
            return True
        if self.high < floor:
            return False
        return self.threshold >= floor

    def first_hit(self, gains: np.ndarray, best: float) -> int:
        """The index of the first of ``gains`` at or above the current rung,
        or their number if there is none, given ``best``, a gain at least as
        large as each of them. A ``best`` short of the low bound decides
        that there is none without a search. Otherwise one comparison finds
        the first gain at or above the low bound; a hit below the high bound
        computes the rung, and a hit short of it is no hit: the search goes
        on past it to the rung, which every earlier gain is short of too."""
        if not (gains.size and best >= self.low):
            return gains.size
        hits = gains >= self.low
        first = int(hits.argmax())
        if not hits[first]:
            return gains.size
        if gains[first] >= self.high or gains[first] >= self.threshold:
            return first
        hits = gains[first:] >= self._exact
        later = int(hits.argmax())
        return first + later if hits[later] else gains.size

    def drop(self, at_most: float, floor: float) -> None:
        """Move down to the first rung that is <= ``at_most`` or < ``floor``
        (the current rung must be neither). A rung is < ``floor`` exactly
        when it is <= the double below ``floor``, so that is one condition: a
        rung <= the larger of the two. The target ``k`` is estimated from
        logarithms and taken when its bounds certify that it is <= that
        bound, and rung ``k - 1`` is the current rung or its bounds certify
        that it is above; otherwise the exact chain is walked to it. (Over
        6,809 drops of 450 seed-3 pool solves, 150 per perfbench workload,
        the estimate was certified every time.)"""
        bound = max(at_most, math.nextafter(floor, -math.inf))
        if bound >= _MIN_NORMAL and self._exact > bound:
            k = self._exact_k + math.ceil((math.log(self._exact) - math.log(bound)) / self._log_c)
            k = max(k, self.k + 1)
            target = self.bounds(k)
            if target is not None and target[1] <= bound:
                above = (math.inf, math.inf) if k - 1 == self.k else self.bounds(k - 1)
                if above is not None and above[0] > bound:
                    self.k, (self.low, self.high) = k, target
                    return
        self._walk(bound)

    def _walk(self, bound: float) -> None:
        """``drop`` along the exact chain, a chunk at a time."""
        k, t = self.k, self.threshold
        while True:
            chain = threshold_ladder(t, self.delta, _LADDER_CHUNK)
            stops = chain <= bound
            first = int(stops.argmax())
            if stops[first]:
                self._settle(k + first, float(chain[first]))
                return
            if chain[-1] == chain[-2]:
                raise ValueError(
                    f"threshold stalled at {float(chain[-1])!r}: dividing it by 1 + {self.delta!r} "
                    "no longer lowers it, so the greedy would never end"
                )
            k, t = k + chain.size - 1, float(chain[-1])


@dataclass(frozen=True)
class SolverParams:
    """Solver tunables.

    delta: threshold shrink factor for the inner greedy, in (0, 1]: above
        1 the greedy's floor delta * F would lie above its first threshold
        F, and no pass would run. Small deltas are bounded too: the descent
        must stay within THRESHOLD_STEPS_CAP steps.
    epsilon: absolute bisection stopping gap; None means one thousandth of
        the instance's initial upper bound.
    """

    delta: float = 1e-3
    epsilon: float | None = None

    def __post_init__(self) -> None:
        _check_delta(self.delta)
        if self.epsilon is not None and not (is_real(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")


@dataclass(frozen=True)
class Solution:
    """One solver run: the selected action ids (ascending), the worst agent's
    value of that set recomputed fresh, and the run's cost accounting."""

    algorithm: str
    selected: tuple[int, ...]
    min_value: float
    individual_evals: int
    f_evaluations: float
    wall_time_s: float
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "selected": list(self.selected),
            "min_value": self.min_value,
            "evaluations": self.f_evaluations,
            "wall_time_ms": self.wall_time_s * 1000.0,
            "params": dict(self.params),
        }


def _solution(
    algorithm: str, scenario: Scenario, selected: Iterable[int], counter: EvaluationCounter,
    started: float, params: dict, value: float | None = None,
) -> Solution:
    """A solver's ``Solution``: ``selected`` ascending, its worst agent's
    value (charged to ``counter`` unless ``value`` is given), the counter's
    charges and the wall time since ``started``."""
    if value is None:
        value = min_objective(scenario, selected, counter)
    return Solution(
        algorithm=algorithm, selected=tuple(sorted(selected)), min_value=value,
        individual_evals=counter.individual_evals, f_evaluations=counter.f_equivalent(scenario.n_agents),
        wall_time_s=time.perf_counter() - started, params=params,
    )


@dataclass(frozen=True)
class GreedyStep:
    """One accepted element in a threshold-greedy run: the acceptance
    threshold in force, the element, its gain, and the set it was added to."""

    threshold: float
    element: int
    gain: float
    base: frozenset


def threshold_greedy(
    oracle,
    matroid: Matroid,
    delta: float,
    trace: list | None = None,
    stats: dict | None = None,
) -> set[int]:
    """Maximize a monotone submodular oracle under a matroid constraint with
    a descending acceptance threshold.

    The threshold starts at the best singleton value F and shrinks by
    1/(1+delta) per pass; each pass scans the non-selected elements in
    ascending id order and immediately inserts any feasible element whose
    (freshly evaluated) marginal gain clears the threshold. The loop ends
    when no feasible element is left or the threshold falls below delta * F.

    The thresholds are the division chain F, F/(1+delta), ... exactly, as
    ``threshold_ladder`` computes it. A pass that inserts nothing cannot
    change any gain, so instead of rescanning at every intermediate
    threshold the loop jumps to the first rung at or below the largest
    surviving gain, or below the floor. The output and the per-candidate
    evaluations are exactly those of the literal pass-by-pass loop; only the
    no-op rescans are skipped.

    The untraced loop never reads a rung's value, only compares it with
    gains and the floor, so the ladder (``_Ladder``) knows the current rung
    by certified bounds: F * (1+delta)**-k widened by (k + 16) * 2**-52,
    which holds while the rungs are normal doubles, since each division is
    correctly rounded (relative error at most 2**-53). A jump's rung is
    estimated from logarithms and certified by the bounds. The exact chain
    is computed, from the last rung computed exactly, only for a rung that
    is subnormal, for a comparison too close for the bounds to call, and
    for the values ``trace`` and ``stats`` report.

    The greedy works once per base set, the selection between two
    insertions, and holds the base itself: its set, its capped per-agent
    values and its value, and the lanes and reduced row ``oracle.lanes``
    builds for it (none for a saturated base, whose gains are all 0, nor
    for a base with no feasible candidate). An accepted element's column
    and entry of them are the next base's values and value. One
    ``matroid.feasibility`` state follows the selection for the whole run,
    its mask updated as each element is added and checked once per base: a
    mask of the wrong shape raises IndexError, one that admits a member of
    the set ValueError. Each stretch of a pass between insertions is then a
    slice of the base's feasible gains, and one comparison with the ladder
    finds its first gain at or above the threshold (``_Ladder.first_hit``).
    The base's best feasible gain, one reduction, decides every stretch it
    leaves short of the threshold's low bound without a search, and is the
    gain a pass without insertions drops to. The loop counts the
    candidates the one-at-a-time scan would evaluate and charges them once,
    through ``oracle.charge``, after charging the cold empty set with its
    first scan, and lets ``oracle.evaluate`` read the final set's value.

    A delta that is not a real number in (0, 1], or whose descent would take
    more than THRESHOLD_STEPS_CAP divisions, is refused with ValueError, and
    so is a jump past a threshold that no longer falls (deep in the
    subnormals, dividing by 1 + delta can return its argument), which the
    literal loop would repeat forever.

    ``trace`` (optional list) receives a GreedyStep per insertion;
    ``stats`` (optional dict) receives scan-pass and threshold bookkeeping.
    """
    _check_delta(delta)
    passes = 0
    n_actions = oracle.scenario.n_actions
    subset, values, value = frozenset(), None, 0.0
    built = oracle.lanes()
    lanes, reduced = (None, np.zeros(n_actions)) if built is None else built
    # An empty ground set scans nothing, so nothing is charged.
    if n_actions:
        oracle.charge(n_actions + (oracle.gamma != 0.0))  # every element, and the empty set unless gamma == 0
    initial = float(np.maximum.reduce(reduced, initial=0.0))
    ladder = _Ladder(initial, delta)
    floor = delta * initial
    # The set, and so every gain and the feasibility mask, only changes
    # when an element is accepted. The greedy ends when no candidate is left.
    feasibility = matroid.feasibility()
    candidates = _feasible(feasibility.mask, n_actions, subset)
    gains = reduced[candidates]  # the empty set's gains are its reduced row
    best = initial if candidates.size == n_actions else float(np.maximum.reduce(gains, initial=0.0))
    scanned = 0  # candidates the one-at-a-time scans evaluate, charged at the end
    while initial > 0 and ladder.at_least(floor) and candidates.size:
        passes += 1
        start, lo = subset, 0
        hit = ladder.first_hit(gains, best)
        while hit < gains.size - lo:
            scanned += hit + 1
            e = int(candidates[lo + hit])
            if trace is not None:
                trace.append(GreedyStep(ladder.threshold, e, float(gains[lo + hit]), subset))
            feasibility.add(e)
            if lanes is not None:  # else the base is saturated, and its child has its values
                # A copy, so that the old lanes are freed before the next are built.
                values, value = lanes[:, e].copy(), float(reduced[e])
            lanes = built = None
            subset = subset | {e}
            candidates = _feasible(feasibility.mask, n_actions, subset)
            built = oracle.lanes(values, value) if candidates.size else None
            if built is None:
                lanes, gains, best = None, np.zeros(candidates.size), 0.0
            else:
                lanes, reduced = built
                gains = reduced[candidates] - value
                best = float(np.maximum.reduce(gains))
            # The pass goes on from the next id, over the new base's suffix.
            lo = int(candidates.searchsorted(e + 1))
            hit = ladder.first_hit(gains[lo:], best)
        scanned += gains.size - lo
        if subset is not start:
            ladder.step()
        elif best > 0.0:  # a pass that inserts nothing drops to the best gain
            ladder.drop(best, floor)
        else:
            break
    oracle.charge(scanned)
    oracle.remember(subset, value)
    if stats is not None:
        stats["passes"] = passes
        stats["initial_threshold"] = initial
        stats["final_threshold"] = ladder.threshold
    return set(subset)


def _feasible(mask: np.ndarray, n_actions: int, subset: frozenset = frozenset()) -> np.ndarray:
    """The ids a feasibility mask over the ground set admits, ascending: the
    one place a greedy turns a ``Matroid.feasibility`` mask into candidates.
    A mask of a shape other than (n_actions,) is refused with IndexError, so
    every id is in range; one that admits a member of ``subset`` (the
    threshold greedy's base; the baselines pass none) raises ValueError."""
    if mask.shape != (n_actions,):
        raise IndexError(f"feasibility mask of shape {mask.shape} does not cover the ground set [0, {n_actions})")
    ids = mask.nonzero()[0]
    if ids.size and any(mask[j] for j in subset):
        raise ValueError("candidates must lie outside the base set")
    return ids


# c in the acceptance test value >= gamma / (1 + c + delta), sound for any c
# at or above the surrogate's curvature, which 1 bounds. With M > N no smaller
# c is sound: at gamma <= the trivial bound every agent has an action at
# distance >= gamma, at most N actions are some agent's only one, and dropping
# any other a leaves f(V - a) == f(V) bit for bit, so c = 1 if f({a}) > 0.
CURVATURE = 1.0


def saturate_robust(
    scenario: Scenario,
    params: SolverParams | None = None,
    bisection_trace: list | None = None,
) -> Solution:
    """Bisection on the saturation level around the threshold greedy.

    The bracket starts at [0, worst agent's value of the full ground set].
    Each iteration probes the midpoint gamma with a fresh surrogate (no value
    reuse across gammas, so evaluation counts stay honest), keeps the greedy
    set as the incumbent when its surrogate value reaches
    gamma / (1 + CURVATURE + delta), and halves the bracket until its width
    is at most epsilon, or until a probe leaves it unchanged (an epsilon
    finer than the doubles near the bracket, whose midpoint rounds onto an
    end).

    What is proven is the per-gamma bound: at each probe the greedy set's
    surrogate value is within a 1/(1 + CURVATURE + delta) factor of the best
    independent set's surrogate value at that gamma. No end-to-end factor
    on the incumbent's worst-agent value follows from it for two or more
    agents, since the acceptance test reads an average over agents (see
    "Known limitation" in the README; a frozen counterexample is pinned in
    the tests).

    ``bisection_trace`` (optional list) receives the (lower, upper) bracket
    after every iteration.
    """
    if params is None:
        params = SolverParams()
    started = time.perf_counter()
    counter = EvaluationCounter()
    upper_init = min_objective(scenario, range(scenario.n_actions), counter)
    lower, upper = 0.0, upper_init
    epsilon = params.epsilon if params.epsilon is not None else 1e-3 * upper_init
    divisor = 1.0 + CURVATURE + params.delta
    best: set[int] = set()
    iterations = 0
    if upper_init > 0.0:
        while upper - lower > epsilon:
            gamma = 0.5 * (upper + lower)
            bracket = (lower, upper)
            oracle = SurrogateOracle(scenario, gamma, counter)
            candidate = threshold_greedy(oracle, scenario.matroid, params.delta)
            if oracle.evaluate(candidate) < gamma / divisor:
                upper = gamma
            else:
                lower = gamma
                best = candidate
            iterations += 1
            if bisection_trace is not None:
                bisection_trace.append((lower, upper))
            if (lower, upper) == bracket:  # every later probe would repeat this one
                break
    return _solution("fast", scenario, best, counter, started, {
        "delta": params.delta, "epsilon": epsilon, "curvature": CURVATURE,
        "lower": lower, "upper": upper, "iterations": iterations,
    })


def simple_greedy(scenario: Scenario) -> Solution:
    """Conventional greedy on the worst-agent objective: repeatedly add the
    feasible element of maximum marginal gain (lowest id on ties) until no
    feasible element is left or no gain is positive.

    Each round scores every column at once: the selection's per-agent
    values raised to each column's distances (its lanes), reduced by the
    minimum over agents. Max and min only select values, so each is
    ``min_objective`` of the selection plus that column, bit for bit. One
    ``matroid.feasibility`` state follows the selection, and ``_feasible``
    reads each round's candidates from its mask, refusing a mask of the
    wrong shape with IndexError. A round of F feasible candidates is
    charged as the one-at-a-time scan would charge it: N * F, plus N when
    the selection itself must be scored again (it is cold). The first round
    is cold; a later one is warm only when the last pick was the last
    candidate scanned, whose extension that scan evaluated last."""
    started = time.perf_counter()
    counter = EvaluationCounter()
    distances, n_agents = scenario.distances, scenario.n_agents
    feasibility = scenario.matroid.feasibility()
    selected: set[int] = set()
    values, value, cold = np.zeros(n_agents), 0.0, True
    while True:
        candidates = _feasible(feasibility.mask, scenario.n_actions)
        if candidates.size == 0:
            break
        counter.add(n_agents * (candidates.size + cold))
        lanes = np.maximum(values[:, None], distances)
        reduced = np.minimum.reduce(lanes, axis=0)
        gains = reduced[candidates] - value
        best = int(gains.argmax())  # first maximum: lowest id on ties
        if not gains[best] > 0.0:
            break
        e = int(candidates[best])
        feasibility.add(e)
        selected.add(e)
        values, value, cold = lanes[:, e], float(reduced[e]), best != candidates.size - 1
    return _solution("greedy", scenario, selected, counter, started, {})


def ratio_greedy_baseline(scenario: Scenario) -> Solution:
    """Ratio-based greedy baseline (reconstruction).

    Each round scores every feasible candidate by the worst, over agents, of
    the candidate's contribution to that agent normalized by the best
    contribution the agent could still get from the feasible pool, and adds
    the highest-scoring candidate (lowest id on ties). Under a
    largest-distance objective an action's contribution to an agent is its
    distance to that agent, so scores stay positive and rounds normally run
    until the selection is a basis; they also stop if every score is zero
    (0/0 counts as 0).

    One ``matroid.feasibility`` state follows the selection, and a column
    that leaves the pool never returns; ``_feasible`` reads the pool's size
    from its mask, refusing a mask of the wrong shape with IndexError. A
    candidate's score depends on the normalizers alone, so the scores are
    computed again only when a normalizer moved, and with them the pool's
    pick order (descending score, lowest id first: a stable argsort) and
    the columns that attain some normalizer. A round's pick is the first
    column of that order still in the pool. A normalizer can only move when
    a column attaining it leaves, so the masked maximum is taken again only
    after a round that removed such a pick, or removed more than the pick
    (a block filled). The counter is charged as if each (candidate, agent)
    score re-derived its normalizer by scanning the whole feasible pool F:
    N * |F| * (1 + |F|) per round.
    That charge is an accounting convention for the full-scan baseline the
    fast solver's evaluation counts are judged against, not a count of the
    work done here.
    """
    started = time.perf_counter()
    counter = EvaluationCounter()
    distances, n_agents = scenario.distances, scenario.n_agents
    feasibility = scenario.matroid.feasibility()
    selected: set[int] = set()
    norm = None
    while True:
        mask = feasibility.mask
        size = _feasible(mask, scenario.n_actions).size
        if not size:
            break
        counter.add(n_agents * size * (1 + size))
        if norm is None or size < last_size - 1 or attains[best]:
            # The ufuncs' own reductions, as ndarray.max/.min/.any call them,
            # without the Python wrappers around them.
            pool_max = np.maximum.reduce(distances, axis=1, where=mask, initial=0.0)
            if norm is None or np.logical_or.reduce(pool_max != norm):
                norm = pool_max
                # A zero normalizer means a zero row of the pool, so dividing
                # it by 1 scores 0. Only the pool is divided: a column outside
                # it never returns to it, and it could overflow.
                divisor = np.where(norm > 0.0, norm, 1.0)[:, None]
                scores = np.divide(distances, divisor, out=np.zeros(distances.shape), where=mask)
                scores = np.minimum.reduce(scores, axis=0)
                order = np.negative(scores).argsort(kind="stable")  # first maximum: lowest id on ties
                attains = np.logical_or.reduce(distances == norm[:, None], axis=0)
                at = 0
        if not mask[order[at]]:
            at += int(mask[order[at:]].argmax())
        best = int(order[at])
        if not scores[best] > 0.0:
            break
        feasibility.add(best)
        selected.add(best)
        last_size = size
        at += 1  # the columns before it in the order have all left the pool
    return _solution("ratio", scenario, selected, counter, started, {})


def iter_independent_sets(matroid: Matroid) -> Iterator[frozenset]:
    """Every independent set, exactly once, in ascending-prefix order.
    Relies on downward closure: any independent set is reachable by adding
    its elements in ascending order through independent prefixes."""
    n = matroid.n_actions

    def grow(prefix: list[int], start: int) -> Iterator[frozenset]:
        yield frozenset(prefix)
        for e in range(start, n):
            if matroid.can_extend(prefix, e):
                prefix.append(e)
                yield from grow(prefix, e + 1)
                prefix.pop()

    yield from grow([], 0)


def brute_force_maxmin(scenario: Scenario) -> Solution:
    """Exact max-min reference: ``brute_force_max`` of ``min_objective``,
    so the best worst-agent value wins (ties: fewer elements, then
    lexicographic ids). Exponential; refuses more than BRUTE_FORCE_CAP
    actions."""
    started = time.perf_counter()
    counter = EvaluationCounter()
    best = brute_force_max(lambda subset: min_objective(scenario, subset, counter), scenario.matroid)
    # The enumeration already charged this set's evaluation.
    return _solution("brute", scenario, best, counter, started, {}, value=min_objective(scenario, best))


def brute_force_max(value: Callable[[frozenset], float], matroid: Matroid) -> frozenset:
    """Exact reference: the independent set of largest ``value``, e.g. a
    ``SurrogateOracle``'s ``evaluate`` (ties: fewer elements, then
    lexicographic ids). Exponential; refuses more than BRUTE_FORCE_CAP
    actions."""
    if matroid.n_actions > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute force limited to instances with <= {BRUTE_FORCE_CAP} actions, got {matroid.n_actions}"
        )

    def rank(subset: frozenset) -> tuple:
        ordered = tuple(sorted(subset))
        return -value(subset), len(ordered), ordered

    return min(iter_independent_sets(matroid), key=rank)


# Every named solver behind one signature; the CLI and the benchmark harness
# dispatch through this mapping. Only ``fast`` reads the parameters.
SOLVERS: dict[str, Callable[[Scenario, SolverParams], Solution]] = {
    "fast": saturate_robust,
    "greedy": lambda scenario, params: simple_greedy(scenario),
    "ratio": lambda scenario, params: ratio_greedy_baseline(scenario),
    "brute": lambda scenario, params: brute_force_maxmin(scenario),
}
