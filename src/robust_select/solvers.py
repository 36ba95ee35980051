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

import functools
import math
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
# delta * F in ln(1/delta) / log1p(delta) rungs; refuse a delta that needs
# more (delta = 1e-5 needs 1.15e6; the cap admits delta >= about 1.35e-6). As
# delta -> 0 the count grows without bound, and once 1 + delta rounds to 1
# the threshold never falls at all.
THRESHOLD_STEPS_CAP = 10_000_000


def threshold_steps(delta: float) -> float:
    """Rungs that take a threshold down to delta times its start, dividing
    by 1 + delta at each: ln(1/delta) / log1p(delta), which is 0 at
    delta == 1."""
    return -math.log(delta) / math.log1p(delta)


def _check_delta(delta: float) -> None:
    """Refuse with ValueError a delta that is not a real number in (0, 1], or
    whose descent would take more than THRESHOLD_STEPS_CAP rungs."""
    if not (is_real(delta) and 0 < delta <= 1):
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    steps = threshold_steps(delta)
    if steps > THRESHOLD_STEPS_CAP:
        raise ValueError(
            f"delta {delta!r} needs {steps:.3g} threshold steps "
            f"(ln(1/delta) / log1p(delta)); THRESHOLD_STEPS_CAP is {THRESHOLD_STEPS_CAP}"
        )


def _to_double(mantissa: int, exponent: int) -> float:
    """The double nearest mantissa * 2**exponent, or inf past the largest:
    int true division and int-to-float conversion are correctly rounded."""
    if exponent < 0:
        return mantissa / (1 << -exponent)
    try:
        return float(mantissa << min(exponent, 1025))  # inf from 2**1025 on
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=16)
def _power_tables(delta: float) -> tuple[tuple[float, ...], ...]:
    """Tables of c**(j * 256**b), c = 1.0 + delta, for b < 3 and j < 256,
    each entry the double nearest the exact power (or inf). The powers are
    128-bit integer mantissas with a binary exponent, each product truncated
    to 128 bits: under 800 truncations leave an entry within 2**-117 of the
    exact power, so it rounds as the power does, barring a near tie.

    They cover k < 2**24. A jump's bound is never below the double under
    delta * F, which is at least delta * F / 2.5 (also when subnormal), so
    the greedy reads no rung past (ln(1/delta) + 1) / log1p(delta) + 2:
    under 1.1e7 at every admitted delta (1.074e7 at the smallest)."""
    num, den = (1.0 + delta).as_integer_ratio()  # den is a power of 2
    shift = 128 - num.bit_length()
    base = (num << shift, -shift - (den.bit_length() - 1))
    tables = []
    for _ in range(3):
        power, table = (1, 0), []
        for _ in range(256):
            table.append(_to_double(*power))
            mantissa, exponent = power[0] * base[0], power[1] + base[1]
            cut = max(mantissa.bit_length() - 128, 0)
            power = (mantissa >> cut, exponent + cut)
        tables.append(tuple(table))
        base = power  # c**(256**(b + 1))
    return tuple(tables)


def threshold_rung(start: float, delta: float, k: int) -> float:
    """Rung ``k`` of the threshold greedy's descent from ``start``:
    start / (1 + delta)**k in closed form, for 0 <= k < 2**24. The power is
    the product of one entry of each of ``_power_tables(delta)``, chosen by
    the bytes of k, so the rung is six correctly rounded IEEE operations on
    exact powers (three entries, two products, one division): the same bits
    on every platform, and within six roundings of the exact value while it
    is a normal double."""
    low, mid, high = _power_tables(delta)
    return start / (low[k & 255] * mid[k >> 8 & 255] * high[k >> 16])


def _jump(start: float, delta: float, k: int, at_most: float, floor: float) -> int:
    """The first rung past rung ``k`` from ``start`` that is <= ``at_most``
    (> 0) or < ``floor`` (rung ``k`` is neither): the first <= the larger of
    ``at_most`` and the double below ``floor``, the bound. Logarithms
    estimate it, where start / (1 + delta)**j reaches the bound plus half
    its ulp; rungs never rise, so stepping j until rung j is at most the
    bound and rung j - 1 above it (or rung k) lands on the first. (The
    estimate was exact on all 2,738 jumps of 180 pool solves, seed 3.)"""
    bound = max(at_most, math.nextafter(floor, -math.inf))
    log_ratio = math.log(start) - math.log(bound) - math.log1p(math.ulp(bound) / bound / 2)
    j = max(k + 1, math.ceil(log_ratio / math.log(1.0 + delta)))
    while threshold_rung(start, delta, j) > bound:
        j += 1
    while j - 1 > k and threshold_rung(start, delta, j - 1) <= bound:
        j -= 1
    return j


def _first_hit(gains: np.ndarray, best: float, threshold: float) -> int:
    """The index of the first of ``gains`` at or above ``threshold``, or
    their number if none is. ``best``, a gain at least as large as each,
    decides that none is without a search when it is short of the rung."""
    if not (gains.size and best >= threshold):
        return gains.size
    hits = gains >= threshold
    first = int(hits.argmax())
    return first if hits[first] else gains.size


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
) -> tuple[set[int], float]:
    """Maximize a monotone submodular oracle under a matroid constraint with
    a descending acceptance threshold; return the set and its value.

    The threshold starts at the best singleton value F and shrinks by
    1/(1+delta) per pass; each pass scans the non-selected elements in
    ascending id order and immediately inserts any feasible element whose
    (freshly evaluated) marginal gain clears the threshold. The loop ends
    when no feasible element is left or the threshold falls below delta * F.

    Rung k is F / (1+delta)**k in closed form, ``threshold_rung(F, delta,
    k)``: the same bits on every platform, it falls with k (strictly while
    normal) down to 0.0, so the loop keeps only k. A pass that inserts
    steps to k + 1; one that inserts nothing changes no gain, so the loop
    jumps (``_jump``) to the first rung at or below the largest surviving
    gain, or below the floor. The output and per-candidate evaluations are
    those of the literal pass-by-pass loop over the same rungs; only the
    no-op rescans are skipped.

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
    slice of the base's feasible gains, and one comparison with the rung
    finds its first gain at or above the threshold (``_first_hit``). The
    base's best feasible gain, one reduction, decides every stretch it
    leaves short of the threshold without a search, and is the gain a pass
    without insertions jumps to. The loop counts the candidates the
    one-at-a-time scan would evaluate and charges them once,
    through ``oracle.charge``, after charging the cold empty set with its
    first scan. The value returned is the final base's (0.0 for the empty
    set): the bits ``oracle.evaluate`` gives the set, uncharged.

    A delta that is not a real number in (0, 1], or whose descent would take
    more than THRESHOLD_STEPS_CAP rungs, is refused with ValueError.

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
    k, threshold = 0, initial  # rung 0 is F itself
    floor = delta * initial
    # The set, and so every gain and the feasibility mask, only changes
    # when an element is accepted. The greedy ends when no candidate is left.
    feasibility = matroid.feasibility()
    candidates = _feasible(feasibility.mask, n_actions, subset)
    gains = reduced[candidates]  # the empty set's gains are its reduced row
    best = initial if candidates.size == n_actions else float(np.maximum.reduce(gains, initial=0.0))
    scanned = 0  # candidates the one-at-a-time scans evaluate, charged at the end
    while initial > 0 and threshold >= floor and candidates.size:
        passes += 1
        start, lo = subset, 0
        hit = _first_hit(gains, best, threshold)
        while hit < gains.size - lo:
            scanned += hit + 1
            e = int(candidates[lo + hit])
            if trace is not None:
                trace.append(GreedyStep(threshold, e, float(gains[lo + hit]), subset))
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
            hit = _first_hit(gains[lo:], best, threshold)
        scanned += gains.size - lo
        if subset is not start:
            k += 1
        elif best > 0.0:  # a pass that inserts nothing jumps to the best gain
            k = _jump(initial, delta, k, best, floor)
        else:
            break
        threshold = threshold_rung(initial, delta, k)
    oracle.charge(scanned)
    if stats is not None:
        stats["passes"] = passes
        stats["initial_threshold"] = initial
        stats["final_threshold"] = threshold
    return set(subset), value


def _checked(mask: np.ndarray, n_actions: int) -> np.ndarray:
    """``mask``, once it covers the ground set: every greedy reads its
    ``Matroid.feasibility`` mask through here, and one of a shape other than
    (n_actions,) is refused with IndexError, so every id it admits is in range."""
    if mask.shape != (n_actions,):
        raise IndexError(f"feasibility mask of shape {mask.shape} does not cover the ground set [0, {n_actions})")
    return mask


def _feasible(mask: np.ndarray, n_actions: int, subset: frozenset = frozenset()) -> np.ndarray:
    """The ids a ``_checked`` feasibility mask admits, ascending: the one
    place a greedy lists its candidates (``ratio_greedy_baseline`` only
    counts its pool). A mask that admits a member of ``subset`` (the
    threshold greedy's base) raises ValueError."""
    ids = _checked(mask, n_actions).nonzero()[0]
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
            candidate, value = threshold_greedy(oracle, scenario.matroid, params.delta)
            oracle.charge(1)  # the acceptance test reads the candidate's value
            if value < gamma / divisor:
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
    that leaves the pool never returns; each round counts the pool on its
    ``_checked`` mask. The pool is one N x M matrix, the distances times the
    mask, and one rule rescores from it: its row maxima are the normalizers
    and each column scores its minimum over agents of the matrix divided by
    them, so a column outside the pool scores +0. A normalizer can only
    move when a column attaining it leaves, so the pool is refilled and
    rescored only in the first round, after a pick that attained a
    normalizer, or after a round that removed more than the pick (a block
    filled); between rescores a pick's score is zeroed, and a round picks
    the first maximum. The counter is charged as if each (candidate, agent)
    score re-derived its normalizer by scanning the whole feasible pool F:
    N * |F| * (1 + |F|) per round, an accounting convention for the
    full-scan baseline the fast solver's evaluation counts are judged
    against, not a count of the work done here.
    """
    started = time.perf_counter()
    counter = EvaluationCounter()
    distances, n_agents = scenario.distances, scenario.n_agents
    feasibility = scenario.matroid.feasibility()
    selected: set[int] = set()
    pool = np.empty(distances.shape)
    while True:
        mask = _checked(feasibility.mask, scenario.n_actions)
        size = int(np.count_nonzero(mask))
        if not size:
            break
        counter.add(n_agents * size * (1 + size))
        if not selected or size < last_size - 1 or attains[best]:
            np.multiply(distances, mask, out=pool)
            norm = np.maximum.reduce(pool, axis=1)
            # A zero normalizer is a zero row of the pool: divided by 1, it scores 0.
            scores = np.minimum.reduce(pool / np.where(norm > 0.0, norm, 1.0)[:, None], axis=0)
            attains = np.logical_or.reduce(pool == norm[:, None], axis=0)
        best = int(scores.argmax())  # first maximum: lowest id on ties
        if not scores[best] > 0.0:
            break
        feasibility.add(best)
        selected.add(best)
        scores[best] = 0.0
        last_size = size
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
