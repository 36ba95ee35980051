"""Randomized verification battery behind the ``check`` CLI subcommand.

Draws small instances (few agents, few actions, uniform or partition
constraints), checks every structural and bound property exhaustively on
each, and reports one outcome per property family. The first failing
instance of a family is kept as a replayable counterexample scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matroid import Matroid, PartitionMatroid, UniformMatroid, all_subsets, check_matroid_axioms
from .scenario import EvaluationCounter, Scenario, agent_values, min_objective
from .solvers import (
    CURVATURE,
    SolverParams,
    brute_force_max,
    brute_force_maxmin,
    ratio_greedy_baseline,
    saturate_robust,
    simple_greedy,
    threshold_greedy,
)
from .surrogate import SurrogateOracle, compute_curvature

MAX_ACTIONS_CAP = 7
DELTA = SolverParams.delta


@dataclass
class CheckResult:
    """One property family accumulating over instances: how many checks ran,
    and the first failure's detail and instance."""

    name: str
    checked: int = 0
    detail: str = ""
    counterexample: Scenario | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def count(self) -> None:
        self.checked += 1

    def fail(self, scenario: Scenario, detail: str) -> None:
        if self.counterexample is None:
            self.detail = detail
            self.counterexample = scenario

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" {self.detail}" if self.detail else ""
        return f"{status} {self.name} checked={self.checked}{extra}"


class _CorruptFamily:
    """Deliberately broken independence family over two elements:
    {0, 1} is called independent but {0} is not, violating downward
    closure. Used to prove the axiom checker can say no."""

    n_actions = 2

    def is_independent(self, subset) -> bool:
        s = frozenset(subset)
        return s in (frozenset(), frozenset({1}), frozenset({0, 1}))


def random_small_scenario(rng: np.random.Generator, max_actions: int, max_agents: int = 3) -> Scenario:
    """One random instance: 1..max_agents agents and 1..max_actions actions
    uniform in [0, 100)^2, under a uniform matroid (random rank) or a
    partition matroid (random blocks, one shared capacity in 0..2)."""
    n_agents = int(rng.integers(1, max_agents + 1))
    n_actions = int(rng.integers(1, max_actions + 1))
    agents = rng.uniform(0.0, 100.0, (n_agents, 2))
    actions = rng.uniform(0.0, 100.0, (n_actions, 2))
    matroid: Matroid
    if rng.random() < 0.5:
        matroid = UniformMatroid(n_actions, int(rng.integers(1, n_actions + 1)))
    else:
        n_blocks = int(rng.integers(1, min(4, n_actions) + 1))
        assignment = rng.integers(0, n_blocks, n_actions)
        blocks = tuple(tuple(np.flatnonzero(assignment == b).tolist()) for b in range(n_blocks))
        matroid = PartitionMatroid(blocks, (int(rng.integers(0, 3)),) * n_blocks)
    return Scenario.from_coords(agents, actions, matroid)


def gamma_grid(upper: float) -> list[float]:
    """Five saturation levels, upper/5 to upper; k/5.0 first so the top
    one is exactly ``upper``."""
    return [upper * (k / 5.0) for k in range(1, 6)]


def run_battery(
    instances: int = 200,
    max_actions: int = MAX_ACTIONS_CAP,
    seed: int = 0,
    inject_defect: bool = False,
) -> list[CheckResult]:
    if max_actions > MAX_ACTIONS_CAP:
        raise ValueError(f"check battery limited to --max-actions <= {MAX_ACTIONS_CAP}, got {max_actions}")
    if max_actions < 1 or instances < 1:
        raise ValueError("check battery needs instances >= 1 and max-actions >= 1")
    rng = np.random.default_rng(seed)

    axioms = CheckResult("matroid_axioms")
    mono_h = CheckResult("objective_monotone_submodular")
    mono_f = CheckResult("surrogate_monotone_submodular")
    bounds_f = CheckResult("surrogate_bounds")
    dominance = CheckResult("min_objective_dominance")
    greedy_bound = CheckResult("threshold_greedy_vs_optimal_bound")
    gain_dominance = CheckResult("accepted_gain_dominates_feasible_optimal")
    maxmin_bound = CheckResult("end_to_end_maxmin_bound")
    bisection = CheckResult("bisection_contract")
    solvers_ok = CheckResult("solver_feasibility_determinism")
    counters = CheckResult("counter_monotonicity")

    if inject_defect:
        # Negative control: force a reported failure through the full
        # counterexample path. The corrupt family must be rejected.
        witness = random_small_scenario(rng, max_actions=2)
        axioms.count()
        if check_matroid_axioms(_CorruptFamily()):
            axioms.fail(witness, "axiom checker accepted a corrupt independence family")
        else:
            axioms.fail(witness, "injected corrupt independence family rejected as expected")

    for _ in range(instances):
        scenario = random_small_scenario(rng, max_actions)
        n = scenario.n_actions
        n_agents = scenario.n_agents
        subsets = all_subsets(range(n))

        axioms.count()
        if not check_matroid_axioms(scenario.matroid):
            axioms.fail(scenario, "matroid axioms violated")

        # Per-agent objective: monotone and submodular, checked exhaustively
        # from a table of all subset values. Maxima only select values, and
        # subtracting them rounds monotonically: the checks are exact.
        values = {s: agent_values(scenario, s).tolist() for s in subsets}
        h_tables = [{s: values[s][agent] for s in subsets} for agent in range(n_agents)]
        for agent in range(n_agents):
            _check_monotone_submodular(mono_h, scenario, h_tables[agent], 0.0, f"h_{agent}")

        upper = min_objective(scenario, range(n))

        for s in subsets:
            g_value = min_objective(scenario, s)
            for agent in range(n_agents):
                dominance.count()
                if g_value > h_tables[agent][s]:
                    dominance.fail(scenario, f"min objective exceeds h_{agent} on {sorted(s)}")

        for gamma in [0.0] + gamma_grid(upper):
            oracle = SurrogateOracle(scenario, gamma)
            table = {s: oracle.evaluate(s) for s in subsets}
            # Each value is a mean within `error` of exact: a check comparing k of them
            # allows k errors, each with half an ulp of gamma to spare for its own roundings.
            error = SurrogateOracle.mean_error(n_agents, gamma)
            for s in subsets:
                bounds_f.count()
                value, low = table[s], min(h_tables[i][s] for i in range(n_agents))
                if not (0.0 <= value <= gamma + error):
                    bounds_f.fail(scenario, f"surrogate outside [0, gamma] on {sorted(s)}")
                if value < min(low, gamma) / n_agents - error:
                    bounds_f.fail(scenario, f"surrogate below its floor on {sorted(s)}")
                # Saturated, the exact mean is gamma; else at most gamma - (gamma - low) / N (three roundings).
                if value < gamma - error if low >= gamma else value > gamma - (gamma - low) / n_agents + 2 * error:
                    bounds_f.fail(scenario, f"saturation mismatch on {sorted(s)}")
            if table[frozenset()] != 0.0:
                bounds_f.fail(scenario, "surrogate of the empty set is not 0")
            _check_monotone_submodular(mono_f, scenario, table, error, f"surrogate at gamma={gamma}")
            if gamma == 0.0:
                continue
            trace: list = []
            greedy_set, greedy_value = threshold_greedy(oracle, scenario.matroid, DELTA, trace=trace)
            best_set = brute_force_max(table.__getitem__, scenario.matroid)
            curvature = compute_curvature(oracle, range(n))
            greedy_bound.count()
            if greedy_value != table[frozenset(greedy_set)]:
                greedy_bound.fail(scenario, f"greedy value is not its set's at gamma={gamma}")
            if greedy_value < greedy_floor(scenario, gamma, table[best_set], curvature):
                greedy_bound.fail(scenario, f"greedy below bound at gamma={gamma}")
            for step in trace:
                for o in best_set - step.base:
                    if not scenario.matroid.can_extend(step.base, o):
                        continue
                    gain_dominance.count()
                    if (1.0 + DELTA) * step.gain < table[step.base | {o}] - table[step.base] - 4 * error:
                        gain_dominance.fail(scenario, f"accepted gain dominated at gamma={gamma}")

        bisection_trace: list = []
        solution = saturate_robust(scenario, SolverParams(delta=DELTA), bisection_trace=bisection_trace)
        optimum = brute_force_maxmin(scenario)
        maxmin_bound.count()
        epsilon = solution.params["epsilon"]
        # Min values are exact, and the bound's three roundings stay within an ulp of the optimum.
        if solution.min_value < optimum.min_value / (1.0 + CURVATURE + DELTA) - epsilon - math.ulp(optimum.min_value):
            maxmin_bound.fail(
                scenario,
                f"end-to-end bound violated: got {solution.min_value}, optimum {optimum.min_value}",
            )

        if upper > 0:
            width = upper
            expected = math.ceil(math.log2(upper / epsilon))
            bisection.count()
            if solution.params["iterations"] != expected:
                bisection.fail(scenario, f"iterations {solution.params['iterations']} != {expected}")
            # A midpoint is one rounding of the exact one, and the widths subtract exactly.
            for lower, upper_bound in bisection_trace:
                bisection.count()
                if abs((upper_bound - lower) - width / 2.0) > math.ulp(upper):
                    bisection.fail(scenario, "bracket does not halve")
                if not (0.0 <= lower <= upper_bound <= upper):
                    bisection.fail(scenario, "bracket escaped [0, initial upper]")
                width = upper_bound - lower

        for run in (
            solution,
            simple_greedy(scenario),
            ratio_greedy_baseline(scenario),
            optimum,
        ):
            solvers_ok.count()
            if not scenario.matroid.is_independent(frozenset(run.selected)):
                solvers_ok.fail(scenario, f"{run.algorithm} returned a dependent set")
            # Every solver computes min_value through min_objective: the same bits.
            if run.min_value != min_objective(scenario, run.selected):
                solvers_ok.fail(scenario, f"{run.algorithm} min_value is stale")
        repeat = saturate_robust(scenario, SolverParams(delta=DELTA))
        solvers_ok.count()
        if (repeat.selected, repeat.min_value, repeat.individual_evals) != (
            solution.selected,
            solution.min_value,
            solution.individual_evals,
        ):
            solvers_ok.fail(scenario, "solver rerun differs: nondeterminism")

        counter = EvaluationCounter()
        last = counter.individual_evals
        oracle = SurrogateOracle(scenario, upper if upper > 0 else 1.0, counter)
        for s in subsets[: min(len(subsets), 8)]:
            oracle.evaluate(s)
            counters.count()
            if counter.individual_evals < last:
                counters.fail(scenario, "counter decreased")
            last = counter.individual_evals

    return [
        axioms,
        mono_h,
        mono_f,
        bounds_f,
        dominance,
        greedy_bound,
        gain_dominance,
        maxmin_bound,
        bisection,
        solvers_ok,
        counters,
    ]


def greedy_floor(scenario: Scenario, gamma: float, best_value: float, curvature: float) -> Fraction:
    """The least value the per-gamma bound allows a greedy set at ``gamma``,
    exactly: best / (1 + c + DELTA) less two values' ``mean_error``, with c
    the computed ``curvature`` raised by its own error to a ceiling on the
    exact one: 1 less the least ratio of an element's gain at the full set to
    its singleton value that the errors allow (never below 0: monotone)."""
    f, n = SurrogateOracle(scenario, gamma).evaluate, scenario.n_actions
    e, full = Fraction(SurrogateOracle.mean_error(scenario.n_agents, gamma)), frozenset(range(n))
    ratios = [max(0, (Fraction(f(full)) - Fraction(f(full - {a})) - 2 * e) / (Fraction(single) + e))
              for a in range(n) if (single := f({a})) > 0.0]
    c = max(Fraction(curvature), 1 - min(ratios, default=1))
    return Fraction(best_value) / (1 + c + Fraction(DELTA)) - 2 * e


def _check_monotone_submodular(family: CheckResult, scenario: Scenario, table: dict, error: float, label: str) -> None:
    """Check a table of every subset's value, each within ``error`` of exact,
    for monotonicity and submodularity, over every pair a <= b of its subsets
    and every v outside b: two values and four."""
    for b in table:
        for a in all_subsets(b):
            family.count()
            if table[a] > table[b] + 2 * error:
                family.fail(scenario, f"{label} not monotone on {sorted(a)} vs {sorted(b)}")
            for v in range(scenario.n_actions):
                if v in b:
                    continue
                family.count()
                if table[a | {v}] - table[a] < table[b | {v}] - table[b] - 4 * error:
                    family.fail(scenario, f"{label} not submodular at v={v}")
