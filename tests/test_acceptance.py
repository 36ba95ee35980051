"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured margins (run with -s to see them).

Criteria 1-4 run on a fixed 250-instance family of small scenarios (at most
3 agents, 6 actions, uniform and partition constraints). Criteria 5-7 run
the full-scale benchmark configuration (5 agents, 50 actions, capacities
1..10, 100 trials) once per session and inspect its aggregates.
"""

import math
import time

import numpy as np
import pytest

from robust_select import (
    BenchConfig,
    PartitionMatroid,
    SolverParams,
    SurrogateOracle,
    UniformMatroid,
    agent_values,
    aggregate,
    brute_force_maxmin,
    brute_force_surrogate_max,
    check_matroid_axioms,
    compute_curvature,
    min_objective,
    run_benchmark,
    saturate_robust,
    threshold_greedy,
    write_results_csv,
)
from robust_select.checks import gamma_grid, random_small_scenario
from robust_select.matroid import all_subsets

DELTA = 1e-3
TOL = 1e-9
FAMILY_SEED = 0
FAMILY_SIZE = 250


@pytest.fixture(scope="module")
def instance_family():
    rng = np.random.default_rng(FAMILY_SEED)
    return [random_small_scenario(rng, max_actions=6) for _ in range(FAMILY_SIZE)]


@pytest.fixture(scope="module")
def paper_benchmark():
    config = BenchConfig()  # the full-scale defaults
    started = time.perf_counter()
    results = run_benchmark(config, ("fast", "ratio"))
    elapsed = time.perf_counter() - started
    summary = {(row.z, row.algorithm): row for row in aggregate(results)}
    return config, results, summary, elapsed


def test_criterion_1_fixed_gamma_bound(instance_family):
    """Threshold greedy within 1/(1 + curvature + delta) of the enumerated
    surrogate optimum at every gamma, exact computed curvature, zero
    violations at 1e-9."""
    started = time.perf_counter()
    cases = 0
    worst = math.inf
    for scenario in instance_family:
        upper = min_objective(scenario, range(scenario.n_actions))
        if upper <= 0:
            continue
        for gamma in gamma_grid(upper):
            oracle = SurrogateOracle(scenario, gamma)
            greedy_value = oracle.evaluate(threshold_greedy(oracle, scenario.matroid, DELTA))
            best = brute_force_surrogate_max(SurrogateOracle(scenario, gamma), scenario.matroid)
            best_value = SurrogateOracle(scenario, gamma).evaluate(best)
            curvature = compute_curvature(SurrogateOracle(scenario, gamma), range(scenario.n_actions))
            slack = greedy_value - best_value / (1.0 + curvature + DELTA)
            worst = min(worst, slack)
            assert slack >= -TOL, f"fixed-gamma bound violated: slack={slack}"
            cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 200 * 5
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 fixed-gamma bound: PASS ({cases} cases, worst slack {worst:.3e}, {elapsed:.1f}s)")


def test_criterion_2_end_to_end_bound(instance_family):
    """Solver's worst-agent value within 1/(1 + c + delta) of the enumerated
    max-min optimum minus epsilon, zero violations on the family."""
    started = time.perf_counter()
    params = SolverParams(delta=DELTA, curvature=1.0)
    worst = math.inf
    for scenario in instance_family:
        solution = saturate_robust(scenario, params)
        optimum = brute_force_maxmin(scenario)
        bound = optimum.min_value / (1.0 + params.curvature + DELTA) - solution.params["epsilon"]
        slack = solution.min_value - bound
        worst = min(worst, slack)
        assert slack >= -TOL, f"end-to-end bound violated: slack={slack}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 2 end-to-end bound: PASS ({len(instance_family)} instances, "
        f"worst slack {worst:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_3_structural_properties(instance_family):
    """Exhaustive surrogate monotonicity + submodularity on every family
    instance, and exhaustive matroid axioms up to 8 elements."""
    pair_checks = 0
    for scenario in instance_family:
        n = scenario.n_actions
        subsets = all_subsets(range(n))
        upper = min_objective(scenario, range(n))
        h = [
            {s: agent_values(scenario, s)[agent] for s in subsets}
            for agent in range(scenario.n_agents)
        ]
        for gamma in [0.0] + gamma_grid(upper):
            value = {
                s: sum(min(h[i][s], gamma) for i in range(scenario.n_agents)) / scenario.n_agents
                for s in subsets
            }
            oracle = SurrogateOracle(scenario, gamma)
            for s in subsets:
                assert oracle.evaluate(s) == value[s]
            for b in subsets:
                for a in subsets:
                    if not a <= b:
                        continue
                    assert value[a] <= value[b] + TOL
                    for v in range(n):
                        if v in b:
                            continue
                        assert value[a | {v}] - value[a] >= value[b | {v}] - value[b] - TOL
                        pair_checks += 1

    axiom_rng = np.random.default_rng(FAMILY_SEED + 1)
    axiom_checks = 0
    for n in range(1, 9):
        for rank in range(1, n + 1):
            assert check_matroid_axioms(UniformMatroid(n, rank))
            axiom_checks += 1
        for _ in range(6):
            blocks_count = int(axiom_rng.integers(1, min(4, n) + 1))
            assignment = axiom_rng.integers(0, blocks_count, n)
            blocks = tuple(
                tuple(int(j) for j in range(n) if assignment[j] == b) for b in range(blocks_count)
            )
            capacities = tuple(int(axiom_rng.integers(0, 4)) for _ in range(blocks_count))
            assert check_matroid_axioms(PartitionMatroid(blocks, capacities))
            axiom_checks += 1
    print(
        f"ACCEPTANCE 3 structural properties: PASS "
        f"({pair_checks} submodularity pairs, {axiom_checks} matroids)"
    )


def test_criterion_4_bisection_contract(instance_family):
    """Iteration count is ceil(log2(initial upper / epsilon)) exactly and
    the bracket halves each iteration, on 50 instances."""
    rng = np.random.default_rng(FAMILY_SEED + 2)
    checked = 0
    for scenario in instance_family:
        if checked >= 50:
            break
        upper = min_objective(scenario, range(scenario.n_actions))
        if upper <= 0:
            continue
        ratio = float(rng.uniform(3.0, 4000.0))
        if abs(math.log2(ratio) - round(math.log2(ratio))) < 0.02:
            ratio *= 1.1  # keep away from knife-edge iteration counts
        epsilon = upper / ratio
        trace = []
        solution = saturate_robust(scenario, SolverParams(epsilon=epsilon), bisection_trace=trace)
        assert solution.params["iterations"] == math.ceil(math.log2(upper / epsilon))
        width = upper
        for lower, upper_bound in trace:
            assert abs((upper_bound - lower) - width / 2.0) <= 1e-9 * upper
            assert -1e-12 <= lower <= upper_bound <= upper * (1 + 1e-12)
            width = upper_bound - lower
        checked += 1
    assert checked == 50
    print(f"ACCEPTANCE 4 bisection contract: PASS ({checked} instances)")


def test_criterion_5_objective_trend(paper_benchmark):
    """Full-scale objective comparison: the fast solver beats the ratio
    baseline at capacities 1-3, matches it within 5% at capacity 10, and
    its own curve is non-decreasing in z up to 1% of the z=10 mean. A
    dominance failure is reported with the paired per-trial data."""
    config, results, summary, _ = paper_benchmark
    for z in (1, 2, 3):
        fast = summary[(z, "fast")].mean_objective
        ratio = summary[(z, "ratio")].mean_objective
        if not fast > ratio:
            pairs = [
                (r.trial, r.objective)
                for r in results
                if r.z == z and r.algorithm == "fast"
            ]
            ratio_pairs = [
                (r.trial, r.objective)
                for r in results
                if r.z == z and r.algorithm == "ratio"
            ]
            table = "\n".join(
                f"  trial {t}: fast={fo:.4f} ratio={ro:.4f}"
                for (t, fo), (_, ro) in zip(pairs, ratio_pairs)
            )
            pytest.fail(
                f"dominance failed at z={z}: fast mean {fast:.4f} <= ratio mean {ratio:.4f}\n"
                f"paired per-trial objectives:\n{table}"
            )

    fast10 = summary[(10, "fast")].mean_objective
    ratio10 = summary[(10, "ratio")].mean_objective
    relative_gap = abs(fast10 - ratio10) / max(fast10, ratio10)
    assert relative_gap <= 0.05, f"z=10 relative gap {relative_gap:.4f} exceeds 5%"

    means = [summary[(z, "fast")].mean_objective for z in range(config.z_min, config.z_max + 1)]
    tolerance = 0.01 * means[-1]
    for i in range(1, len(means)):
        assert means[i] >= means[i - 1] - tolerance, (
            f"fast mean objective drops at z={i + config.z_min}: "
            f"{means[i - 1]:.4f} -> {means[i]:.4f} (tolerance {tolerance:.4f})"
        )
    margins = [summary[(z, 'fast')].mean_objective - summary[(z, 'ratio')].mean_objective for z in (1, 2, 3)]
    print(
        f"ACCEPTANCE 5 objective trend: PASS (z<=3 margins "
        f"{', '.join(f'{m:.2f}' for m in margins)}; z=10 gap {relative_gap * 100:.2f}%)"
    )


def test_criterion_6_evaluation_trend(paper_benchmark):
    """Full-scale cost comparison: the fast solver uses strictly fewer
    averaged-objective evaluations than the ratio baseline at every
    capacity, the absolute gap widens from z=1 to z=10, and the whole
    2000-run benchmark finishes inside five minutes."""
    config, results, summary, elapsed = paper_benchmark
    gaps = {}
    for z in range(config.z_min, config.z_max + 1):
        fast = summary[(z, "fast")].mean_evaluations
        ratio = summary[(z, "ratio")].mean_evaluations
        assert fast < ratio, f"fast not cheaper at z={z}: {fast} vs {ratio}"
        gaps[z] = ratio - fast
    assert gaps[10] > gaps[1], f"evaluation gap did not widen: {gaps[1]:.1f} -> {gaps[10]:.1f}"
    assert len(results) == 2000
    assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 6 evaluation trend: PASS (gap {gaps[1]:.0f} -> {gaps[10]:.0f}, "
        f"benchmark {elapsed:.1f}s)"
    )


def test_criterion_7_benchmark_determinism(tmp_path):
    """Byte-identical CSVs across two runs with identical flags."""
    config = BenchConfig(
        n_agents=3, n_actions=12, z_min=1, z_max=2, trials=4, base_seed=17,
        measure_wall_time=False,
    )
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        write_results_csv(run_benchmark(config, ("fast", "ratio", "greedy")), str(path))
    first, second = (p.read_bytes() for p in paths)
    assert first == second

    # With timing enabled, everything but the wall_time_ms column is still
    # identical run to run.
    timed = BenchConfig(
        n_agents=3, n_actions=12, z_min=1, z_max=2, trials=4, base_seed=17,
    )
    def mask(rows):
        return [
            (r.z, r.trial, r.algorithm, r.objective, r.evaluations, r.seed)
            for r in rows
        ]
    assert mask(run_benchmark(timed, ("fast",))) == mask(run_benchmark(timed, ("fast",)))
    print("ACCEPTANCE 7 benchmark determinism: PASS (byte-identical CSVs)")
