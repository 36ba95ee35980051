#!/usr/bin/env python3
"""Closed-loop benchmark of the robust-select solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs ops back to back. An op builds a fresh ``Scenario`` from a
pool entry (so the distance matrix is computed inside the op, as it is for
every new instance a user solves) and makes the workload's solver calls.
Generating the pool is set-up. Every op's output is checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are scaled by the host speed measured between ops (see ``speed.py``),
so that a run on a slowed-down shared host reads the same as one on a fast
one; the report line gives the unscaled wall times as well.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs every pool entry untraced and then traced, and reports the per-layer
metrics, including the tracing overhead; the spans of the first traced op
are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import kernel_ms, scales
from tracing import Tracer, TracingMatroid, traced_solvers
from workloads import PAPER_CONFIG, WORKLOADS, Workload

from robust_select import (
    BenchConfig,
    Scenario,
    Solution,
    min_objective,
    ratio_greedy_baseline,
    run_benchmark,
    saturate_robust,
)

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
OUT_DIR = HERE / "out"

PARAMS = PAPER_CONFIG.solver_params()
# Set-up is repeated and its median reported, so one slow repeat cannot move it.
SETUP_REPEATS = 9
WARMUP_OPS = 2
# paper-quadrant cells compared against `run_benchmark` after the loop.
REPRO_CELLS = 4


@dataclass
class Op:
    """What one op returned, checked and ready to aggregate."""

    index: int
    step: int
    wall_ms: float
    fast: Solution
    ratio: Solution | None
    bound: float
    probes: list | None
    layers: dict | None = None
    counts: Counter | None = None
    # Host-speed factor of the op's step, set when its loop ends.
    scale: float = 1.0

    @property
    def ms(self) -> float:
        return self.wall_ms * self.scale

    @property
    def quality(self) -> float:
        return 1.0 if self.bound == 0.0 else self.fast.min_value / self.bound


class Run:
    """Failures and reference outputs shared by all loops of one run."""

    def __init__(self, workload: Workload, pool: list[Scenario]) -> None:
        self.workload = workload
        self.pool = pool
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[int, tuple] = {}
        self.first_spans: list[dict] = []
        self.kernel_blocks: list[float] = []

    def fail(self, message: str, op: bool = True) -> None:
        self.failed += op
        self.failures.append(message)

    def check(self, index: int, scenario: Scenario, solutions: list[Solution]) -> float | None:
        """Check one op's solutions; return the ground-set bound, or None
        after recording a failure."""
        matroid = self.pool[index].matroid
        bound = min_objective(scenario, range(scenario.n_actions))
        for sol in solutions:
            if not matroid.is_independent(sol.selected):
                return self.fail(f"pool {index}: {sol.algorithm} selection is not independent")
            if min_objective(scenario, sol.selected) != sol.min_value:
                return self.fail(f"pool {index}: {sol.algorithm} min_value differs from its recomputation")
            if sol.min_value > bound:
                return self.fail(f"pool {index}: {sol.algorithm} min_value exceeds the ground-set bound")
        outputs = tuple((s.selected, s.min_value, s.individual_evals) for s in solutions)
        if self.reference.setdefault(index, outputs) != outputs:
            return self.fail(f"pool {index}: outputs differ from an earlier op on the same scenario")
        return bound

    def loop(self, seconds: float, min_ops: int, tracer: Tracer | None = None) -> tuple[list[Op], list[Op]]:
        """Closed loop with one caller: step k runs pool entry k % len(pool),
        until ``seconds`` have passed and at least ``min_ops`` steps ran.
        Returns the untraced and the traced ops. With a tracer, each step
        runs its entry untraced and then traced, so both see the same
        machine conditions. A block of reference kernels runs before the
        first step and after each one; a step's ops are scaled by the
        blocks on either side of it."""
        untraced: list[Op] = []
        traced: list[Op] = []
        reps = self.workload.kernel_reps
        blocks = [kernel_ms(reps)]
        started = perf_counter()
        k = 0
        while k < min_ops or perf_counter() - started < seconds:
            index = k % len(self.pool)
            self._op(index, k, untraced, None)
            if tracer is not None:
                with traced_solvers(tracer):
                    self._op(index, k, traced, tracer)
            blocks.append(kernel_ms(reps))
            k += 1
        factor = scales(blocks)
        for op in untraced + traced:
            op.scale = factor[op.step]
        self.kernel_blocks += blocks
        return untraced, traced

    def _op(self, index: int, step: int, ops: list[Op], tracer: Tracer | None) -> None:
        self.attempted += 1
        t0 = perf_counter()
        try:
            scenario, fast, ratio, probes = run_op(self.workload, self.pool[index], tracer)
        except Exception as exc:  # any exception is a failed op; the loop goes on
            self.fail(f"pool {index}: {type(exc).__name__}: {exc}")
            if tracer is not None:
                tracer.end_op()
            return
        ms = (perf_counter() - t0) * 1000.0
        layers = counts = None
        if tracer is not None:
            if not ops:
                self.first_spans = tracer.spans(0)
            layers, counts = tracer.end_op()
        bound = self.check(index, scenario, [fast] if ratio is None else [fast, ratio])
        if bound is not None:
            ops.append(Op(index, step, ms, fast, ratio, bound, probes, layers, counts))


def run_op(workload: Workload, entry: Scenario, tracer: Tracer | None):
    """One op: a fresh scenario from ``entry``, then the workload's calls."""
    if tracer is None:
        scenario = Scenario(entry.agents, entry.actions, entry.matroid)
        fast = saturate_robust(scenario, PARAMS)
        ratio = ratio_greedy_baseline(scenario) if workload.with_ratio_baseline else None
        return scenario, fast, ratio, None

    def traced():
        scenario = Scenario(entry.agents, entry.actions, TracingMatroid(entry.matroid, tracer))
        tracer.call("scenario.distances", getattr, scenario, "distances")
        probes: list = []
        fast = tracer.call("solvers.saturate_robust", saturate_robust, scenario, PARAMS, bisection_trace=probes)
        ratio = None
        if workload.with_ratio_baseline:
            ratio = tracer.call("solvers.ratio_greedy_baseline", ratio_greedy_baseline, scenario)
        return scenario, fast, ratio, probes

    return tracer.call("op", traced)


def set_up(workload: Workload, seed: int) -> tuple[list[Scenario], float]:
    """Generate the pool SETUP_REPEATS times; return the last pool and the
    median time of one generation, each scaled by the reference kernel
    blocks run just before and just after it."""
    times = []
    blocks = []
    for _ in range(SETUP_REPEATS):
        pool = None  # free the previous repeat's pool before timing the next
        gc.collect()
        blocks.append(kernel_ms(workload.kernel_reps))
        t0 = perf_counter()
        pool = [workload.generate(seed, i) for i in range(workload.pool_size)]
        times.append(perf_counter() - t0)
        blocks.append(kernel_ms(workload.kernel_reps))
    times = [t * f for t, f in zip(times, scales(blocks)[::2])]
    # The pool lives for the whole run; keep the collector from rescanning it.
    gc.collect()
    gc.freeze()
    return pool, statistics.median(times)


def percentile_ms(times: list[float]) -> tuple[float, float]:
    if len(times) < 2:
        return times[0], times[0]
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    return cuts[4], cuts[8]


def exact_facts(ops: list[Op], workload: Workload) -> dict:
    """Facts that depend only on the seed: the first ``exact_ops`` ops."""
    first = ops[: workload.exact_ops]
    n = len(first) or 1
    return {
        "ops": n,
        "evals_per_solve": sum(op.fast.f_evaluations for op in first) / n,
        "quality_ratio": sum(op.quality for op in first) / n,
        "probes_per_solve": sum(op.fast.params["iterations"] for op in first) / n,
        "trivial_bound_hit_rate": sum(op.fast.min_value == op.bound for op in first) / n,
        "mean_selection_size": sum(len(op.fast.selected) for op in first) / n,
    }


def shape(pool: list[Scenario]) -> dict:
    return {
        "n_agents": statistics.mean(s.n_agents for s in pool),
        "n_actions": statistics.mean(s.n_actions for s in pool),
    }


def check_reproduces_bench(run: Run, ops: list[Op], seed: int) -> None:
    """The first paper-quadrant cells give exactly `run_benchmark`'s
    objective and evaluations, so the loop measures the program that
    `robust-select bench` runs."""
    by_index = {op.index: op for op in ops}
    for trial in range(REPRO_CELLS):
        z = 1 + trial % 10
        config = BenchConfig(z_min=z, z_max=z, trials=trial + 1, base_seed=seed, measure_wall_time=False)
        expected = {
            r.algorithm: (r.objective, r.evaluations)
            for r in run_benchmark(config, ("fast", "ratio"), workers=1)
            if r.trial == trial
        }
        op = by_index.get(trial)
        got = None if op is None else {s.algorithm: (s.min_value, s.f_evaluations) for s in (op.fast, op.ratio)}
        if got != expected:
            run.fail(f"paper-quadrant cell {trial}: {got} != run_benchmark {expected}", op=False)


def end_to_end(ops: list[Op], facts: dict, setup_s: float) -> dict:
    times = [op.ms for op in ops]
    p50, p90 = percentile_ms(times)
    return {
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "ops_per_s": 1000.0 * len(times) / sum(times),
        "evals_per_solve": facts["evals_per_solve"],
        "quality_ratio": facts["quality_ratio"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced: list[Op], untraced: list[Op], facts: dict, workload: Workload, setup_s: float) -> dict:
    """Per-layer metrics: counts over the first ``exact_ops`` traced ops
    (exact), times as per-op means over every traced op."""
    calls: Counter = Counter()
    counts: Counter = Counter()
    self_ns: Counter = Counter()
    total_ns: Counter = Counter()
    all_calls: Counter = Counter()
    probes = accepts = 0
    ratio_evals = 0
    n_exact = 0
    for position, op in enumerate(traced):
        for name, (c, own, total) in op.layers.items():
            all_calls[name] += c
            self_ns[name] += own * op.scale
            total_ns[name] += total * op.scale
        if position < workload.exact_ops:
            n_exact += 1
            for name, (c, _, _) in op.layers.items():
                calls[name] += c
            counts.update(op.counts)
            lower = 0.0
            for new_lower, _ in op.probes:
                probes += 1
                accepts += new_lower != lower
                lower = new_lower
            if op.ratio is not None:
                ratio_evals += op.ratio.individual_evals
    n = len(traced)
    n_exact = n_exact or 1

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def per_op_ms(name: str, which: Counter = self_ns) -> float:
        return which[name] / n / 1e6

    traced_p50 = statistics.median(op.ms for op in traced)
    untraced_p50 = statistics.median(op.ms for op in untraced)
    gain = "surrogate.marginal_gain"
    return {
        "surrogate.marginal_gain.calls": calls[gain] / n_exact,
        "surrogate.marginal_gain.self_ms": per_op_ms(gain),
        "surrogate.marginal_gain.us_per_call": share(self_ns[gain], all_calls[gain]) / 1e3,
        "surrogate.evaluate.calls": calls["surrogate.evaluate"] / n_exact,
        "surrogate.evaluate.self_ms": per_op_ms("surrogate.evaluate"),
        "surrogate.base_hit_ratio": share(counts["surrogate.base_hits"], counts["surrogate.charged_gains"]),
        "surrogate.individual_evals": counts["surrogate.individual_evals"] / n_exact,
        "solvers.threshold_greedy.calls": calls["solvers.threshold_greedy"] / n_exact,
        "solvers.threshold_greedy.self_ms": per_op_ms("solvers.threshold_greedy"),
        "solvers.threshold_greedy.passes": share(counts["threshold_greedy.passes"], calls["solvers.threshold_greedy"]),
        "solvers.threshold_greedy.accept_ratio": share(counts["threshold_greedy.insertions"], counts["threshold_greedy.gains"]),
        "solvers.bisection.probes": probes / n_exact,
        "solvers.bisection.accept_ratio": share(accepts, probes),
        "solvers.trivial_bound_hit_rate": facts["trivial_bound_hit_rate"],
        "solvers.saturate_robust.self_ms": per_op_ms("solvers.saturate_robust"),
        "solvers.ratio_greedy_baseline.op_share": share(total_ns["solvers.ratio_greedy_baseline"], total_ns["op"]),
        "solvers.ratio_greedy_baseline.individual_evals": ratio_evals / n_exact,
        "matroid.can_extend.calls": calls["matroid.can_extend"] / n_exact,
        "matroid.can_extend.self_ms": per_op_ms("matroid.can_extend"),
        "matroid.is_basis.calls": calls["matroid.is_basis"] / n_exact,
        "matroid.is_basis.self_ms": per_op_ms("matroid.is_basis"),
        "scenario.distances.ms": per_op_ms("scenario.distances", total_ns),
        "scenario.min_objective.calls": calls["scenario.min_objective"] / n_exact,
        "scenario.min_objective.self_ms": per_op_ms("scenario.min_objective"),
        "setup.generate_scenario.ms": 1000.0 * setup_s / workload.pool_size,
        "trace.op_ms.p50": traced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run. Returns the result object (the last output line)
    and a report with the environment, workload shape and exact facts."""
    pool, setup_s = set_up(workload, seed)
    run = Run(workload, pool)
    run.loop(0.0, WARMUP_OPS, Tracer() if trace else None)
    untraced, traced = run.loop(seconds, workload.exact_ops, Tracer() if trace else None)
    ops = traced if trace else untraced
    facts = exact_facts(ops, workload)
    if workload.with_ratio_baseline:
        check_reproduces_bench(run, ops, seed)
    if trace:
        metrics = per_layer(ops, untraced, facts, workload, setup_s)
    else:
        metrics = end_to_end(ops, facts, setup_s)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    report = {
        "environment": environment(),
        "workload": workload.name,
        "seed": seed,
        "shape": shape(pool) | {k: facts[k] for k in ("mean_selection_size", "trivial_bound_hit_rate")},
        "exact": facts,
        "op_ms.samples": len(ops),
        "wall_op_ms.p50": statistics.median(op.wall_ms for op in ops),
        "kernel_ms.median": statistics.median(run.kernel_blocks),
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures[:5],
    }
    if trace:
        report["spans"] = run.first_spans
    return result, report


def metric_units(trace: bool) -> dict[str, str]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the robust-select solvers.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    units = metric_units(bool(args.trace))

    result, report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(set(result['metrics']) ^ set(units))} do not match BENCHMARK.json")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": units[name]} for name in units}

    spans = report.pop("spans", None)
    if spans is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record) + "\n")
        report["spans_file"] = str(path.relative_to(HERE.parent))
    print(json.dumps(report))
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
