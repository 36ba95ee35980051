#!/usr/bin/env python3
"""Layered timing record of the solver, appended to a BENCH_<n>.json file.

    python3 scripts/bench_layers.py --out BENCH_11.json [--label TEXT] [--quick]

Twelve layers, each timed as the minimum over REPEATS repeats on fixed seeds,
with the evaluations one run charges (in f-equivalents, as
``Solution.f_evaluations`` counts them). A repeat runs a short layer a
batch of times, so that it lasts about a millisecond or more, and its time
is divided by the batch (its evaluations are one run's); each row records
its ``batch``, 1 for the two long layers. Records whose rows have no
``batch`` ran ``scenario``, ``scenario_crowd``, ``saturate_robust``,
``ratio_greedy_baseline``, ``simple_greedy`` and ``bench_cell`` once per
repeat:

* ``lanes``: one warm base's lanes and gains, the work the threshold greedy
  does once per base (``SurrogateOracle.lanes``, then the reduced row minus
  the base's value). The base is the singleton of least value, taken from
  the empty set's lanes as the greedy takes it; lanes charge nothing;
* ``scenario``: one ring-uniform scenario built from its coordinate lists
  by ``Scenario.from_coords``, as perfbench's generator builds a pool
  entry, and its distance matrix, as each perfbench op builds it; it
  charges nothing;
* ``scenario_crowd``: the same for crowd-grid pool entry 0 of seed 0 (64
  agents, 160 actions), whose matrix is twice ring-uniform's;
* ``threshold_greedy``: one greedy, timed as a batch of ten at the fixed
  gammas k/10 of the trivial bound, k = 1..10, and reported per greedy;
* ``threshold_greedy_ring``: the same on the ring-uniform scenario, whose
  probes build the per-base lanes that the paper scenario's mostly skip;
* ``saturate_robust``: one bisection solve;
* ``ratio_greedy_baseline``: one run of the ratio baseline;
* ``ratio_full_rank``: one run of the ratio baseline at full rank,
  ``UniformMatroid(M, M)`` with N = 10 agents and M = 2,500 actions drawn
  uniformly from [0, 100) squared (``numpy.random.default_rng(BASE_SEED)``),
  which runs until all M are selected: the cost that grows quadratically
  in M;
* ``simple_greedy``: one run of the worst-agent greedy baseline;
* ``bench_cell``: one benchmark cell, ``fast`` and ``ratio`` on a freshly
  generated scenario;
* ``bench_full``: the full benchmark, ``BenchConfig()`` with ``fast`` and
  ``ratio``: 10 capacities x 100 trials x 2 algorithms = 2000 runs;
* ``draw``: one paper-sweep draw, ``generate_scenario`` with its quadrant
  ``PartitionMatroid``, as perfbench's paper-quadrant set-up makes each pool
  entry, timed as a batch of DRAW_BATCH trials' draws (capacities cycling
  1..10) and reported per draw; it charges nothing.

The greedy, solver and baseline layers run on the paper sweep's scenario at
capacity 5 of trial 0, and the two ring layers on perfbench's ring-uniform
pool entry 0 of seed 0 (16 agents, 300 actions, any 3); each distance
matrix is built before any layer is timed.
A block of perfbench's reference kernel (``perfbench/speed.py``) runs
before each layer's first repeat and after every repeat, and each layer
also records ``scaled_ms``: the minimum over its repeats of the wall time
times ``speed.scales`` of the blocks around that repeat, its time on a host
where the kernel takes ``speed.REFERENCE_KERNEL_MS``. A shared host's speed
moves by up to about 1.8x within seconds, and a raw minimum follows those
phases. Each record also holds the environment (commit, Python, numpy, CPU)
and the mean kernel time around the whole run. ``--quick`` takes fewer
repeats and runs the full benchmark with 2 trials per capacity (40 runs);
it checks that the script works and says little about speed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from speed import kernel_ms, scales  # noqa: E402
from workloads import crowd_grid, ring_uniform  # noqa: E402

from robust_select import (  # noqa: E402
    BenchConfig,
    EvaluationCounter,
    Scenario,
    SurrogateOracle,
    UniformMatroid,
    generate_scenario,
    min_objective,
    ratio_greedy_baseline,
    run_benchmark,
    saturate_robust,
    simple_greedy,
    threshold_greedy,
    trial_seed,
)

CAPACITY = 5
BASE_SEED = 0
# The full-rank ratio layer's shape: about 30 ms a run.
FULL_RANK_AGENTS, FULL_RANK_ACTIONS = 10, 2_500
# Runs each layer's time is the minimum of (the full benchmark takes half).
REPEATS = 7
# Lanes built back to back per repeat: one takes about ten microseconds.
LANES_BATCH = 100
# Greedies timed back to back per repeat, one per gamma k/10 of the trivial
# bound: one takes about 0.1 ms, too short to time alone between kernel
# blocks on a host whose speed moves.
GREEDY_BATCH = 10
# Paper-sweep draws timed back to back per repeat: one takes about 40 us.
DRAW_BATCH = 200
# Runs per repeat of the other short layers, so that a repeat lasts about
# 1 ms or more: one scenario takes about 0.3-0.5 ms, one solve 0.6, one ratio
# run 0.2, one worst-agent greedy 0.08 and one benchmark cell 1.1.
SCENARIO_BATCH, SOLVE_BATCH, RATIO_BATCH, SIMPLE_BATCH, CELL_BATCH = 4, 2, 8, 16, 2
# Reference kernels per speed block (one takes about 3-5 ms).
KERNEL_REPS = 2


def min_time_ms(run, repeats: int) -> tuple[float, float, float]:
    """The least wall time of ``repeats`` calls of ``run``, in ms, the least
    of those times scaled by the kernel blocks run just before and just
    after each call, and the evaluations ``run`` returns for one call (the
    same on every call)."""
    walls, blocks, evaluations = [], [kernel_ms(KERNEL_REPS)], None
    for _ in range(repeats):
        started = perf_counter()
        evaluations = run()
        walls.append((perf_counter() - started) * 1000.0)
        blocks.append(kernel_ms(KERNEL_REPS))
    return min(walls), min(w * f for w, f in zip(walls, scales(blocks))), evaluations


def layers(repeats: int, full_trials: int) -> list[dict]:
    config = BenchConfig(base_seed=BASE_SEED)
    seed = trial_seed(BASE_SEED, 0)
    scenario = generate_scenario(config, CAPACITY, seed)
    params = config.solver_params()
    upper = min_objective(scenario, range(scenario.n_actions))
    gamma = 0.5 * upper
    gammas = [upper * k / GREEDY_BATCH for k in range(1, GREEDY_BATCH + 1)]
    instance = {"base_seed": BASE_SEED, "trial": 0, "z": CAPACITY, "scenario_seed": seed}
    ring = ring_uniform(BASE_SEED, 0)
    ring_upper = min_objective(ring, range(ring.n_actions))
    ring_gammas = [ring_upper * k / GREEDY_BATCH for k in range(1, GREEDY_BATCH + 1)]
    ring_coords = ring.agents.tolist(), ring.actions.tolist()
    ring_instance = {"workload": "ring-uniform", "seed": BASE_SEED, "index": 0}
    crowd = crowd_grid(BASE_SEED, 0)
    crowd_coords = crowd.agents.tolist(), crowd.actions.tolist()
    draw = np.random.default_rng(BASE_SEED)
    full_rank = Scenario.from_coords(
        draw.uniform(0.0, 100.0, (FULL_RANK_AGENTS, 2)),
        draw.uniform(0.0, 100.0, (FULL_RANK_ACTIONS, 2)),
        UniformMatroid(FULL_RANK_ACTIONS, FULL_RANK_ACTIONS),
    )
    full_rank.distances

    oracle = SurrogateOracle(scenario, gamma)
    empty_lanes, empty_reduced = oracle.lanes()
    element = int(empty_reduced.argmin())
    values, value = empty_lanes[:, element], float(empty_reduced[element])
    if oracle.lanes(values, value) is None:
        raise RuntimeError(f"the lanes layer's base {{{element}}} is saturated at gamma {gamma!r}")

    def lanes() -> float:
        before = oracle.counter.individual_evals
        for _ in range(LANES_BATCH):
            oracle.lanes(values, value)[1] - value
        return (oracle.counter.individual_evals - before) / scenario.n_agents / LANES_BATCH

    def build(coords, matroid):
        def run() -> float:
            Scenario.from_coords(*coords, matroid).distances
            return 0.0
        return run

    def greedies(on: Scenario, probes: list[float]):
        def run() -> float:
            counter = EvaluationCounter()
            for probe in probes:
                threshold_greedy(SurrogateOracle(on, probe, counter), on.matroid, params.delta)
            return counter.f_equivalent(on.n_agents) / GREEDY_BATCH
        return run

    def solve() -> float:
        return saturate_robust(scenario, params).f_evaluations

    def ratio(on: Scenario):
        def run() -> float:
            return ratio_greedy_baseline(on).f_evaluations
        return run

    def greedy_baseline() -> float:
        return simple_greedy(scenario).f_evaluations

    def batched(run, batch: int):
        """``run`` called ``batch`` times: the evaluations of one call."""
        def runs() -> float:
            for _ in range(batch):
                evaluations = run()
            return evaluations
        return runs

    def cell() -> float:
        cell_config = BenchConfig(z_min=CAPACITY, z_max=CAPACITY, trials=1, base_seed=BASE_SEED)
        return sum(r.evaluations for r in run_benchmark(cell_config, ("fast", "ratio")))

    def full() -> float:
        return sum(r.evaluations for r in run_benchmark(BenchConfig(trials=full_trials), ("fast", "ratio")))

    def draws() -> float:
        for trial in range(DRAW_BATCH):
            generate_scenario(config, 1 + trial % 10, trial_seed(BASE_SEED, trial))
        return 0.0

    rows = []
    for name, run, k, batch, seeds in (
        ("lanes", lanes, repeats, LANES_BATCH, {**instance, "gamma": gamma, "base": [element]}),
        ("scenario", batched(build(ring_coords, ring.matroid), SCENARIO_BATCH), repeats, SCENARIO_BATCH,
         ring_instance),
        ("scenario_crowd", batched(build(crowd_coords, crowd.matroid), SCENARIO_BATCH), repeats, SCENARIO_BATCH,
         {"workload": "crowd-grid", "seed": BASE_SEED, "index": 0}),
        ("threshold_greedy", greedies(scenario, gammas), repeats, GREEDY_BATCH, {**instance, "gammas": gammas}),
        ("threshold_greedy_ring", greedies(ring, ring_gammas), repeats, GREEDY_BATCH,
         {**ring_instance, "gammas": ring_gammas}),
        ("saturate_robust", batched(solve, SOLVE_BATCH), repeats, SOLVE_BATCH, instance),
        ("ratio_greedy_baseline", batched(ratio(scenario), RATIO_BATCH), repeats, RATIO_BATCH, instance),
        ("ratio_full_rank", ratio(full_rank), repeats, 1,
         {"seed": BASE_SEED, "agents": FULL_RANK_AGENTS, "actions": FULL_RANK_ACTIONS, "rank": FULL_RANK_ACTIONS}),
        ("simple_greedy", batched(greedy_baseline, SIMPLE_BATCH), repeats, SIMPLE_BATCH, instance),
        ("bench_cell", batched(cell, CELL_BATCH), repeats, CELL_BATCH, instance),
        ("bench_full", full, max(1, repeats // 2), 1, {"base_seed": BASE_SEED, "trials": full_trials}),
        ("draw", draws, repeats, DRAW_BATCH, {"base_seed": BASE_SEED, "trials": DRAW_BATCH}),
    ):
        wall_ms, scaled_ms, evaluations = min_time_ms(run, k)
        wall_ms, scaled_ms = wall_ms / batch, scaled_ms / batch
        rows.append({
            "layer": name, "wall_ms": wall_ms, "scaled_ms": scaled_ms, "repeats": k, "batch": batch,
            "evaluations": evaluations, "seeds": seeds,
        })
    return rows


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json file to append the record to")
    parser.add_argument("--label", default="", help="what the record measures, e.g. 'parent' or 'change'")
    parser.add_argument("--quick", action="store_true", help="2 repeats and a 40-run full benchmark")
    args = parser.parse_args(argv)
    repeats, full_trials = (2, 2) if args.quick else (REPEATS, BenchConfig().trials)
    kernel = [kernel_ms(3)]
    rows = layers(repeats, full_trials)
    kernel.append(kernel_ms(3))
    record = {
        "label": args.label,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "quick": args.quick,
        "environment": environment(),
        "kernel_ms": sum(kernel) / len(kernel),
        "layers": rows,
    }
    document = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"records": []}
    document["records"].append(record)
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for row in rows:
        print(
            f"{row['layer']:>21}  {row['wall_ms']:10.4f} ms  {row['scaled_ms']:10.4f} scaled ms  "
            f"{row['evaluations']:12.1f} evaluations"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
