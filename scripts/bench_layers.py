#!/usr/bin/env python3
"""Layered timing record of the solver, appended to a BENCH_<n>.json file.

    python3 scripts/bench_layers.py --out BENCH_11.json [--label TEXT] [--quick]

Five layers, each timed as the minimum over REPEATS repeats on fixed seeds,
with the evaluations one run charges (in f-equivalents, as
``Solution.f_evaluations`` counts them). A repeat of a batched layer runs it
a batch of times, and its time and evaluations are divided by the batch:

* ``scan``: one ``SurrogateOracle.charge_scan`` of one candidate on a warm
  handle, the one charging call (the gains are read from the handle itself);
* ``threshold_greedy``: one greedy, timed as a batch of ten at the fixed
  gammas k/10 of the trivial bound, k = 1..10, and reported per greedy;
* ``saturate_robust``: one bisection solve (the distance matrix is built);
* ``bench_cell``: one benchmark cell, ``fast`` and ``ratio`` on a freshly
  generated scenario;
* ``bench_full``: the full benchmark, ``BenchConfig()`` with ``fast`` and
  ``ratio``: 10 capacities x 100 trials x 2 algorithms = 2000 runs.

The first three run on the paper sweep's scenario at capacity 5 of trial 0.
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

from robust_select import (  # noqa: E402
    BenchConfig,
    EvaluationCounter,
    SurrogateOracle,
    generate_scenario,
    min_objective,
    run_benchmark,
    saturate_robust,
    threshold_greedy,
    trial_seed,
)

CAPACITY = 5
BASE_SEED = 0
# Runs each layer's time is the minimum of (the full benchmark takes half).
REPEATS = 7
# Scans timed back to back per repeat: one takes about a microsecond.
SCAN_BATCH = 1000
# Greedies timed back to back per repeat, one per gamma k/10 of the trivial
# bound: one takes about 0.1 ms, too short to time alone between kernel
# blocks on a host whose speed moves.
GREEDY_BATCH = 10
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

    oracle = SurrogateOracle(scenario, gamma)
    handle = oracle.base(())
    gains = oracle.feasible(handle, np.ones(scenario.n_actions, dtype=bool))[1]  # builds the lanes
    oracle.charge_scan(handle, gains.size)  # charges the cold base

    def scan() -> float:
        before = oracle.counter.individual_evals
        for _ in range(SCAN_BATCH):
            oracle.charge_scan(handle, 1)
        return (oracle.counter.individual_evals - before) / scenario.n_agents / SCAN_BATCH

    def greedy() -> float:
        counter = EvaluationCounter()
        for probe in gammas:
            threshold_greedy(SurrogateOracle(scenario, probe, counter), scenario.matroid, params.delta)
        return counter.f_equivalent(scenario.n_agents) / GREEDY_BATCH

    def solve() -> float:
        return saturate_robust(scenario, params).f_evaluations

    def cell() -> float:
        cell_config = BenchConfig(z_min=CAPACITY, z_max=CAPACITY, trials=1, base_seed=BASE_SEED)
        return sum(r.evaluations for r in run_benchmark(cell_config, ("fast", "ratio")))

    def full() -> float:
        return sum(r.evaluations for r in run_benchmark(BenchConfig(trials=full_trials), ("fast", "ratio")))

    rows = []
    for name, run, k, batch, seeds in (
        ("scan", scan, repeats, SCAN_BATCH, {**instance, "gamma": gamma}),
        ("threshold_greedy", greedy, repeats, GREEDY_BATCH, {**instance, "gammas": gammas}),
        ("saturate_robust", solve, repeats, 1, instance),
        ("bench_cell", cell, repeats, 1, instance),
        ("bench_full", full, max(1, repeats // 2), 1, {"base_seed": BASE_SEED, "trials": full_trials}),
    ):
        wall_ms, scaled_ms, evaluations = min_time_ms(run, k)
        wall_ms, scaled_ms = wall_ms / batch, scaled_ms / batch
        rows.append({
            "layer": name, "wall_ms": wall_ms, "scaled_ms": scaled_ms, "repeats": k,
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
            f"{row['layer']:>16}  {row['wall_ms']:10.4f} ms  {row['scaled_ms']:10.4f} scaled ms  "
            f"{row['evaluations']:12.1f} evaluations"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
