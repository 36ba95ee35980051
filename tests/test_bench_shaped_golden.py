"""Golden outputs on benchmark-shaped instances: 64 agents and partitions of
about 60 blocks, which the small-instance golden does not reach.

Two seeded shapes, built here from ``np.random.default_rng``:

* ring: 16 agents on a ring of radius 40 and 300 actions on a ring of
  radius 45 around (50, 50), any 3 of which may be chosen;
* crowd: 64 agents in 8 Gaussian clusters and 160 uniform actions in a
  100 x 100 square, at most one action per non-empty cell of an 8 x 8 grid.

Per instance the file pins ``fast`` at two deltas (selection, hex min value,
evaluation count, hex-encoded params), ``threshold_greedy`` at 0.4 times
and at the upper bound (selection, trace, stats, evaluation count), and the
two baselines, ``simple_greedy`` and ``ratio_greedy_baseline`` (selection,
hex min value, evaluation count). Floats are stored with
``float.hex`` so equality is bit for bit.

A second file pins the three product solvers, ``fast``, ``ratio`` and
``greedy`` of ``SOLVERS`` at their default parameters (selection, hex min
value, evaluation count), on 20 more instances of each shape: enough that
the surrogate's row-by-row agent sum (N >= 9) and the ratio baseline's
rescoring are covered over many draws.

Regenerate both with ``PYTHONPATH=src python tests/test_bench_shaped_golden.py``,
but only from a commit whose outputs are known to be right.
"""

import json
import math
from pathlib import Path

import numpy as np

from robust_select import (
    SOLVERS,
    PartitionMatroid,
    Scenario,
    SolverParams,
    SurrogateOracle,
    UniformMatroid,
    min_objective,
    ratio_greedy_baseline,
    saturate_robust,
    simple_greedy,
    threshold_greedy,
)

GOLDEN = Path(__file__).parent / "data" / "bench_shaped_golden.json"
SOLVERS_GOLDEN = Path(__file__).parent / "data" / "solvers_shaped_golden.json"
SEED = 5
INSTANCES = 8
FAST_DELTAS = (1e-3, 0.05)
GREEDY_GAMMA_FRACTIONS = (0.4, 1.0)
GREEDY_DELTA = 1e-3
# The instances after GOLDEN's, per shape, that SOLVERS_GOLDEN pins.
SOLVER_INDICES = range(INSTANCES, INSTANCES + 20)


def ring_points(rng, count, radius):
    angle = rng.uniform(0.0, 2.0 * math.pi, count)
    r = radius + rng.normal(0.0, 2.0, count)
    return np.column_stack((50.0 + r * np.cos(angle), 50.0 + r * np.sin(angle)))


def ring_scenario(index):
    rng = np.random.default_rng((SEED, 0, index))
    agents = ring_points(rng, 16, 40.0)
    actions = ring_points(rng, 300, 45.0)
    return Scenario.from_coords(agents, actions, UniformMatroid(300, 3))


def crowd_scenario(index):
    rng = np.random.default_rng((SEED, 1, index))
    centres = rng.uniform(10.0, 90.0, size=(8, 2))
    agents = np.repeat(centres, 8, axis=0) + rng.normal(0.0, 3.0, size=(64, 2))
    actions = rng.uniform(0.0, 100.0, size=(160, 2))
    cells = np.minimum((actions // 12.5).astype(int), 7)
    cell_id = cells[:, 0] * 8 + cells[:, 1]
    blocks = tuple(tuple(int(j) for j in np.flatnonzero(cell_id == c)) for c in np.unique(cell_id))
    return Scenario.from_coords(agents, actions, PartitionMatroid(blocks, (1,) * len(blocks)))


def hexed(value):
    return float(value).hex() if isinstance(value, float) else value


def baseline(solution):
    return {
        "selected": list(solution.selected),
        "min_value": solution.min_value.hex(),
        "individual_evals": solution.individual_evals,
    }


def record(shape, index, scenario):
    upper = min_objective(scenario, range(scenario.n_actions))
    fast = {}
    for delta in FAST_DELTAS:
        solution = saturate_robust(scenario, SolverParams(delta=delta))
        fast[repr(delta)] = {
            "selected": list(solution.selected),
            "min_value": solution.min_value.hex(),
            "individual_evals": solution.individual_evals,
            "params": {key: hexed(value) for key, value in solution.params.items()},
        }
    greedy = {}
    for fraction in GREEDY_GAMMA_FRACTIONS:
        oracle = SurrogateOracle(scenario, fraction * upper)
        trace, stats = [], {}
        selected, _ = threshold_greedy(oracle, scenario.matroid, GREEDY_DELTA, trace=trace, stats=stats)
        greedy[repr(fraction)] = {
            "selected": sorted(selected),
            "trace": [[s.threshold.hex(), s.element, s.gain.hex(), sorted(s.base)] for s in trace],
            "stats": {key: hexed(value) for key, value in stats.items()},
            "individual_evals": oracle.counter.individual_evals,
        }
    baselines = {
        "greedy": baseline(simple_greedy(scenario)),
        "ratio": baseline(ratio_greedy_baseline(scenario)),
    }
    return {"shape": shape, "index": index, "fast": fast, "threshold_greedy": greedy, "baselines": baselines}


def records():
    return [
        record(shape, index, make(index))
        for shape, make in (("ring", ring_scenario), ("crowd", crowd_scenario))
        for index in range(INSTANCES)
    ]


def solver_records():
    names = ("fast", "ratio", "greedy")
    return [
        {"shape": shape, "index": index, **{name: baseline(SOLVERS[name](scenario, SolverParams())) for name in names}}
        for shape, make in (("ring", ring_scenario), ("crowd", crowd_scenario))
        for index in SOLVER_INDICES
        for scenario in (make(index),)
    ]


def test_crowd_shape_has_about_sixty_blocks():
    blocks = [len(crowd_scenario(i).matroid.blocks) for i in range(INSTANCES)]
    assert min(blocks) >= 50


def test_bench_shaped_instances_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = records()
    assert len(got) == len(golden) == 2 * INSTANCES
    for expected, actual in zip(golden, got):
        assert actual == expected, (expected["shape"], expected["index"])


def test_solvers_on_more_shaped_instances_match_golden():
    golden = json.loads(SOLVERS_GOLDEN.read_text())
    got = solver_records()
    assert len(got) == len(golden) == 2 * len(SOLVER_INDICES)
    for expected, actual in zip(golden, got):
        assert actual == expected, (expected["shape"], expected["index"])


if __name__ == "__main__":
    for path, rows in ((GOLDEN, records()), (SOLVERS_GOLDEN, solver_records())):
        path.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n")
