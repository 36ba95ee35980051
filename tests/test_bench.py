"""Benchmark harness: scenario generation, paired trials, aggregation, and
CSV round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robust_select import (
    BenchConfig,
    PartitionMatroid,
    SOLVERS,
    SummaryRow,
    TrialResult,
    aggregate,
    generate_scenario,
    read_results_csv,
    run_benchmark,
    trial_seed,
    write_results_csv,
    write_summary_csv,
)
from robust_select.bench import quadrant_blocks


def small_config(**overrides):
    base = dict(n_agents=2, n_actions=8, z_min=1, z_max=2, trials=3, base_seed=7)
    base.update(overrides)
    return BenchConfig(**base)


def test_generate_scenario_structure():
    config = BenchConfig()
    scenario = generate_scenario(config, z=3, seed=trial_seed(config.base_seed, 0))
    assert scenario.n_agents == 5
    assert scenario.n_actions == 50
    matroid = scenario.matroid
    assert isinstance(matroid, PartitionMatroid)
    assert len(matroid.blocks) == 4
    assert sum(len(b) for b in matroid.blocks) == 50
    assert matroid.capacities == (3, 3, 3, 3)
    for x, y in np.concatenate((scenario.agents, scenario.actions)).tolist():
        assert 0.0 <= x < 100.0 and 0.0 <= y < 100.0


def test_generate_scenario_quadrants():
    """Each action lies in its quadrant's block; points on the mid lines
    belong to the right/upper half, in a draw and in points built by hand."""
    config = BenchConfig()
    drawn = generate_scenario(config, z=1, seed=123)
    half = config.region / 2.0
    on_mid_lines = np.array([[50.0, 10.0], [10.0, 50.0], [50.0, 50.0], [49.99, 49.99], [10.0, 10.0]])
    assert quadrant_blocks(on_mid_lines, half) == ((3, 4), (0,), (1,), (2,))
    below = math.nextafter(0.375, 0.0)
    small = np.array([[0.375, below], [below, 0.375], [0.375, 0.375], [below, below], [0.0, 0.75]])
    assert quadrant_blocks(small, 0.375) == ((3,), (0,), (1, 4), (2,))
    cases = [(drawn.actions, drawn.matroid.blocks, half)]
    cases += [(on_mid_lines, quadrant_blocks(on_mid_lines, half), half), (small, quadrant_blocks(small, 0.375), 0.375)]
    for actions, blocks, mid in cases:
        for b, block in enumerate(blocks):
            for j in block:
                x, y = actions[j].tolist()
                assert (x >= mid) == bool(b & 1)
                assert (y >= mid) == bool(b & 2)


def two_draw_reference(config, seed):
    """The draw ``generate_scenario`` made before it took one draw and one
    argsort: agents and actions in two ``uniform`` calls, and one
    ``np.flatnonzero`` scan per quadrant."""
    rng = np.random.default_rng(seed)
    agents = rng.uniform(0.0, config.region, size=(config.n_agents, 2))
    actions = rng.uniform(0.0, config.region, size=(config.n_actions, 2))
    half = config.region / 2.0
    quadrant = (actions[:, 0] >= half) + 2 * (actions[:, 1] >= half)
    blocks = tuple(tuple(np.flatnonzero(quadrant == b).tolist()) for b in range(4))
    return agents, actions, blocks


@pytest.mark.parametrize(
    "config",
    [
        BenchConfig(),
        BenchConfig(n_actions=0),
        BenchConfig(n_agents=1, n_actions=1),
        BenchConfig(n_agents=3, n_actions=80, region=7.5),
        BenchConfig(n_agents=2, n_actions=200, region=1e6),
    ],
    ids=["paper", "no-actions", "one-each", "region-7.5", "region-1e6"],
)
def test_generate_scenario_matches_the_two_draw_reference(config):
    """Over 500 trial seeds, the one-draw scenario has the reference's
    coordinate bits, blocks, capacities and block of each id."""
    for trial in range(500):
        seed = trial_seed(config.base_seed, trial)
        z = 1 + trial % 10
        agents, actions, blocks = two_draw_reference(config, seed)
        scenario = generate_scenario(config, z, seed)
        assert scenario.agents.tobytes() == agents.tobytes()
        assert scenario.actions.tobytes() == actions.tobytes()
        assert scenario.matroid.blocks == blocks
        assert scenario.matroid.capacities == (z,) * 4
        block_of = [b for j in range(config.n_actions) for b, block in enumerate(blocks) if j in block]
        assert scenario.matroid._block_of.dtype == np.intp
        assert scenario.matroid._block_of.tolist() == block_of


def test_generate_scenario_deterministic():
    config = BenchConfig()
    seed = trial_seed(config.base_seed, 4)
    assert generate_scenario(config, 2, seed) == generate_scenario(config, 2, seed)


def test_generate_scenario_empty():
    config = BenchConfig(n_actions=0)
    scenario = generate_scenario(config, 1, 99)
    assert scenario.n_actions == 0
    assert len(scenario.matroid.blocks) == 4
    assert all(len(b) == 0 for b in scenario.matroid.blocks)


def test_trial_seed_stable_and_distinct():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    seeds = {trial_seed(0, t) for t in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**63 for s in seeds)
    assert trial_seed(1, 0) != trial_seed(0, 0)


def test_run_benchmark_shape_and_order():
    results = run_benchmark(small_config(), ("fast", "ratio"))
    assert len(results) == 2 * 3 * 2  # z values x trials x algorithms
    assert [r.z for r in results] == sorted(r.z for r in results)
    for i in range(0, len(results), 2):
        assert results[i].algorithm == "fast"
        assert results[i + 1].algorithm == "ratio"
        assert results[i].seed == results[i + 1].seed  # paired scenarios


def test_run_benchmark_deterministic():
    config = small_config(measure_wall_time=False)
    assert run_benchmark(config, ("fast", "ratio")) == run_benchmark(config, ("fast", "ratio"))


def test_run_benchmark_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_benchmark(small_config(), ("fast", "simplex"))
    with pytest.raises(ValueError, match="duplicate"):
        run_benchmark(small_config(), ("fast", "fast"))
    with pytest.raises(ValueError, match="no algorithms"):
        run_benchmark(small_config(), ())


def test_run_benchmark_single_cell():
    results = run_benchmark(small_config(trials=1, z_min=1, z_max=1), ("greedy",))
    assert len(results) == 1
    assert results[0].algorithm == "greedy"
    assert results[0].objective >= 0.0


def test_run_benchmark_runs_in_one_process():
    config = small_config(measure_wall_time=False)
    assert run_benchmark(config, ("fast",), workers=1) == run_benchmark(config, ("fast",))
    for workers in (2, 0, True):
        with pytest.raises(ValueError, match="one process"):
            run_benchmark(config, ("fast",), workers=workers)


def test_run_benchmark_draws_each_trial_once(monkeypatch):
    """The capacities of a trial share its points: the sweep draws
    ``trials`` scenarios, not ``trials`` x capacities, and gives the results
    of one sweep per capacity."""
    config = small_config(z_min=1, z_max=4, measure_wall_time=False)
    per_capacity = [
        r for z in range(1, 5) for r in run_benchmark(small_config(z_min=z, z_max=z, measure_wall_time=False))
    ]
    draws, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or default_rng(seed))
    assert run_benchmark(config) == per_capacity
    assert draws == [trial_seed(config.base_seed, trial) for trial in range(config.trials)]


def test_no_solver_times_the_distance_pass(monkeypatch):
    """Each cell builds its scenario's distance matrix before the first
    solver starts its clock: every solver is entered with it cached."""
    entered = []

    def spy(solver):
        def run(scenario, params):
            entered.append("distances" in vars(scenario))
            return solver(scenario, params)
        return run

    for name in ("fast", "ratio"):
        monkeypatch.setitem(SOLVERS, name, spy(SOLVERS[name]))
    run_benchmark(small_config(), ("fast", "ratio"))
    assert entered == [True] * 2 * 2 * 3


def test_aggregate_means():
    rows = aggregate(
        [
            TrialResult(1, 0, "fast", 4.0, 10.0, 1.0, 11),
            TrialResult(1, 1, "fast", 6.0, 30.0, 3.0, 12),
        ]
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.mean_objective == 5.0
    assert row.mean_evaluations == 20.0
    assert row.sd_objective == pytest.approx(math.sqrt(2.0))
    assert row.mean_wall_time_ms == 2.0


def test_aggregate_single_trial():
    row = aggregate([TrialResult(2, 0, "ratio", 7.5, 5.0, 0.5, 3)])[0]
    assert row.mean_objective == 7.5
    assert row.sd_objective == 0.0


def test_aggregate_never_mixes_groups():
    results = [
        TrialResult(1, 0, "fast", 1.0, 1.0, 0.0, 0),
        TrialResult(1, 0, "ratio", 10.0, 10.0, 0.0, 0),
        TrialResult(2, 0, "fast", 100.0, 100.0, 0.0, 0),
    ]
    rows = aggregate(results)
    assert [(r.z, r.algorithm, r.mean_objective) for r in rows] == [
        (1, "fast", 1.0),
        (1, "ratio", 10.0),
        (2, "fast", 100.0),
    ]


def test_aggregate_empty_errors():
    with pytest.raises(ValueError):
        aggregate([])


def test_results_csv_round_trip(tmp_path):
    results = run_benchmark(small_config(), ("fast",))
    path = tmp_path / "results.csv"
    write_results_csv(results, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(results) + 1
    assert lines[0] == "z,trial,algorithm,objective,evaluations,wall_time_ms,seed"
    assert read_results_csv(str(path)) == results


@given(
    st.lists(
        st.tuples(
            st.integers(1, 10),
            st.integers(0, 99),
            st.sampled_from(["fast", "ratio", "greedy"]),
            st.floats(0, 1e6, allow_nan=False),
            st.floats(0, 1e9, allow_nan=False),
            st.floats(0, 1e6, allow_nan=False),
            st.integers(0, 2**63 - 1),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_results_csv_round_trip_exact_floats(tmp_path_factory, rows):
    results = [TrialResult(*row) for row in rows]
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    write_results_csv(results, str(path))
    assert read_results_csv(str(path)) == results


def test_read_results_csv_refuses_a_header_other_than_the_field_names(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("z,trial,algorithm,objective,evaluations,seed,wall_time_ms\n1,0,fast,1.0,2.0,3,0.0\n")
    with pytest.raises(ValueError, match="results.csv"):
        read_results_csv(str(path))


@pytest.mark.parametrize("row", ["1,0,fast,1.0,2.0,0.0", "1,0,fast,1.0,2.0,0.0,3,extra"])
def test_read_results_csv_refuses_a_row_of_the_wrong_length(tmp_path, row):
    path = tmp_path / "results.csv"
    path.write_text(f"z,trial,algorithm,objective,evaluations,wall_time_ms,seed\n1,0,fast,1.0,2.0,0.0,3\n{row}\n")
    with pytest.raises(ValueError, match=r"results\.csv, line 3: \d fields, the header has 7"):
        read_results_csv(str(path))


def test_summary_csv(tmp_path):
    rows = [SummaryRow(1, "fast", 1.5, 0.1, 100.0, 2.0, 3.25)]
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "z,algorithm,mean_objective,sd_objective,mean_evaluations,"
        "sd_evaluations,mean_wall_time_ms"
    )
    assert lines[1] == "1,fast,1.5,0.1,100.0,2.0,3.25"


def test_summary_csv_header_only(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv([], str(path))
    assert path.read_text().splitlines() == [
        "z,algorithm,mean_objective,sd_objective,mean_evaluations,"
        "sd_evaluations,mean_wall_time_ms"
    ]


def test_csv_write_error_names_path(tmp_path):
    with pytest.raises(OSError, match="missing-dir"):
        write_results_csv([], str(tmp_path / "missing-dir" / "x.csv"))


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(n_agents=0)
    with pytest.raises(ValueError):
        BenchConfig(z_min=5, z_max=2)
    with pytest.raises(ValueError):
        BenchConfig(trials=0)
    with pytest.raises(ValueError):
        BenchConfig(delta=-1.0)


def test_bench_config_field_types():
    for field, value in [
        ("trials", "3"), ("base_seed", 1.0), ("n_actions", False), ("delta", "0.1"),
        ("region", True), ("measure_wall_time", 1),
    ]:
        with pytest.raises(ValueError, match=field):
            BenchConfig(**{field: value})
    config = BenchConfig(region=50, delta=1, epsilon=None)
    assert config.solver_params().delta == 1


def test_bench_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"n_agents": 3, "trials": 5, "base_seed": 42}')
    config = BenchConfig.from_json_file(str(path))
    assert config.n_agents == 3
    assert config.trials == 5
    assert config.n_actions == 50  # default survives

    path.write_text('{"bogus": 1}')
    with pytest.raises(ValueError, match="bogus"):
        BenchConfig.from_json_file(str(path))


def test_wall_time_suppression():
    config = small_config(measure_wall_time=False)
    results = run_benchmark(config, ("fast",))
    assert all(r.wall_time_ms == 0.0 for r in results)
    timed = run_benchmark(small_config(), ("fast",))
    assert any(r.wall_time_ms > 0.0 for r in timed)
