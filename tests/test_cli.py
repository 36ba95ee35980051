"""CLI contract: subcommands, exit codes, and output formats."""

import dataclasses
import functools
import json
import math
from pathlib import Path

import pytest

from robust_select import checks, load_scenario, save_scenario
from robust_select.cli import main
from robust_select.solvers import BRUTE_FORCE_CAP, SOLVERS, SolverParams

TINY = {
    "agents": [[0.0, 0.0], [10.0, 0.0]],
    "actions": [[0.0, 0.0], [10.0, 0.0], [5.0, 5.0]],
    "matroid": {"type": "uniform", "rank": 1},
}


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_fast(tiny_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--config", tiny_path, "--algorithm", "fast")
    assert code == 0
    document = json.loads(out)
    assert document["selected"] == [2]
    assert document["algorithm"] == "fast"
    assert document["min_value"] == pytest.approx(7.0711, abs=1e-3)


def test_solve_brute_agrees_with_fast(tiny_path, capsys):
    code, fast_out, _ = run_cli(capsys, "solve", "--config", tiny_path, "--algorithm", "fast")
    assert code == 0
    code, brute_out, _ = run_cli(capsys, "solve", "--config", tiny_path, "--algorithm", "brute")
    assert code == 0
    assert json.loads(fast_out)["selected"] == json.loads(brute_out)["selected"]


def test_solve_output_file(tiny_path, tmp_path, capsys):
    out_path = tmp_path / "solution.json"
    code, out, _ = run_cli(
        capsys, "solve", "--config", tiny_path, "--algorithm", "ratio", "--output", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["selected"] == [2]


def test_solve_unset_flags_keep_the_solver_defaults(tiny_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--config", tiny_path, "--algorithm", "fast")
    assert code == 0
    params = json.loads(out)["params"]
    assert (params["delta"], params["curvature"]) == (SolverParams.delta, 1.0)
    code, out, _ = run_cli(capsys, "solve", "--config", tiny_path, "--algorithm", "fast", "--delta", "0.05")
    assert code == 0
    params = json.loads(out)["params"]
    assert (params["delta"], params["curvature"]) == (0.05, 1.0)


@pytest.mark.parametrize("command", [("solve", "--algorithm", "fast"), ("bench",)])
def test_curvature_is_not_a_flag(tiny_path, tmp_path, capsys, command):
    """The surrogate's curvature is 1 whenever actions outnumber agents, so
    the solver holds it constant: the flag is a usage error, and so is the
    field in a bench config file."""
    with pytest.raises(SystemExit) as exited:
        main([*command, "--config", tiny_path, "--curvature", "0.5"])
    assert exited.value.code == 2
    assert "--curvature" in capsys.readouterr().err
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"curvature": 1.0}))
    code, _, err = run_cli(capsys, "bench", "--config", str(config))
    assert code == 2 and "unknown field 'curvature'" in err


def test_keyboard_interrupt_is_not_an_internal_error(tiny_path, capsys, monkeypatch):
    def interrupted(scenario, params):
        raise KeyboardInterrupt

    monkeypatch.setitem(SOLVERS, "fast", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["solve", "--config", tiny_path, "--algorithm", "fast"])
    assert "internal error" not in capsys.readouterr().err


def test_solve_refuses_delta_that_would_hang(tiny_path, capsys):
    """1 + 1e-17 rounds to 1, so the threshold would never fall."""
    code, out, err = run_cli(capsys, "solve", "--config", tiny_path, "--algorithm", "fast", "--delta", "1e-17")
    assert code == 2
    assert out == ""
    assert "THRESHOLD_STEPS_CAP" in err


def test_solve_epsilon_below_float_resolution_returns(tmp_path, capsys, deadline):
    """The bisection stops once a probe leaves the bracket unchanged."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "agents": [[2.8319671145462966, 12.428327649956394], [67.06244146936304, 64.71895115742501]],
        "actions": [[61.53851114812539, 38.367755426188346], [99.7209935789211, 98.08353387762301],
                    [68.55419844806947, 65.04592762678163]],
        "matroid": {"type": "partition", "blocks": [[2], [0], [1]], "capacity": 1},
    }))
    code, out, _ = run_cli(capsys, "solve", "--config", str(path), "--algorithm", "fast", "--epsilon", "1e-300")
    assert code == 0
    assert json.loads(out)["selected"] == [1]


def test_solve_refuses_a_scenario_past_the_pair_cap(tiny_path, capsys, monkeypatch):
    monkeypatch.setattr("robust_select.scenario.DISTANCE_PAIRS_CAP", 5)
    for algorithm in ("fast", "greedy", "ratio"):
        code, out, err = run_cli(capsys, "solve", "--config", tiny_path, "--algorithm", algorithm)
        assert code == 2 and out == ""
        assert "DISTANCE_PAIRS_CAP = 5" in err


@pytest.mark.parametrize(
    "agents, actions",
    [
        ([[-1e308, 0.0]], [[1e308, 0.0], [0.0, 0.0]]),
        ([[0.0, 0.0]], [[1.7e308, 0.0], [1e308, 0.0]]),
        ([[0.0, 0.0], [0.0, 0.0]], [[1.2e308, 0.0], [1e308, 0.0]]),
    ],
)
def test_solve_refuses_distances_that_overflow(tmp_path, capsys, agents, actions):
    """An infinite distance, a bisection midpoint sum past the largest
    double, and two agents' surrogate sum past it: each is a usage error
    that names the limit, for every solver."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"agents": agents, "actions": actions, "matroid": {"type": "uniform", "rank": 1}}))
    for algorithm in ("fast", "greedy", "ratio", "brute"):
        code, out, err = run_cli(capsys, "solve", "--config", str(path), "--algorithm", algorithm)
        assert code == 2 and out == ""
        assert "distance scale limit" in err


@pytest.mark.parametrize(
    "field, document",
    [
        ("'agents'", {**TINY, "agents": [[10**400, 0.0]]}),
        ("'actions'", {**TINY, "actions": [[0.0, 0.0], [10.0, -(10**400)], [5.0, 5.0]]}),
        ("matroid.capacity", {**TINY, "matroid": {"type": "partition", "blocks": [[0, 1, 2]], "capacity": 10**29}}),
    ],
)
def test_solve_refuses_an_integer_past_its_machine_type(tmp_path, capsys, field, document):
    """A coordinate no double can hold and a capacity past np.intp are
    usage errors that name their field, not internal errors."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "solve", "--config", str(path), "--algorithm", "fast")
    assert code == 2 and out == ""
    assert field in err


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--config", "does-not-exist.json", "--algorithm", "fast")
    assert code == 2
    assert "error" in err


def test_solve_malformed_config_names_field(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"agents": [[0, 0]], "matroid": {"type": "uniform", "rank": 1}}')
    code, _, err = run_cli(capsys, "solve", "--config", str(path), "--algorithm", "fast")
    assert code == 2
    assert "'actions'" in err


def test_solve_bad_params(tiny_path, capsys):
    """A delta outside (0, 1] is a usage error: above 1 the greedy's floor
    would lie above its first threshold, so it would select nothing."""
    for delta in ("-1", "1.5"):
        code, out, err = run_cli(capsys, "solve", "--config", tiny_path, "--algorithm", "fast", "--delta", delta)
        assert code == 2 and out == ""
        assert "delta must lie in (0, 1]" in err


def test_bench_writes_both_csvs(tmp_path, capsys):
    out = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    code, stdout, _ = run_cli(
        capsys,
        "bench",
        "--agents", "2", "--actions", "8", "--z-min", "1", "--z-max", "2",
        "--trials", "2", "--seed", "5",
        "--algorithms", "fast,ratio",
        "--out", str(out), "--summary", str(summary),
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 2
    summary_lines = summary.read_text().splitlines()
    assert len(summary_lines) == 1 + 2 * 2  # (z values) x (algorithms)
    # the stdout table mirrors the summary file
    assert stdout.splitlines()[0] == summary_lines[0]
    assert stdout.splitlines()[1:] == summary_lines[1:]


def test_bench_stdout_is_the_summary_file(tmp_path, capsys):
    """The stdout table and the ``--summary`` file are the same bytes."""
    summary = tmp_path / "summary.csv"
    code, stdout, _ = run_cli(
        capsys,
        "bench",
        "--agents", "3", "--actions", "9", "--z-min", "0", "--z-max", "2",
        "--trials", "3", "--seed", "11",
        "--algorithms", "fast,greedy,ratio",
        "--summary", str(summary),
    )
    assert code == 0
    assert stdout.encode("utf-8") == summary.read_bytes()


def test_bench_deterministic_files(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            "bench",
            "--agents", "2", "--actions", "6", "--z-min", "1", "--z-max", "1",
            "--trials", "3", "--seed", "9", "--no-wall-time",
            "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("agents", [5, 16, pytest.param(None, id="paper-sweep")])
def test_bench_matches_golden_csvs(agents, tmp_path, capsys):
    """Solver speed-ups must keep every selection and evaluation count: the
    no-wall-time CSVs stay byte-identical to the committed ones. Sixteen
    agents is past the size where numpy switches a single column's sum to
    pairwise order. The paper sweep is ``bench`` with no other flag (z 1-10,
    100 trials, fast and ratio): its summary pins all 1,000 scenarios behind
    the README's sweep table, and its raw CSV is not kept."""
    raw, summary = tmp_path / "raw.csv", tmp_path / "summary.csv"
    small = ("--agents", str(agents), "--z-min", "1", "--z-max", "3", "--trials", "5",
             "--algorithms", "fast,greedy,ratio")
    code, _, _ = run_cli(
        capsys,
        "bench",
        *(small if agents else ()), "--no-wall-time",
        "--out", str(raw), "--summary", str(summary),
    )
    assert code == 0
    name = f"bench_agents{agents}" if agents else "bench_default"
    if agents:
        assert raw.read_bytes() == (GOLDEN / f"{name}_raw.csv").read_bytes()
    assert summary.read_bytes() == (GOLDEN / f"{name}_summary.csv").read_bytes()


def test_solve_matches_the_ring_golden(tmp_path, capsys):
    """A 16-agent, 300-action ring read from JSON solves, with the fast
    solver and both baselines, to each golden's selection, value,
    evaluations and params (the wall time dropped), and saving the loaded
    scenario writes the file's bytes again."""
    path = GOLDEN / "ring16_scenario.json"
    for algorithm in ("fast", "greedy", "ratio"):
        code, out, _ = run_cli(capsys, "solve", "--config", str(path), "--algorithm", algorithm)
        assert code == 0
        document = json.loads(out)
        del document["wall_time_ms"]
        assert document == json.loads((GOLDEN / f"ring16_{algorithm}_solution.json").read_text())
    saved = tmp_path / "saved.json"
    save_scenario(load_scenario(str(path)), str(saved))
    assert saved.read_bytes() == path.read_bytes()


def test_bench_config_file_with_overrides(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text('{"n_agents": 2, "n_actions": 6, "trials": 2, "z_min": 1, "z_max": 1}')
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--config", str(config), "--trials", "1", "--algorithms", "greedy",
        "--out", str(out), "--no-wall-time",
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def test_bench_flags_override_the_config_fields_they_name(tmp_path, capsys, monkeypatch):
    """The flags whose names differ from their BenchConfig fields override
    those fields of a config file, and leave them as the file set them when
    absent."""
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(
        {"n_agents": 2, "n_actions": 6, "base_seed": 4, "measure_wall_time": True, "trials": 1, "z_max": 1}
    ))
    seen = []

    def record(config, algorithms):
        seen.append(config)
        return []

    monkeypatch.setattr("robust_select.cli.run_benchmark", record)
    monkeypatch.setattr("robust_select.cli.aggregate", lambda results: [])
    flags = ("--agents", "3", "--actions", "5", "--seed", "9", "--no-wall-time")
    for argv in ((), flags):
        code, _, _ = run_cli(capsys, "bench", "--config", str(path), *argv)
        assert code == 0
    fields = [(c.n_agents, c.n_actions, c.base_seed, c.measure_wall_time, c.trials) for c in seen]
    assert fields == [(2, 6, 4, True, 1), (3, 5, 9, False, 1)]


def test_bench_refuses_a_capacity_past_intp(capsys):
    code, out, err = run_cli(capsys, "bench", "--z-min", str(10**29), "--z-max", str(10**29), "--trials", "1")
    assert code == 2 and out == ""
    assert "matroid.capacity" in err


def test_bench_unknown_algorithm(capsys):
    code, _, err = run_cli(capsys, "bench", "--algorithms", "fast,warp", "--trials", "1")
    assert code == 2
    assert "unknown algorithm" in err


def test_bench_brute_refused_past_cap(capsys):
    # brute is a registered benchmark algorithm, but the default 50 actions
    # exceed its enumeration cap.
    code, _, err = run_cli(capsys, "bench", "--algorithms", "brute", "--trials", "1", "--z-max", "1")
    assert code == 2
    assert f"<= {BRUTE_FORCE_CAP} actions" in err


def test_bench_brute_runs_under_cap(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--agents", "2", "--actions", "6", "--z-min", "1", "--z-max", "1",
        "--trials", "2", "--algorithms", "brute,fast", "--out", str(out), "--no-wall-time",
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 5


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", "3"), ("n_agents", True), ("z_max", 2.0), ("region", "100"), ("epsilon", [1]),
        ("measure_wall_time", 0),
        # Integers that no double can hold.
        *(pytest.param(field, 10**400, id=f"{field}-huge") for field in ("region", "epsilon", "delta")),
    ],
)
def test_bench_mistyped_config_is_a_config_error(tmp_path, capsys, field, value):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({field: value}))
    code, _, err = run_cli(capsys, "bench", "--config", str(config))
    assert code == 2
    assert field in err
    assert "internal error" not in err


def test_bench_unwritable_output(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "bench",
        "--agents", "2", "--actions", "4", "--z-min", "1", "--z-max", "1", "--trials", "1",
        "--out", str(tmp_path / "nope" / "r.csv"),
    )
    assert code == 2
    assert "error" in err


def test_check_passes_on_small_battery(capsys):
    code, out, _ = run_cli(capsys, "check", "--instances", "25", "--seed", "0")
    assert code == 0
    assert out == (GOLDEN / "check_seed0_25.txt").read_text()


def test_check_sees_a_stale_min_value(capsys, monkeypatch):
    """A baseline whose min_value is one ulp above the worst agent's value of
    its selection fails the solver family."""
    greedy = checks.simple_greedy

    def stale(scenario):
        solution = greedy(scenario)
        return dataclasses.replace(solution, min_value=math.nextafter(solution.min_value, math.inf))

    monkeypatch.setattr(checks, "simple_greedy", stale)
    code, out, _ = run_cli(capsys, "check", "--instances", "3", "--seed", "0")
    assert code == 1
    assert "FAIL solver_feasibility_determinism checked=15 greedy min_value is stale" in out.splitlines()


def test_check_rejects_oversized_cap(capsys):
    code, _, err = run_cli(capsys, "check", "--max-actions", "20")
    assert code == 2
    assert "max-actions" in err


def test_check_forwards_only_the_flags_given(capsys, monkeypatch):
    """A flag left out keeps run_battery's own default, so the CLI holds no
    second copy of it."""
    seen = []

    @functools.wraps(checks.run_battery)
    def record(**kwargs):
        seen.append(kwargs)
        return []

    monkeypatch.setattr("robust_select.cli.run_battery", record)
    for argv in ((), ("--instances", "3", "--max-actions", "4", "--seed", "9")):
        assert run_cli(capsys, "check", *argv)[0] == 0
    assert seen == [
        {"inject_defect": False},
        {"instances": 3, "max_actions": 4, "seed": 9, "inject_defect": False},
    ]


def test_check_injected_defect_fails_with_counterexample(capsys):
    code, out, _ = run_cli(capsys, "check", "--instances", "2", "--inject-defect")
    assert code == 1
    lines = out.splitlines()
    fail_lines = [i for i, line in enumerate(lines) if line.startswith("FAIL matroid_axioms")]
    assert len(fail_lines) == 1
    # the next line is a replayable scenario document
    counterexample = json.loads(lines[fail_lines[0] + 1])
    assert {"agents", "actions", "matroid"} <= set(counterexample)
