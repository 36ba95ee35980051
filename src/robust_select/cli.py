"""Command-line surface: solve one instance, run the Monte Carlo benchmark,
or run the randomized verification battery.

Exit codes: 0 success, 1 invariant or internal failure, 2 usage or
configuration error. Machine-readable output (JSON documents, CSV rows,
check lines) goes to stdout; commentary goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys

from .bench import (
    BenchConfig,
    aggregate,
    run_benchmark,
    write_results_csv,
    write_summary,
    write_summary_csv,
)
from .checks import run_battery
from .scenario import load_scenario, scenario_to_dict
from .solvers import SOLVERS, SolverParams


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-select",
        description="Max-min robust action selection under matroid constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one scenario JSON file")
    solve.add_argument("--config", required=True, help="scenario JSON file")
    solve.add_argument("--algorithm", required=True, choices=tuple(SOLVERS))
    # Each solver flag's dest is the SolverParams field it sets, and its default None keeps that field's default.
    solve.add_argument("--delta", type=float, default=None, help="threshold shrink factor (fast)")
    solve.add_argument("--epsilon", type=float, default=None, help="absolute bisection gap (fast)")
    solve.add_argument("--output", default=None, help="write the solution JSON here instead of stdout")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="run the Monte Carlo benchmark")
    bench.add_argument("--config", default=None, help="BenchConfig JSON file; flags below override it")
    # Each override's dest is the BenchConfig field it sets, and its default None leaves that field as it is.
    bench.add_argument("--agents", dest="n_agents", type=int, default=None)
    bench.add_argument("--actions", dest="n_actions", type=int, default=None)
    bench.add_argument("--region", type=float, default=None)
    bench.add_argument("--z-min", type=int, default=None)
    bench.add_argument("--z-max", type=int, default=None)
    bench.add_argument("--trials", type=int, default=None)
    bench.add_argument("--seed", dest="base_seed", type=int, default=None)
    bench.add_argument("--delta", type=float, default=None)
    bench.add_argument("--epsilon", type=float, default=None)
    bench.add_argument("--algorithms", default="fast,ratio", help=f"comma-separated, from: {','.join(SOLVERS)}")
    bench.add_argument("--out", default=None, help="raw per-trial CSV path")
    bench.add_argument("--summary", default=None, help="per-(z, algorithm) summary CSV path")
    bench.add_argument(
        "--no-wall-time",
        dest="measure_wall_time",
        action="store_false",
        default=None,
        help="report wall_time_ms as 0 for byte-stable output",
    )
    bench.set_defaults(func=cmd_bench)

    check = sub.add_parser("check", help="run the randomized verification battery")
    # Each flag's dest is the run_battery parameter it sets, and its default None keeps that parameter's default.
    check.add_argument("--instances", type=int, default=None)
    check.add_argument("--max-actions", type=int, default=None)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument(
        "--inject-defect",
        action="store_true",
        help="feed the axiom checker a corrupt family to exercise the failure path",
    )
    check.set_defaults(func=cmd_check)
    return parser


def _given(args: argparse.Namespace, target: object) -> dict:
    """The flags named after a parameter of ``target`` (a dataclass or a function) that were given (not None)."""
    names = inspect.signature(target).parameters
    return {name: value for name in names if (value := getattr(args, name, None)) is not None}


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    params = SolverParams(**_given(args, SolverParams))
    solution = SOLVERS[args.algorithm](scenario, params)
    document = json.dumps(solution.to_json_dict())
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
        except OSError as exc:
            raise OSError(f"cannot write solution to {args.output}: {exc}") from exc
    else:
        print(document)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig.from_json_file(args.config) if args.config else BenchConfig()
    config = dataclasses.replace(config, **_given(args, BenchConfig))
    algorithms = tuple(name.strip() for name in args.algorithms.split(",") if name.strip())
    results = run_benchmark(config, algorithms)
    rows = aggregate(results)
    if args.out:
        write_results_csv(results, args.out)
    if args.summary:
        write_summary_csv(rows, args.summary)
    write_summary(rows, sys.stdout)
    print(f"ran {len(results)} trials over {', '.join(algorithms)}", file=sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    outcomes = run_battery(**_given(args, run_battery))
    failed = [o for o in outcomes if not o.passed]
    for outcome in outcomes:
        print(outcome.line())
        if not outcome.passed and outcome.counterexample is not None:
            print(json.dumps(scenario_to_dict(outcome.counterexample)))
    print(
        f"{len(outcomes) - len(failed)}/{len(outcomes)} check families passed",
        file=sys.stderr,
    )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure: report, don't traceback-spam
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
