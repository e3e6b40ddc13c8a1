"""Command-line front end: plan, simulate, reproduce.

Every run prints its resolved configuration, seed included, so any output
can be regenerated byte for byte by re-running the logged command.  Exit
codes: 0 success, 1 failed reproduction, 2 usage errors or an exhausted
search-node budget.  A usage error is any ValueError or OSError a command
raises (an option value out of range, a missing or malformed model file, a
strategy the domain cannot run); it prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .domains import (
    AlwaysCommunicate,
    GridConfig,
    Ideal,
    MyopicGreedy,
    NoCommunication,
    ProductionDomain,
    SubGoals,
    build_meeting,
    build_production,
)
from .lgo import lgo_msbpi, mechanism_csv
from .model_io import parse_model
from .msbpi import DEFAULT_NODE_BUDGET, NodeBudgetExceeded, iteration_csv, msbpi
from .myopic import comm_policy_table, comm_table_csv
from .sim import SimConfig, monte_carlo, results_csv
from .tables import TABLE_IDS, reproduce

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
LGO_NEEDS_PRODUCTION = (
    "lgo plans over candidate local goals, which the production domain and"
    " model files define; use --domain production"
)


def _log_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("config: " + json.dumps(cfg, sort_keys=True, default=str))


def _write_out(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _build_domain(args: argparse.Namespace):
    if args.domain == "production":
        p2 = args.p2 if args.p2 is not None else args.pu
        return build_production(args.pu, p2, comm_cost=args.comm_cost, action_cost=args.action_cost)
    return build_meeting(
        GridConfig(p1=args.pu, p2=args.pu, comm_cost=args.comm_cost, action_cost=args.action_cost)
    )


def _planning_setup(args: argparse.Namespace):
    """Model plus candidate local policies for planners: the production
    domain's quotas, else None (lgo then solves for the model's goals)."""
    if args.model_file:
        m = parse_model(Path(args.model_file).read_text())
        return m, None, None
    d = _build_domain(args)
    if isinstance(d, ProductionDomain):
        return d.model, d.candidates1, d.candidates2
    return d.model, None, None


def cmd_plan(args: argparse.Namespace) -> int:
    _log_config(args)
    if args.algo == "myopic":
        text = comm_table_csv(
            comm_cost=args.comm_cost, p_values=(args.pu,), action_cost=args.action_cost
        )
        _write_out(args, text)
        return EXIT_OK
    m, cand1, cand2 = _planning_setup(args)
    s1, s2 = m.initial_state.s1, m.initial_state.s2
    if args.algo == "lgo":
        if cand1 is None and not args.model_file:
            raise ValueError(LGO_NEEDS_PRODUCTION)
        mech = lgo_msbpi(m, cand1, cand2)
        print(f"value at initial state: {float(mech.value[0, s1, s2])!r}")
        print(f"sweeps: {mech.sweeps}, candidates considered: {mech.candidates_considered}")
        _write_out(args, mechanism_csv(mech))
        return EXIT_OK
    try:
        mech = msbpi(
            m, node_budget=args.node_budget, max_option_length=args.max_option_length
        )
    except NodeBudgetExceeded as exc:
        print(f"error: search-node budget exhausted ({exc})", file=sys.stderr)
        return EXIT_USAGE
    print(f"value at initial state: {float(mech.value[0, s1, s2])!r}")
    print(
        f"iterations: {mech.iterations}, nodes created: {mech.nodes_created},"
        f" largest cell: {mech.max_cell_nodes} of budget {args.node_budget}"
    )
    _write_out(args, iteration_csv(mech))
    return EXIT_OK


def _build_strategy(args: argparse.Namespace, domain):
    name = args.strategy
    if name == "no_comm":
        return NoCommunication()
    if name == "ideal":
        return Ideal()
    if name == "always":
        return AlwaysCommunicate()
    if name == "subgoals":
        return SubGoals(args.subgoal_p)
    if name == "myopic":
        table = comm_policy_table(
            p_u=args.pu, comm_cost=args.comm_cost, action_cost=args.action_cost
        )
        return MyopicGreedy(table)
    if name == "lgo":
        if not isinstance(domain, ProductionDomain):
            raise ValueError(LGO_NEEDS_PRODUCTION)
        return lgo_msbpi(domain.model, domain.candidates1, domain.candidates2)
    raise ValueError(f"unknown strategy {name!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    _log_config(args)
    domain = _build_domain(args)
    strategy = _build_strategy(args, domain)
    result = monte_carlo(
        SimConfig(domain=domain, strategy=strategy, episodes=args.episodes, seed=args.seed)
    )
    print(
        f"mean utility {result.mean_utility:.4f} (se {result.std_error:.4f}), "
        f"mean exchanges {result.mean_comm:.3f}, mean steps {result.mean_steps:.3f}, "
        f"episodes {result.episodes}, capped {result.capped_episodes}"
    )
    if args.out:
        _write_out(
            args,
            results_csv([(args.domain, args.strategy, f"pu={args.pu:g}", result)]),
        )
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    _log_config(args)
    tables = TABLE_IDS if args.table.lower() == "all" else (args.table.upper(),)
    summaries = []
    failed = False
    for tid in tables:
        report = reproduce(tid, episodes=args.episodes, seed=args.seed)
        summaries.append(report.summary())
        failed = failed or not report.passed
    text = "\n\n".join(summaries) + "\n"
    _write_out(args, text)
    return EXIT_FAIL if failed else EXIT_OK


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", choices=("production", "meeting"), default="meeting")
    p.add_argument("--pu", type=float, default=0.8, help="action success probability")
    p.add_argument(
        "--p2", type=float, default=None, help="second machine's success probability"
    )
    p.add_argument("--comm-cost", type=float, default=-0.1)
    p.add_argument("--action-cost", type=float, default=-1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commplan",
        description="Planning and simulation for two-agent models with costly state exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="run a planner and export its mechanism")
    plan.add_argument("--algo", choices=("msbpi", "lgo", "myopic"), required=True)
    _add_model_flags(plan)
    plan.add_argument("--model-file", help="plan on a model loaded from this file")
    plan.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    plan.add_argument("--max-option-length", type=int, default=None)
    plan.add_argument("--out", help="write the mechanism/table CSV here")
    plan.set_defaults(func=cmd_plan)

    sim = sub.add_parser("simulate", help="Monte-Carlo runs of a strategy")
    sim.add_argument(
        "--strategy",
        choices=("no_comm", "ideal", "always", "subgoals", "myopic", "lgo"),
        required=True,
    )
    _add_model_flags(sim)
    sim.add_argument("--subgoal-p", type=float, default=0.4)
    sim.add_argument("--episodes", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", help="write a results CSV row here")
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("reproduce", help="recompute a recorded table and compare")
    rep.add_argument("--table", required=True, help="table id (T1..T13) or 'all'")
    rep.add_argument(
        "--episodes",
        type=int,
        default=1000,
        help="Monte-Carlo episodes per strategy for the meeting tables T8-T13; "
        "T1-T3 and T5-T7 are computed without simulation and ignore it",
    )
    rep.add_argument(
        "--seed",
        type=int,
        default=0,
        help="Monte-Carlo seed for the meeting tables T8-T13; "
        "T1-T3 and T5-T7 are computed without simulation and ignore it",
    )
    rep.add_argument("--out", help="write the comparison report here")
    rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
