"""Command-line front end.

Subcommands: ``solve`` (optimal allocation for an instance file),
``sensitivity`` (allocation plus the change-probability interval), ``bounds``
(the full interval table as CSV), and ``simulate`` (cargo campaign into an
output directory). Errors leave a machine-readable JSON object on stderr and
exit 1 for a typed ``ShareSenseError`` (the problem or the numerics), 2 for an
input error (``ValueError`` or ``OSError``) and 3 for anything else, an
internal fault. A reader that closes stdout early, as ``| head`` does, is not
an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .cargo import run_campaign
from .duality import closed_form_certificate
from .errors import ShareSenseError
from .lp_core import assemble, solve_primal
from .sensitivity import epsilon_table, sensitivity_interval
from .serialize import (
    load_cargo_config,
    load_instance,
    solution_to_dict,
    write_campaign,
    write_epsilon_csv,
)


def _cmd_solve(args) -> int:
    problem = load_instance(args.instance)
    lp = assemble(problem)
    solution = solve_primal(lp)
    dual = closed_form_certificate(lp, solution) if solution.clean else None
    payload = solution_to_dict(solution, dual)
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_sensitivity(args) -> int:
    problem = load_instance(args.instance)
    lp = assemble(problem)
    solution = solve_primal(lp)
    table = epsilon_table(problem.m, args.beta)
    eps_low, eps_high, s_star = sensitivity_interval(solution, table)
    print(
        json.dumps(
            {
                "m": problem.m,
                "beta": args.beta,
                "s_star": s_star,
                "eps_low": eps_low,
                "eps_high": eps_high,
                "objective": solution.objective,
                "degenerate": solution.degenerate,
                "nonunique": solution.nonunique,
            },
            indent=2,
        )
    )
    return 0


def _cmd_bounds(args) -> int:
    table = epsilon_table(args.m, args.beta)
    write_epsilon_csv(table, args.out or sys.stdout)
    return 0


def _cmd_simulate(args) -> int:
    config = load_cargo_config(args.config)
    table = epsilon_table(config.m, config.beta)
    records, summary = run_campaign(config, table)
    payload = write_campaign(args.out_dir, config, table, records, summary)
    print(json.dumps(payload["summary"], indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="share-sense",
        description="Resource-sharing LPs and the probability that a new agent changes the optimum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--out", help="write the solution JSON here instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_sens = sub.add_parser(
        "sensitivity", help="solve and report the change-probability interval"
    )
    p_sens.add_argument("--instance", required=True)
    p_sens.add_argument("--beta", type=float, default=1e-7)
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_bounds = sub.add_parser("bounds", help="emit the interval table as CSV")
    p_bounds.add_argument("--m", type=int, required=True)
    p_bounds.add_argument("--beta", type=float, required=True)
    p_bounds.add_argument("--out", help="CSV path (stdout when omitted)")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_sim = sub.add_parser("simulate", help="run a cargo campaign")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def _report(exc: BaseException, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout now goes nowhere, so the flush at interpreter exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ShareSenseError as exc:
        return _report(exc, 1)
    except (ValueError, OSError) as exc:
        return _report(exc, 2)
    except Exception as exc:  # noqa: BLE001 - the CLI contract is JSON on stderr
        return _report(exc, 3)


if __name__ == "__main__":
    raise SystemExit(main())
