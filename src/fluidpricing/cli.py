"""Command-line experiment runner.

Subcommands expose the library's solvers and preset experiments; outputs
are JSON (fluid-solve, dp-value) or CSV (everything else).  Exit codes:
0 success, 1 solver failure, 2 configuration/usage error, 3 model validation
failure, 4 resource guard, 5 the compiled kernels cannot be built or loaded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys

import numpy as np

from . import experiments
from .demand import (
    MultiDemandModel,
    model_from_dict,
    validate_multi,
)
from .errors import (
    ConfigError,
    DomainError,
    KernelUnavailableError,
    ModelValidationError,
    ResourceGuardError,
    SolverError,
    UnsupportedModelError,
)
from .fluid import solve_fluid_multi, solve_fluid_single
from .policies import dp_value, resolving_policy, solve_dp, static_policy
from .sim import estimate_regret, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4
EXIT_KERNEL = 5


def _load_model(path: str):
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _parse_list(text: str, cast, what: str) -> list:
    try:
        return [cast(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc


def cmd_fluid_solve(args) -> int:
    model = _load_model(args.model)
    inv = np.array(_parse_list(args.inventory, float, "inventory"))
    if isinstance(model, MultiDemandModel):
        sol = solve_fluid_multi(model, inv)
    else:
        if inv.size != 1:
            raise ConfigError("single-product model takes one inventory value")
        sol = solve_fluid_single(model, float(inv[0]))
    _emit(json.dumps(sol.to_dict()), args.out)
    return EXIT_OK


def _write_actions(table, path: str) -> None:
    """The action table as CSV rows (t, y, demand_rate, price), written period by period."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "y", "demand_rate", "price"])
        inventory = range(1, table.max_inventory + 1)
        for t in range(1, table.horizon + 1):
            rates = table.actions[t, 1:]
            writer.writerows(zip(itertools.repeat(t), inventory, rates.tolist(),
                                 table.model.price_of_rate(rates).tolist()))


def cmd_dp_value(args) -> int:
    model = _load_model(args.model)
    if args.dump_actions:
        table = solve_dp(model, args.T, args.y0)
        _write_actions(table, args.dump_actions)
        value = table.value(args.T, args.y0)
    else:
        value = dp_value(model, args.T, args.y0)
    _emit(json.dumps({"T": args.T, "y0": args.y0, "value": value}), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    if isinstance(model, MultiDemandModel):
        raise ConfigError("trace simulation via the CLI covers single-product models")
    if args.T < 1 or args.y0 < 0:
        raise ConfigError("need -T >= 1 and --y0 >= 0")
    # the policy, with a DP policy's tables, is gone before the text is formatted
    trace = simulate(model, _trace_policy(model, args), args.T, args.y0, args.seed)
    _emit(experiments.trace_csv(trace), args.out)
    return EXIT_OK


def _trace_policy(model, args):
    if args.policy == "static":
        return static_policy(model, args.y0 / args.T)
    if args.policy == "resolving":
        return resolving_policy(model)
    if args.policy == "dp":
        return solve_dp(model, args.T, args.y0).policy()
    raise ConfigError(f"unknown policy {args.policy!r}")


def cmd_estimate_regret(args) -> int:
    with open(args.config) as fh:
        config = experiments.ExperimentConfig.from_dict(json.load(fh))
    if args.replications is not None:
        config.replications = args.replications
    if args.seed is not None:
        config.base_seed = args.seed
    model = model_from_dict(config.model)
    reports = estimate_regret(
        model, config.T_list, config.y0_rule, tuple(config.policies),
        replications=config.replications, base_seed=config.base_seed,
    )
    rows = experiments.regret_report_rows(reports)
    text = experiments.write_csv(rows, experiments.REGRET_COLUMNS)
    _emit(text, args.out)
    return EXIT_OK


def cmd_table2(args) -> int:
    T_list = _parse_list(args.t_list, int, "horizon list") if args.t_list is not None else None
    rows = experiments.run_table2(T_list)
    if args.out not in (None, "-"):  # a 2-decimal display, on stdout when the CSV is not
        print("log2_T    " + "".join(f"{r['log2_T']:>8}" for r in rows))
        for key, label in (("fluid_regret", "fluid"), ("static_regret", "static"),
                           ("resolving_regret", "resolving")):
            print(f"{label:<10}" + "".join(f"{r[key]:8.2f}" for r in rows))
    text = experiments.write_csv(rows, experiments.TABLE2_COLUMNS)
    _emit(text, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    T_list = (_parse_list(args.t_list, int, "horizon list") if args.t_list is not None
              else [2**k for k in range(4, 13)])
    config = experiments.SweepConfig(kind=args.kind, T_list=T_list)
    rows = experiments.run_sweep(config)
    text = experiments.write_csv(rows, experiments.SWEEP_COLUMNS)
    _emit(text, args.out)
    return EXIT_OK


def cmd_ho_compare(args) -> int:
    model = _load_model(args.model)
    T_list = _parse_list(args.t_list, int, "horizon list")
    rows = experiments.run_ho_compare(model, T_list, args.x_t,
                                      args.replications, args.seed)
    text = experiments.write_csv(rows, experiments.HO_COLUMNS)
    _emit(text, args.out)
    return EXIT_OK


def cmd_validate_model(args) -> int:
    with open(args.model) as fh:
        obj = json.load(fh)
    model = model_from_dict(obj)  # raises ModelValidationError on bad single models
    if isinstance(model, MultiDemandModel):
        report = validate_multi(model)
        _emit(json.dumps({
            "ok": report.ok,
            "violations": list(report.violations),
            "m_prime": report.m_prime,
            "spectral_norm": report.spectral_norm,
        }), args.out)
        if not report.ok:
            return EXIT_VALIDATION
    else:
        consts = model.assumption_constants()
        _emit(json.dumps({"ok": True, "constants": vars(consts)}), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidpricing",
        description="Dynamic pricing simulation and regret benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output path ('-' or omit for stdout)")
        return p

    p = add("fluid-solve", cmd_fluid_solve, help="solve the fluid problem for a model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--inventory", required=True, help="comma-separated normalized inventory")

    p = add("dp-value", cmd_dp_value, help="exact optimal value V(T, y0)")
    p.add_argument("--model", required=True)
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--y0", type=int, required=True)
    p.add_argument("--dump-actions", default=None, help="write the action table CSV here")

    p = add("simulate", cmd_simulate, help="simulate one seeded trace to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--policy", required=True, choices=["static", "resolving", "dp"])
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--y0", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("estimate-regret", cmd_estimate_regret, help="run a regret estimation config")
    p.add_argument("--config", required=True, help="experiment config JSON path")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("table2", cmd_table2, help="exact benchmark regret table")
    p.add_argument("--t-list", default=None, help="comma-separated horizons (default 2^6..2^15)")

    p = add("sweep", cmd_sweep, help="regret sweeps (inventory gap or demand curvature)")
    p.add_argument("--kind", required=True, choices=["gap", "concavity"])
    p.add_argument("--t-list", default=None)

    p = add("ho-compare", cmd_ho_compare, help="hindsight benchmark vs fluid value")
    p.add_argument("--model", required=True)
    p.add_argument("--x-t", type=float, required=True)
    p.add_argument("--t-list", required=True)
    p.add_argument("--replications", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)

    p = add("validate-model", cmd_validate_model, help="check model assumptions")
    p.add_argument("--model", required=True)

    return parser


# parse_args leaves a parser as it was, so one serves every call of main
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError, UnsupportedModelError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelValidationError as exc:  # its message carries the prefix
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (ResourceGuardError,) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except KernelUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KERNEL
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
