"""Command-line front end: simulate episodes, sweep grids, extract contours, verify.

Exit codes: 0 success, 1 failed checks, 2 configuration/schema errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .bounds import BudgetScenario, _check_at_least, bound_report
from .cycle_sim import (
    CostModel,
    EnvironmentModel,
    ExpectedMode,
    FixedSequence,
    GreedyInfoMax,
    RandomPolicy,
    RoundRobin,
    SampledMode,
    WorkLedger,
    run_episode,
)
from .errors import InvalidParameter, ThermosciError
from .info_core import LN2, Units
from .render import render_heatmap_svg
from .toy_model import (
    Pair,
    SecondAxis,
    SweepAxes,
    ToyParams,
    contours_to_json_dict,
    read_grid_csv,
    sweep,
    write_grid_csv,
)
from .verify import run_suite

# builtin panel presets: comparison pair and overhead regime; the pair sets the second axis
_PANELS = {
    "A": (Pair.SPEC_GEN, ToyParams.symmetric),
    "B": (Pair.SPEC_GEN, ToyParams.asymmetric),
    "C": (Pair.FED_GEN, ToyParams.symmetric),
    "D": (Pair.FED_GEN, ToyParams.asymmetric),
    "E": (Pair.FED_SPEC, ToyParams.symmetric),
    "F": (Pair.FED_SPEC, ToyParams.asymmetric),
}


def _fail(exc: Exception) -> None:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)


def _parse_policy(text: str, seed: int, interventions: int):
    if text == "roundrobin":
        return RoundRobin()
    if text == "greedy":
        return GreedyInfoMax()
    if text == "random":
        return RandomPolicy(seed)
    if text.startswith("fixed:"):
        body = text[len("fixed:"):]
        if not body:
            raise InvalidParameter("fixed policy needs at least one intervention")
        try:
            seq = tuple(int(tok) for tok in body.split(","))
        except ValueError as exc:  # an empty token too, as in fixed:0,,1
            raise InvalidParameter(f"bad fixed policy {text!r}") from exc
        for u in seq:
            if not 0 <= u < interventions:
                raise InvalidParameter(f"fixed policy {text!r} names intervention {u} "
                                       f"outside [0, {interventions})")
        return FixedSequence(seq)
    raise InvalidParameter(
        f"unknown policy {text!r}; expected fixed:u0,u1,... | roundrobin | random | greedy"
    )


def _parse_mode(text: str, seed: int):
    if text == "expected":
        return ExpectedMode()
    if text == "sampled":
        return SampledMode(seed=seed)
    if text.startswith("sampled:"):
        try:
            trials = int(text[len("sampled:"):])
        except ValueError as exc:
            raise InvalidParameter(f"bad mode {text!r}") from exc
        return SampledMode(seed=seed, trials=trials)
    raise InvalidParameter(f"unknown mode {text!r}; expected expected | sampled[:N]")


def _cmd_simulate(args) -> int:
    _check_at_least(0, seed=args.seed)  # in every mode, not only where a seed is used
    with open(args.env) as fh:
        env = EnvironmentModel.from_json_dict(json.load(fh))
    units = Units(args.units)
    nats_per_unit = 1.0 if units == Units.NATS else LN2
    # checked as typed, before the conversion to nats, so an error shows the value given
    _check_at_least(0, budget=args.budget)
    cost = CostModel(args.kappa_meas, args.kappa_erase, args.delta_f)
    cost = replace(cost, delta_f_mem=cost.delta_f_mem * nats_per_unit)
    policy = _parse_policy(args.policy, args.seed, env.intervention_count)
    mode = _parse_mode(args.mode, args.seed)
    ledger, summary = run_episode(env, policy, cost, args.budget * nats_per_unit, mode,
                                  max_rounds=args.max_rounds)

    if args.out:
        Path(args.out).write_text(json.dumps(ledger.to_json_dict(units), indent=2) + "\n")

    checks = bound_report(ledger, summary.prior_entropy)
    if units == Units.BITS:  # every check but the efficiency ratio is in nats
        checks = [c if c.name == "efficiency_cap" else
                  replace(c, observed=c.observed / LN2, limit=c.limit / LN2) for c in checks]
    print(f"status={summary.status} stop={summary.stop_reason} rounds={summary.rounds}")
    print(f"cumulative_info={summary.cumulative_info / nats_per_unit:.9g} {units.value}")
    print(f"budget_spent={ledger.budget_spent / nats_per_unit:.9g} {units.value}")
    if ledger.budget_spent > 0.0:
        print(f"efficiency={summary.cumulative_info / ledger.budget_spent:.9g}")
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(f"{verdict} {check.name}: observed={check.observed:.9g} "
              f"limit={check.limit:.9g} {check.detail}".rstrip())

    if args.report:
        payload = {
            "status": summary.status,
            "stop_reason": summary.stop_reason,
            "rounds": summary.rounds,
            "units": units.value,
            "cumulative_info": summary.cumulative_info / nats_per_unit,
            "budget_spent": ledger.budget_spent / nats_per_unit,
            "checks": [asdict(c) for c in checks],
        }
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if all(c.passed for c in checks) else 1


def _build_axes(args, kind: str, cmin: float) -> SweepAxes:
    unused = "n" if kind == "c_spec" else "cspec"  # the other axis's flags
    for end in ("min", "max", "steps"):
        if getattr(args, f"{unused}_{end}") is not None:
            raise InvalidParameter(f"--{unused}-{end} does not apply to the {kind} axis")
    if kind == "c_spec":
        lo = cmin if args.cspec_min is None else args.cspec_min
        hi = 1.0 if args.cspec_max is None else args.cspec_max
        steps = 100 if args.cspec_steps is None else args.cspec_steps
    else:
        lo = 1.0 if args.n_min is None else args.n_min
        hi = 20.0 if args.n_max is None else args.n_max
        steps = 100 if args.n_steps is None else args.n_steps
    return SweepAxes(
        SecondAxis(kind, lo, hi, steps),
        omega_min=args.omega_min,
        omega_max=args.omega_max,
        omega_steps=args.omega_steps,
    )


def _cmd_sweep(args) -> int:
    if args.panel and args.pair:
        raise InvalidParameter("--pair does not apply with --panel, which sweeps its own pair")
    if args.panel:
        pair, preset = _PANELS[args.panel]
    elif args.pair:
        pair, preset = Pair(args.pair), ToyParams.symmetric
    else:
        raise InvalidParameter("need --panel or --pair")
    alphas = {key: getattr(args, key) for key in ("alpha_gen", "alpha_fed", "alpha_spec")
              if getattr(args, key) is not None}
    # the preset's defaults are valid, so every field is checked once, with its final value
    params = replace(preset(), c_min=args.cmin, gamma=args.gamma, **alphas)
    axes = _build_axes(args, pair.axis_kind, args.cmin)
    grid = sweep(pair, params, axes)
    write_grid_csv(grid, args.out)
    print(f"pair={pair.value} grid={grid.axis2.size}x{grid.omega.size} "
          f"contours={len(grid.contours)} out={args.out}")
    if pair == Pair.FED_GEN:
        # analytic phase boundary of this pairing; decreases with n
        print(f"note: delta=0 boundary is omega*(n) = (1 + alpha_gen) * c_fed(n) "
              f"= {1.0 + params.alpha_gen:.9g} * c_fed(n)")
    if args.svg:
        render_heatmap_svg(grid, args.svg)
        print(f"svg={args.svg}")
    return 0


def _cmd_contour(args) -> int:
    grid = read_grid_csv(args.grid)
    payload = contours_to_json_dict(grid, pair=args.pair)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"contour_components={len(grid.contours)} out={args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.scenario and not args.ledger:  # before any suite runs
        raise InvalidParameter("--scenario needs --ledger")
    report = run_suite(args.scope, args.seed)

    if args.ledger:
        with open(args.ledger) as fh:
            ledger = WorkLedger.from_json_dict(json.load(fh))
        scenario = None
        if args.scenario:
            with open(args.scenario) as fh:
                scenario = BudgetScenario.from_json_dict(json.load(fh))
        for c in bound_report(ledger, scenario.h0 if scenario else None, scenario):
            report["checks"].append({
                "suite": "files", "name": c.name, "passed": c.passed,
                "detail": f"observed={c.observed:.9g} limit={c.limit:.9g} {c.detail}".rstrip(),
            })
        report["all_passed"] = all(c["passed"] for c in report["checks"])

    for check in report["checks"]:
        verdict = "PASS" if check["passed"] else "FAIL"
        line = f"{verdict} [{check['suite']}] {check['name']}"
        if check["detail"]:
            line += f": {check['detail']}"
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    if not report["all_passed"]:
        first = next(c for c in report["checks"] if not c["passed"])
        print(f"first failure: [{first['suite']}] {first['name']} {first['detail']}",
              file=sys.stderr)
        return 1
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermosci",
        description="Budgeted measure-update-erase episodes, information/work caps, "
                    "and strategy phase-diagram sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one budgeted episode against an environment")
    sim.add_argument("--env", required=True, help="environment JSON file")
    sim.add_argument("--policy", default="greedy",
                     help="fixed:u0,u1,... | roundrobin | random | greedy")
    sim.add_argument("--budget", type=float, required=True,
                     help="total work budget (in --units)")
    sim.add_argument("--kappa-meas", type=float, default=1.0, dest="kappa_meas")
    sim.add_argument("--kappa-erase", type=float, default=1.0, dest="kappa_erase")
    sim.add_argument("--delta-f", type=float, default=0.0, dest="delta_f",
                     help="per-round memory free-energy change (in --units)")
    sim.add_argument("--mode", default="expected", help="expected | sampled[:N]")
    sim.add_argument("--max-rounds", type=int, default=None, dest="max_rounds")
    sim.add_argument("--units", choices=["nats", "bits"], default="nats")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None, help="ledger JSON output path")
    sim.add_argument("--report", default=None, help="bound-check report JSON path")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="evaluate a strategy-comparison grid")
    sw.add_argument("--pair", choices=[p.value for p in Pair], default=None)
    sw.add_argument("--panel", choices=sorted(_PANELS), default=None,
                    help="builtin preset (pair, overhead regime, axes)")
    sw.add_argument("--alpha-gen", type=float, default=None, dest="alpha_gen")
    sw.add_argument("--alpha-fed", type=float, default=None, dest="alpha_fed")
    sw.add_argument("--alpha-spec", type=float, default=None, dest="alpha_spec")
    sw.add_argument("--cmin", type=float, default=0.05)
    sw.add_argument("--gamma", type=float, default=1.0)
    sw.add_argument("--omega-min", type=float, default=1e-2, dest="omega_min")
    sw.add_argument("--omega-max", type=float, default=1e2, dest="omega_max")
    sw.add_argument("--omega-steps", type=int, default=200, dest="omega_steps")
    sw.add_argument("--n-min", type=float, default=None, dest="n_min")
    sw.add_argument("--n-max", type=float, default=None, dest="n_max")
    sw.add_argument("--n-steps", type=int, default=None, dest="n_steps")
    sw.add_argument("--cspec-min", type=float, default=None, dest="cspec_min")
    sw.add_argument("--cspec-max", type=float, default=None, dest="cspec_max")
    sw.add_argument("--cspec-steps", type=int, default=None, dest="cspec_steps")
    sw.add_argument("--out", required=True, help="grid CSV output path")
    sw.add_argument("--svg", default=None, help="optional heatmap SVG path")
    sw.set_defaults(func=_cmd_sweep)

    ct = sub.add_parser("contour", help="extract zero contours from a grid CSV")
    ct.add_argument("--grid", required=True, help="grid CSV input path")
    ct.add_argument("--pair", default=None, help="label for the output JSON")
    ct.add_argument("--out", required=True, help="contours JSON output path")
    ct.set_defaults(func=_cmd_contour)

    vf = sub.add_parser("verify", help="run the randomized property suites")
    vf.add_argument("--scope", choices=["info", "cycle", "bounds", "toy", "all"],
                    default="all")
    vf.add_argument("--seed", type=int, default=42)
    vf.add_argument("--ledger", default=None, help="check a ledger JSON against the bounds")
    vf.add_argument("--scenario", default=None, help="scenario JSON for the cap checks")
    vf.add_argument("--out", default=None, help="report JSON output path")
    vf.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ThermosciError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
