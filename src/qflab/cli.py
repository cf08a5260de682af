"""Command-line interface.

Subcommands: fund, equilibrium, sweep, attack, round. Exit codes are a
stable contract: 0 success, 2 input error, 3 numerical non-convergence.
All numeric output is rendered at 12 significant digits, identically in
CSV and JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import (
    AttackAccounting,
    cartel_defection,
    fraud_arbitrage,
    welfare,
)
from .equilibrium import solve_equilibrium
from .errors import QFLabError, ScenarioFormatError
from .mechanisms import (
    MechanismConfig,
    Variant,
    evaluate_outcome,
    settle_deficit,
)
from .preferences import Citizen
from .rounds import (
    AssurancePolicy,
    MyopicBestResponse,
    ThresholdPledger,
    ledger_to_csv,
    run_round,
    snapshots_to_json,
)
from .scenario_io import (
    _csv_field,
    contributions_to_csv,
    parse_contributions_csv,
    parse_scenario,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    return str(x)


def _jnum(x):
    """Round-trip a float through the 12-significant-digit rendering so JSON
    and CSV encode identical numbers."""
    if isinstance(x, float) and math.isfinite(x):
        return float(f"{x:.12g}")
    return x


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _table(headers, rows) -> str:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _csv_row(cells) -> str:
    return ",".join(_csv_field(_fmt(c)) for c in cells)


def _csv_section(title, headers, rows) -> str:
    return "\n".join([f"# {title}", _csv_row(headers), *map(_csv_row, rows)])


# ---------------------------------------------------------------------------
# fund


def _mechanism_from_flags(args) -> MechanismConfig:
    variant = Variant(args.variant.upper())
    kwargs = {}
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    if args.beta is not None:
        kwargs["beta"] = args.beta
    if args.scale is not None:
        kwargs["scale"] = args.scale
    return MechanismConfig(variant, **kwargs)


def cmd_fund(args) -> int:
    profiles = parse_contributions_csv(args.contributions)
    config = _mechanism_from_flags(args)
    citizens = set().union(*(p.citizen_ids for p in profiles))
    n = args.n_citizens if args.n_citizens else max(len(citizens), 1)
    outcome = evaluate_outcome(profiles, config, n)
    rows = [(p.good_id, outcome.funding[p.good_id], p.total()) for p in profiles]
    taxes = settle_deficit(outcome, n)
    if args.format == "json":
        payload = {
            "funding": {g: _jnum(f) for g, f, _ in rows},
            "contributed": {g: _jnum(t) for g, _, t in rows},
            "deficit": _jnum(outcome.deficit),
            "per_capita_tax": _jnum(outcome.per_capita_tax),
            "n_citizens": n,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    elif args.format == "csv":
        sections = [
            _csv_section("funding", ["good_id", "funding", "contributed"], rows),
            _csv_section("totals", ["deficit", "per_capita_tax", "n_citizens"],
                         [(outcome.deficit, outcome.per_capita_tax, n)]),
        ]
        _emit("\n".join(sections), args.out)
    else:
        text = _table(["good_id", "funding", "contributed"], rows)
        text += (f"\n\ndeficit          {_fmt(outcome.deficit)}"
                 f"\nper-capita tax   {_fmt(taxes[0]) if taxes else '0'}"
                 f"  (n={n})")
        _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# equilibrium


def _bundle(scenario, result):
    rep = welfare(scenario, result.funding)
    rows = []
    for g in scenario.goods:
        rows.append({
            "good_id": g,
            "funding": result.funding[g],
            "optimal": rep.per_good[g].optimum,
            "marginal_value": result.marginal_report[g],
            "net_welfare": rep.per_good[g].net,
        })
    diag = {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "aggregate_lambda": scenario.aggregate_lambda,
        "engines": {g: d.engine for g, d in result.diagnostics.items()},
    }
    totals = {
        "deficit": result.deficit,
        "welfare_total": rep.total,
        "welfare_optimum": rep.optimum_total,
        "efficiency_ratio": rep.efficiency_ratio,
    }
    return rows, totals, diag


def _render_bundle(scenario, result, fmt):
    rows, totals, diag = _bundle(scenario, result)
    if fmt == "json":
        payload = {
            "goods": [{k: _jnum(v) for k, v in r.items()} for r in rows],
            "totals": {k: _jnum(v) for k, v in totals.items()},
            "taxes": {cid: _jnum(t) for cid, t in result.taxes.items()},
            "contributions": {
                g: {cid: _jnum(s * a) for cid, a, s in zip(p.citizen_ids, p.amounts, p.signs)}
                for g, p in result.contributions.items()
            },
            "diagnostics": diag,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    headers = ["good_id", "funding", "optimal", "marginal_value", "net_welfare"]
    table_rows = [tuple(r[h] for h in headers) for r in rows]
    if fmt == "csv":
        sections = [
            _csv_section("goods", headers, table_rows),
            _csv_section("totals", list(totals), [tuple(totals.values())]),
            _csv_section("diagnostics",
                         ["converged", "iterations", "residual"],
                         [(diag["converged"], diag["iterations"], diag["residual"])]),
        ]
        return "\n".join(sections)
    text = _table(headers, table_rows)
    text += "\n\n" + _table(["metric", "value"], list(totals.items()))
    text += ("\n\nconverged={converged}  iterations={iterations}"
             "  residual={residual:.3g}".format(**{
                 "converged": diag["converged"],
                 "iterations": diag["iterations"],
                 "residual": diag["residual"]}))
    return text


def cmd_equilibrium(args) -> int:
    scenario, _ = parse_scenario(args.scenario)
    result = solve_equilibrium(scenario, tolerance=args.tolerance)
    _emit(_render_bundle(scenario, result, args.format), args.out)
    if args.contributions_out:
        Path(args.contributions_out).write_text(
            contributions_to_csv(result.contributions.values()))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# sweep


def _scaled_citizens(scenario, n: int) -> list[Citizen]:
    # cycle the roster as a template, cloning with fresh ids
    base = scenario.citizens
    return [
        Citizen(id=f"{base[i % len(base)].id}~{i}",
                values=base[i % len(base)].values,
                lam=base[i % len(base)].lam)
        for i in range(n)
    ]


def cmd_sweep(args) -> int:
    scenario, _ = parse_scenario(args.scenario)
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip()]
    except ValueError:
        raise ScenarioFormatError(f"--grid: not a comma-separated number list: "
                                  f"{args.grid!r}") from None
    if len(grid) < 2:
        raise ScenarioFormatError("--grid needs at least 2 values")
    headers = ["param", "value"]
    for g in scenario.goods:
        headers += [f"funding[{g}]", f"marginal_value[{g}]"]
    headers += ["deficit", "welfare_total", "error"]
    lines = [_csv_row(headers)]
    for value in grid:
        try:
            trial = scenario
            if args.param == "alpha":
                cfg = MechanismConfig.cqf(
                    value, deficit_mode=scenario.mechanism.deficit_mode)
                trial = replace(scenario, mechanism=cfg)
            elif args.param == "beta":
                cfg = MechanismConfig.beta_rule(
                    value, deficit_mode=scenario.mechanism.deficit_mode)
                trial = replace(scenario, mechanism=cfg)
            else:
                n = int(value)
                if n < 1 or n != value:
                    raise ValueError(f"N must be a positive integer, got {value}")
                trial = replace(scenario, citizens=_scaled_citizens(scenario, n))
            result = solve_equilibrium(trial, tolerance=args.tolerance)
            if not result.converged:
                raise QFLabError(f"no certified equilibrium (residual {result.residual:.3g})")
            rep = welfare(trial, result.funding)
            row = [args.param, _fmt(value)]
            for g in scenario.goods:
                row += [_fmt(result.funding[g]), _fmt(result.marginal_report[g])]
            row += [_fmt(result.deficit), _fmt(rep.total), ""]
            lines.append(",".join(row))
        except (QFLabError, ValueError) as e:
            row = [args.param, _fmt(value)] + [""] * (2 * len(scenario.goods) + 2)
            row.append(str(e).replace(",", ";"))
            lines.append(",".join(row))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack


def cmd_attack(args) -> int:
    mode = AttackAccounting(args.mode)
    if args.fraud:
        if args.n is not None or args.c is not None:
            raise ScenarioFormatError("--fraud takes --k and --x, not --n/--c")
        if args.k is None:
            raise ScenarioFormatError("--fraud requires --k (identity count)")
        report = fraud_arbitrage(args.alpha, args.k, args.x, mode)
        rows = [
            ("attack", "fraud"), ("alpha", args.alpha),
            ("identities", args.k), ("per_identity", args.x),
            ("paid", report.paid), ("received", report.received),
            ("profit", report.profit),
            ("breakeven_size", report.breakeven_size),
            ("accounting", mode.value),
        ]
    else:
        if args.k is not None or args.x != 1.0:
            raise ScenarioFormatError("--cartel takes --n and --c, not --k/--x")
        if args.n is None or args.c is None:
            raise ScenarioFormatError("--cartel requires --n and --c")
        report = cartel_defection(args.alpha, args.n, args.c)
        rows = [
            ("attack", "cartel"), ("alpha", args.alpha),
            ("members", args.n), ("contribution", args.c),
            ("pool", report.pool), ("member_share", report.member_share),
            ("complying_net", report.complying_net),
            ("defector_pool", report.defector_pool),
            ("defector_share", report.defector_share),
            ("defection_gain", report.defection_gain),
        ]
    if args.format == "json":
        _emit(json.dumps({k: _jnum(v) for k, v in rows}, indent=2, sort_keys=True),
              args.out)
    elif args.format == "csv":
        _emit(_csv_section("attack", [k for k, _ in rows],
                           [tuple(v for _, v in rows)]), args.out)
    else:
        _emit(_table(["metric", "value"], rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# round


def cmd_round(args) -> int:
    scenario, round_spec = parse_scenario(args.scenario)
    if round_spec is None:
        raise ScenarioFormatError("scenario has no round block")
    by_id = {c.id: c for c in scenario.citizens}
    agents = {}
    for cid, spec in round_spec.agents.items():
        if spec.policy == "myopic_br":
            agents[cid] = MyopicBestResponse(by_id[cid], scenario.goods)
        else:
            agents[cid] = ThresholdPledger(cid, spec.shares)
    if not agents:
        raise ScenarioFormatError("round.agents: at least one agent required")
    ledger = run_round(scenario, agents, round_spec.window_end,
                       AssurancePolicy(round_spec.assurance),
                       delay=round_spec.delay, seed=round_spec.seed)
    summary_rows = [
        (g, s.status.value, s.funding, s.refund_total)
        for g, s in sorted(ledger.settlement.items())
    ]
    sys.stdout.write(_table(["good_id", "status", "funding", "refund_total"],
                            summary_rows) + "\n")
    csv_text = ledger_to_csv(ledger)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.snapshots_out:
        Path(args.snapshots_out).write_text(snapshots_to_json(ledger))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "csv", "json"], default="text")
    common.add_argument("--out", metavar="PATH", default=None)
    # the solver's settings, for the subcommands that solve
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tolerance", type=float, default=1e-8)

    parser = argparse.ArgumentParser(
        prog="qflab",
        description="Public-goods funding rules: evaluate, equilibrate, "
                    "sweep, attack, and run dynamic rounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fund", parents=[common],
                       help="evaluate a funding rule on a contributions CSV")
    p.add_argument("contributions", help="CSV with citizen_id,good_id,amount[,sign]")
    p.add_argument("--variant", required=True,
                   choices=[v.value for v in Variant if v is not Variant.ONE_P_ONE_V])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--n-citizens", type=int, default=None,
                   help="population size for per-capita taxes")
    p.set_defaults(func=cmd_fund)

    p = sub.add_parser("equilibrium", parents=[common, solver],
                       help="solve the contribution game for a scenario file")
    p.add_argument("scenario")
    p.add_argument("--contributions-out", metavar="PATH", default=None,
                   help="also write equilibrium contributions as a CSV")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("sweep", parents=[common, solver],
                       help="re-solve a scenario over a parameter grid (CSV out)")
    p.add_argument("scenario")
    p.add_argument("--param", required=True, choices=["alpha", "beta", "N"])
    p.add_argument("--grid", required=True,
                   help="comma-separated values, e.g. 0.05,0.1,0.5")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("attack", parents=[common],
                       help="fraud or cartel profitability arithmetic")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--fraud", action="store_true")
    kind.add_argument("--cartel", action="store_true")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, default=None, help="fraud: identity count")
    p.add_argument("--x", type=float, default=1.0, help="fraud: per-identity amount")
    p.add_argument("--n", type=int, default=None, help="cartel: member count")
    p.add_argument("--c", type=float, default=None, help="cartel: per-member amount")
    p.add_argument("--mode", choices=[m.value for m in AttackAccounting],
                   default=AttackAccounting.QUADRATIC_ONLY.value)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("round", parents=[common],
                       help="run a dynamic round from a scenario's round block")
    p.add_argument("scenario")
    p.add_argument("--snapshots-out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_round)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except (ScenarioFormatError, QFLabError, ValueError, OSError) as e:
        print(f"qflab: error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
