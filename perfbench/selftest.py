#!/usr/bin/env python3
"""Self-test of the benchmark's checkers. Run it from the repository root:

    python3 perfbench/selftest.py

Each checker must accept qflab's real output and reject a deliberately
perturbed copy of it (one contribution scaled by 1.01, one ledger event
dropped, and so on). Exits 1 if any checker fails either way.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

LIB = workloads.Lib()
q = LIB.q
FAILURES = []


def case(name, accepted, rejected):
    """``accepted``: errors on the real output (want none); ``rejected``:
    errors on the perturbed copy (want some)."""
    ok = not accepted and bool(rejected)
    print(f"{'ok  ' if ok else 'FAIL'} {name}"
          + ("" if ok else f"  real: {accepted[:2]}  perturbed: {rejected[:2]}"))
    if not ok:
        FAILURES.append(name)


def scaled(result, good, factor, scenario, index=0):
    """A copy of ``result`` with one contribution scaled (or, in an all-zero
    state, one citizen paying 1) and the good's funding recomputed to match,
    so only the best-response check can object."""
    entries = list(result.contributions[good].entries)
    if entries:
        e = entries[index]
        entries[index] = q.Contribution(e.citizen_id, e.amount * factor, e.sign)
    else:
        entries = [q.Contribution(scenario.citizens[0].id, 1.0)]
    profile = q.ContributionProfile(good, tuple(entries))
    contributions = dict(result.contributions, **{good: profile})
    funding = dict(result.funding)
    funding[good] = oracle.funding(oracle.rule_of(scenario.mechanism),
                                   [x.amount for x in entries], [x.sign for x in entries])
    return dataclasses.replace(result, contributions=contributions, funding=funding)


def concave_cases():
    rng = np.random.default_rng(7)
    cits = workloads.concave_population(q, rng, 20, ["g0", "g1"])
    for cfg in (q.MechanismConfig.qf(), q.MechanismConfig.cqf(0.3),
                q.MechanismConfig.private(), q.MechanismConfig.linear_match(2.0)):
        sc = q.Scenario(cits, ["g0", "g1"], cfg)
        res = q.solve_equilibrium(sc)
        top = max(res.contributions["g0"].entries, key=lambda e: e.amount)
        index = list(res.contributions["g0"].entries).index(top)
        case(f"equilibrium {cfg.variant.value}: one contribution x1.01",
             oracle.check_equilibrium(sc, res),
             oracle.check_equilibrium(sc, scaled(res, "g0", 1.01, sc, index)))
    sc = q.Scenario(cits, ["g0", "g1"], q.MechanismConfig.one_p_one_v())
    res = q.solve_equilibrium(sc)
    moved = dataclasses.replace(res, funding=dict(res.funding, g1=res.funding["g1"] * 1.01))
    case("vote outcome x1.01", oracle.check_equilibrium(sc, res),
         oracle.check_equilibrium(sc, moved))
    sc = q.Scenario(cits, ["g0", "g1"], q.MechanismConfig.qf())
    F_star = q.optimal_funding(sc, "g0")
    case("optimal_funding x1.01", oracle.check_optimal_funding(sc, "g0", F_star),
         oracle.check_optimal_funding(sc, "g0", F_star * 1.01))
    res = q.solve_equilibrium(sc)
    report = q.welfare(sc, res.funding)
    case("welfare total +0.1%", oracle.check_welfare(sc, res.funding, report),
         oracle.check_welfare(sc, res.funding,
                              dataclasses.replace(report, total=report.total * 1.001)))
    cits = workloads.concave_population(q, rng, 12, ["g0"])
    budget = q.solve_equilibrium(q.Scenario(cits, ["g0"], q.MechanismConfig.cqf(0.6))).deficit
    cal = q.Scenario(cits, ["g0"], q.MechanismConfig.cqf(0.5))
    alpha = q.solve_alpha_for_budget(cal, budget, alpha_min=0.1, damping=0.5)
    at = q.Scenario(cal.citizens, cal.goods, q.MechanismConfig.cqf(alpha))
    res = q.solve_equilibrium(at)
    case("calibration against a budget 10% short",
         oracle.check_calibration(at, alpha, budget, res, 0.1),
         oracle.check_calibration(at, alpha, 0.9 * budget, res, 0.1))


def nonconcave_cases():
    wl = workloads.NonconcaveSolve(LIB, 3, None)
    seen = set()
    for op in wl.ops(0):
        family = op.kind.rsplit(".", 1)[0]
        if family in seen:
            continue
        seen.add(family)
        res = op.run()
        scenario = _scenario_of(op)
        bad = scaled(res, "g", 1.01, scenario,
                     index=len(res.contributions["g"].entries) - 1)
        case(f"{family}: one contribution x1.01", op.check(res), op.check(bad))
        if res.alternate is not None:
            alt = scaled(res.alternate, "g", 1.01, scenario)
            case(f"{family}: alternate state moved", op.check(res),
                 op.check(dataclasses.replace(res, alternate=alt)))


def _scenario_of(op):
    """The scenario an op closes over."""
    for cell in op.run.__closure__ or ():
        if isinstance(cell.cell_contents, q.Scenario):
            return cell.cell_contents
    raise LookupError(op.kind)


def rounds_cases():
    wl = workloads.Rounds(LIB, 3, None)
    for op in wl.ops(0):
        if not op.kind.endswith(".d2") and not op.kind.startswith("criterion12.pledge"):
            continue
        ledger, csv_text, snaps = op.run()
        lines = csv_text.splitlines(keepends=True)
        dropped = "".join(lines[:1] + lines[2:])
        case(f"round {op.kind}: one ledger event dropped", op.check((ledger, csv_text, snaps)),
             op.check((ledger, dropped, snaps)))


def cli_cases():
    wl = workloads.Cli(LIB, 3, ROOT / ".perfbench-work" / "selftest")
    try:
        ops = {op.kind: op for op in wl.ops(0)}
        out = ops["fund.json"].run()
        data = json.loads(out)
        data["funding"]["g2"] *= 1 + 1e-9
        case("cli fund: one good's funding off in the 10th digit", ops["fund.json"].check(out),
             ops["fund.json"].check(json.dumps(data)))
        out = ops["equilibrium"].run()
        data = json.loads(out)
        cid = max(data["contributions"]["g1"], key=data["contributions"]["g1"].get)
        data["contributions"]["g1"][cid] *= 1.01
        case("cli equilibrium: one contribution x1.01", ops["equilibrium"].check(out),
             ops["equilibrium"].check(json.dumps(data)))
        out = ops["attack.fraud"].run()
        data = json.loads(out)
        data["received"] *= 1.01
        case("cli attack: received x1.01", ops["attack.fraud"].check(out),
             ops["attack.fraud"].check(json.dumps(data)))
        out = ops["sweep"].run()
        lines = out.splitlines()
        lines[2] = lines[2] + "no convergence"
        case("cli sweep: an error in one row", ops["sweep"].check(out),
             ops["sweep"].check("\n".join(lines)))
        out = ops["round"].run()
        case("cli round: settlement flipped", ops["round"].check(out),
             ops["round"].check(out.replace("FUNDED", "REFUNDED", 1)))
    finally:
        wl.close()


if __name__ == "__main__":
    concave_cases()
    nonconcave_cases()
    rounds_cases()
    cli_cases()
    print(f"{len(FAILURES)} checker self-test failures")
    sys.exit(1 if FAILURES else 0)
