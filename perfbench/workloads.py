"""The benchmark's workloads: seeded operations on qflab and their checks.

A workload is built once per process (its set-up) and then yields rounds of
operations. Round r draws its inputs from numpy's generator seeded with
(seed, r), so the same seed gives the same inputs, every round has the same
kinds of operation in the same order, and a warm start or a cache cannot
reuse a previous round's population. Each op's ``run`` is what is timed; its
``check`` runs afterwards, untimed, against perfbench.oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import oracle


class OpFailed(Exception):
    """The program reported failure for an op (raised or did not converge)."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_failure: tuple = field(default=())   # exception types of a known fault


class Lib:
    """The qflab entry points the workloads call. The traced mode replaces
    these attributes with timing wrappers; nothing inside qflab changes."""

    def __init__(self):
        import qflab
        import qflab.cli
        self.q = qflab
        for name in ("solve_equilibrium", "optimal_funding", "welfare",
                     "solve_alpha_for_budget", "run_round", "ledger_to_csv",
                     "snapshots_to_json"):
            setattr(self, name, getattr(qflab, name))
        self.cli_main = qflab.cli.main
        self.agent = lambda agent: agent


def _rng(seed, r, salt):
    return np.random.default_rng([seed, r, salt])


def concave_value(q, rng):
    """A SQRT, LOG or ISOELASTIC member, drawn as in the test suite."""
    fam = rng.integers(0, 3)
    a = float(rng.uniform(0.5, 5.0))
    if fam == 0:
        return q.ValueFunction.sqrt(a)
    if fam == 1:
        return q.ValueFunction.log(a)
    return q.ValueFunction.isoelastic(a, float(rng.uniform(0.2, 0.8)))


def concave_population(q, rng, n, goods):
    return [q.Citizen(f"c{i}", {g: concave_value(q, rng) for g in goods}) for i in range(n)]


def solved(lib, scenario, **kw):
    result = lib.solve_equilibrium(scenario, **kw)
    if not result.converged:
        raise OpFailed(f"no convergence: residual {result.residual:.3g} "
                       f"after {result.iterations} sweeps")
    return result


# ---------------------------------------------------------------------------


class ConcaveBatch:
    """Vector-engine solves of seeded concave populations under six rules,
    plus budget calibrations, one of which is the known calibration fault."""

    name = "concave_batch"
    trace_rounds = 7
    # (N, goods) per population; every rule is solved on each
    SHAPES = ((30, 4), (150, 2), (150, 2), (1000, 1))
    CALIBRATION_N = 60
    ALPHA_MIN = 0.1
    # The fault op fails at alpha = 1 with this cap as with the default
    # 10,000 sweeps, which would cost 3.3 to 4 s and make its round too long.
    FAULT_MAX_ITERS = 1000

    def __init__(self, lib, seed, workdir):
        self.lib, self.seed, q = lib, seed, lib.q
        self.rules = [q.MechanismConfig.qf(), q.MechanismConfig.cqf(0.5),
                      q.MechanismConfig.cqf(0.25), q.MechanismConfig.one_p_one_v()]
        self.linear_rules = [q.MechanismConfig.private(), q.MechanismConfig.linear_match(2.0)]
        # The calibration fault's repro: a fixed mixed population of 100
        # (numpy seed 9, as the test suite draws it), budget 0.3 x the
        # deficit at alpha = 1, the function's own default damping.
        rng = np.random.default_rng(9)
        cits = [q.Citizen(f"c{i}", {"g": concave_value(q, rng)}) for i in range(100)]
        self.fault_scenario = q.Scenario(cits, ["g"], q.MechanismConfig.cqf(0.5))
        at_one = q.Scenario(cits, ["g"], q.MechanismConfig.cqf(1.0))
        self.fault_budget = 0.3 * q.solve_equilibrium(at_one).deficit
        self.ops(0)

    def ops(self, r):
        q, lib = self.lib.q, self.lib
        ops = []
        for shape_i, (n, n_goods) in enumerate(self.SHAPES):
            goods = [f"g{j}" for j in range(n_goods)]
            cits = concave_population(q, _rng(self.seed, r, shape_i), n, goods)
            patron = [q.Citizen("patron", {g: self._patron_value(cits, g) for g in goods})]
            for cfg in self.rules + self.linear_rules:
                sc = q.Scenario(cits + patron if cfg in self.linear_rules else cits, goods, cfg)
                ops.append(Op(f"solve.{cfg.variant.value}{cfg.alpha or ''}.n{n}",
                              lambda sc=sc: self._solve(sc),
                              lambda out, sc=sc: self._check_solve(sc, out)))
        rng = _rng(self.seed, r, 10)
        cits = concave_population(q, rng, self.CALIBRATION_N, ["g"])
        alpha0 = float(rng.uniform(0.3, 0.9))
        budget = q.solve_equilibrium(
            q.Scenario(cits, ["g"], q.MechanismConfig.cqf(alpha0))).deficit
        sc = q.Scenario(cits, ["g"], q.MechanismConfig.cqf(0.5))
        ops.append(Op(f"calibrate.n{self.CALIBRATION_N}",
                      lambda: lib.solve_alpha_for_budget(
                          sc, budget, alpha_min=self.ALPHA_MIN, damping=0.5),
                      lambda out: self._check_calibration(sc, budget, out, self.ALPHA_MIN)))
        ops.append(Op("calibrate.fault",
                      lambda: lib.solve_alpha_for_budget(
                          self.fault_scenario, self.fault_budget,
                          max_iters=self.FAULT_MAX_ITERS),
                      lambda out: self._check_calibration(
                          self.fault_scenario, self.fault_budget, out, 1e-6),
                      known_failure=(q.PolicyError,)))
        return ops

    def _patron_value(self, cits, good):
        """A SQRT patron whose own target level (V'(F) = 1/scale) is 1.5 x
        everyone else's under PRIVATE and LINEAR_MATCH(2). Under the linear
        rules the damped iteration needs about 2/(damping x gap) sweeps when
        the top two targets are a relative gap apart, and stalls on
        near-ties (README); with a patron the top valuer is unique."""
        mem = oracle.Members([c.id for c in cits], [c.values[good] for c in cits])
        a = 0.0
        for scale in (1.0, 2.0):
            targets = np.where(mem.marginal_at_zero() > 1.0 / scale,
                               mem.inverse_marginal(1.0 / scale), 0.0)
            a = max(a, 2.0 * math.sqrt(1.5 * float(np.max(targets))) / scale)
        return self.lib.q.ValueFunction.sqrt(a)

    def _solve(self, sc):
        result = solved(self.lib, sc)
        optimum = {g: self.lib.optimal_funding(sc, g) for g in sc.goods}
        report = self.lib.welfare(sc, result.funding)
        return result, optimum, report

    def _check_solve(self, sc, out):
        result, optimum, report = out
        errors = oracle.check_equilibrium(sc, result)
        optima = {g: oracle.optimum(oracle.members_of(sc, g)) for g in sc.goods}
        for g, F_star in optimum.items():
            errors += oracle.check_optimal_funding(sc, g, F_star, optima[g])
        return errors + oracle.check_welfare(sc, result.funding, report, optima)

    def _check_calibration(self, sc, budget, alpha, alpha_min):
        q = self.lib.q
        at = q.Scenario(sc.citizens, sc.goods, q.MechanismConfig.cqf(alpha))
        return oracle.check_calibration(at, alpha, budget, q.solve_equilibrium(at),
                                        alpha_min)


# ---------------------------------------------------------------------------


class NonconcaveSolve:
    """Scalar-engine solves: S-shaped threshold goods (two starts, an
    alternate equilibrium), PM_QF with a harmed citizen, and PM_QF under
    shadow prices with deficit-averse outsiders."""

    name = "nonconcave_solve"
    trace_rounds = 7

    def __init__(self, lib, seed, workdir):
        self.lib, self.seed = lib, seed
        self.ops(0)

    def ops(self, r):
        q = self.lib.q
        specs = [("sshaped.QF.n3", 3, q.MechanismConfig.qf())] + \
            [("sshaped.CQF.n4", 4, q.MechanismConfig.cqf(0.5))] * 2
        ops = []
        for i, (kind, n, cfg) in enumerate(specs):
            rng = _rng(self.seed, r, i)
            a, k, m = rng.uniform(16, 24), rng.uniform(0.4, 0.6), rng.uniform(25, 35)
            w = a * (1.0 + 0.05 * rng.uniform(-1, 1, n))
            cits = [q.Citizen(f"c{j}", {"g": q.ValueFunction.sshaped(float(w[j]), float(k),
                                                                     float(m))})
                    for j in range(n)]
            ops.append(self._op(kind, q.Scenario(cits, ["g"], cfg)))
        for i in range(2):
            rng = _rng(self.seed, r, 10 + i)
            # a harmed citizen too weak to drive F to 0: near that kink the
            # scalar best response can hit a NaN (see the README)
            w = rng.uniform(2.0, 6.0, 6)
            harmed = -rng.uniform(0.5, 1.5)
            cits = [q.Citizen(f"c{j}", {"g": q.ValueFunction.sqrt(float(x))})
                    for j, x in enumerate(w)]
            cits.append(q.Citizen("h", {"g": q.ValueFunction.sqrt(float(harmed))}))
            ops.append(self._op("pm_qf.harmed.n6",
                                q.Scenario(cits, ["g"], q.MechanismConfig.pm_qf())))
        # outsiders with lambda much above 0.12 can keep the iteration
        # flipping signs for all 10,000 sweeps (see the README)
        rng = _rng(self.seed, r, 20)
        cits = [q.Citizen(f"c{j}", {"g": q.ValueFunction.sqrt(float(x))})
                for j, x in enumerate(rng.uniform(1.0, 6.0, 6))]
        cits += [q.Citizen(f"o{j}", {}, lam=float(rng.uniform(0.02, 0.12))) for j in range(2)]
        shadow = q.MechanismConfig.pm_qf(deficit_mode=q.DeficitMode.SHADOW_PRICES)
        ops.append(self._op("pm_qf.shadow.n6", q.Scenario(cits, ["g"], shadow)))
        return ops

    def _op(self, kind, sc):
        return Op(kind, lambda: solved(self.lib, sc),
                  lambda out: oracle.check_nonconcave(sc, out))


# ---------------------------------------------------------------------------


class Rounds:
    """Funding rounds with myopic best responders (write-heavy: a scalar best
    response per agent, good and tick) and threshold pledgers (read-heavy:
    every agent-tick replays the log for its delayed view), each exported."""

    name = "rounds"
    trace_rounds = 9

    def __init__(self, lib, seed, workdir):
        self.lib, self.seed = lib, seed
        self.verified = set()
        self.ops(0)

    def ops(self, r):
        q = self.lib.q
        ops = []
        # the paper's coordination failure: myopic play stalls at zero,
        # pledging under a refund guarantee funds the good
        crit = [q.Citizen(f"c{i}", {"g": q.ValueFunction.sshaped(20.0, 0.5, 30.0)})
                for i in range(5)]
        sc = q.Scenario(crit, ["g"], q.MechanismConfig.qf())
        order_seed = int(_rng(self.seed, r, 0).integers(1 << 30))
        ops.append(self._op(
            "criterion12.myopic", sc,
            lambda: {c.id: q.MyopicBestResponse(c, sc.goods) for c in crit},
            15, {}, 0, order_seed, must_fund=False))
        ops.append(self._op(
            "criterion12.pledge", sc,
            lambda: {c.id: q.ThresholdPledger(c.id, {"g": 1.6}) for c in crit},
            15, {"g": 30.0}, 0, order_seed, must_fund=True))
        for delay in (0, 1, 2):
            rng = _rng(self.seed, r, 10 + delay)
            goods = ["g0", "g1"] if delay else ["g0"]
            cfg = q.MechanismConfig.qf() if delay != 1 else q.MechanismConfig.cqf(0.5)
            cits = concave_population(q, rng, 6, goods)
            msc = q.Scenario(cits, goods, cfg)
            ops.append(self._op(
                f"myopic.d{delay}", msc,
                lambda cits=cits, goods=goods: {
                    c.id: q.MyopicBestResponse(c, goods) for c in cits},
                16, {}, delay, int(rng.integers(1 << 30))))
        for delay in (0, 1, 2):
            rng = _rng(self.seed, r, 20 + delay)
            n, ticks = 60, 120
            goods = ["g0", "g1"]
            cits = [q.Citizen(f"p{i}", {}) for i in range(n)]
            shares = rng.uniform(0.5, 2.0, (n, 2))
            # one good well past its threshold, one short of it: both
            # settlement branches run every time
            root = np.sqrt(shares).sum(axis=0)
            thresholds = {"g0": float(0.8 * root[0] ** 2), "g1": float(1.2 * root[1] ** 2)}
            psc = q.Scenario(cits, goods, q.MechanismConfig.qf())
            ops.append(self._op(
                f"pledge.d{delay}", psc,
                lambda shares=shares: {
                    f"p{i}": q.ThresholdPledger(f"p{i}", {"g0": float(shares[i, 0]),
                                                          "g1": float(shares[i, 1])})
                    for i in range(n)},
                ticks, thresholds, delay, int(rng.integers(1 << 30))))
        return ops

    def _op(self, kind, sc, make_agents, ticks, thresholds, delay, order_seed,
            must_fund=None):
        lib, q = self.lib, self.lib.q

        def run():
            agents = {cid: lib.agent(a) for cid, a in make_agents().items()}
            ledger = lib.run_round(sc, agents, ticks, q.AssurancePolicy(dict(thresholds)),
                                   delay=delay, seed=order_seed)
            return ledger, lib.ledger_to_csv(ledger), lib.snapshots_to_json(ledger)

        def check(out):
            ledger, csv_text, snaps = out
            refunds = {g: s.refunds for g, s in ledger.settlement.items()}
            errors = oracle.check_round(oracle.rule_of(sc.mechanism), sc.goods, delay,
                                        thresholds, csv_text, snaps, ticks, refunds)
            status = ledger.settlement["g"].status.value if must_fund is not None else None
            if must_fund is True and status != "FUNDED":
                errors.append("pledging under a refund guarantee did not fund the good")
            if must_fund is False and ledger.settlement["g"].funding != 0.0:
                errors.append("myopic play funded the threshold good")
            if kind not in self.verified:
                # replay determinism, once per kind of op and run
                self.verified.add(kind)
                again = q.run_round(sc, make_agents(), ticks,
                                    q.AssurancePolicy(dict(thresholds)),
                                    delay=delay, seed=order_seed)
                if q.ledger_to_csv(again) != csv_text:
                    errors.append("same inputs and seed gave a different ledger")
            return errors

        return Op(kind, run, check)


# ---------------------------------------------------------------------------


class Cli:
    """qflab.cli.main(argv) in-process on files written at set-up: three
    fund runs on a 100,000-row CSV, two equilibria of 500 citizens x 4
    goods, an alpha sweep, a round, and the two attack calculators. Interpreter start and the
    import of qflab.cli are part of set-up (setup_s, cli.import_ms)."""

    name = "cli"
    trace_rounds = 7

    def __init__(self, lib, seed, workdir):
        self.lib, self.seed = lib, seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 0xC11])
        # contributions: 25,000 citizens x 4 goods
        amounts = rng.uniform(0.01, 100.0, (25_000, 4))
        lines = ["citizen_id,good_id,amount"]
        lines += [f"c{i},g{j},{x!r}" for i, row in enumerate(amounts.tolist())
                  for j, x in enumerate(row)]
        self.contributions = self.dir / "contributions.csv"
        self.contributions.write_text("\n".join(lines) + "\n")
        self.roots = [math.fsum(np.sqrt(amounts[:, j]).tolist()) for j in range(4)]
        self.sums = [math.fsum(amounts[:, j].tolist()) for j in range(4)]
        # equilibrium: two CQF scenarios of 500 citizens x 4 goods
        self.equilibria = []
        for i in range(2):
            path, spec = self._scenario(f"equilibrium{i}.json", rng, 500, 4,
                                        {"variant": "CQF", "alpha": float(rng.uniform(0.2, 0.8))})
            self.equilibria.append((path, self._checker_scenario(spec)))
        self.sweep_path, _ = self._scenario("sweep.json", rng, 80, 2,
                                            {"variant": "CQF", "alpha": 0.5})
        # round: 40 pledgers on two goods, one threshold met, one missed
        shares = rng.uniform(0.5, 2.0, (40, 2))
        root = np.sqrt(shares).sum(axis=0)
        self.round_thresholds = {"g0": float(0.8 * root[0] ** 2),
                                 "g1": float(1.2 * root[1] ** 2)}
        spec = {"mechanism": {"variant": "QF"}, "goods": ["g0", "g1"],
                "citizens": [{"id": f"p{i}", "values": {}} for i in range(40)],
                "round": {"window_end": 60, "seed": int(rng.integers(1 << 30)), "delay": 1,
                          "assurance": self.round_thresholds,
                          "agents": {f"p{i}": {"policy": "threshold_pledger",
                                               "shares": {"g0": float(shares[i, 0]),
                                                          "g1": float(shares[i, 1])}}
                                     for i in range(40)}}}
        self.round_path = self.dir / "round.json"
        self.round_path.write_text(json.dumps(spec))
        self.ops(0)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _scenario(self, name, rng, n, n_goods, mechanism):
        def vf():
            fam = int(rng.integers(0, 3))
            a = float(rng.uniform(0.5, 5.0))
            if fam == 2:
                return {"family": "ISOELASTIC", "params": {"a": a, "rho": float(rng.uniform(0.2, 0.8))}}
            return {"family": ("SQRT", "LOG")[fam], "params": {"a": a}}
        spec = {"mechanism": mechanism, "goods": [f"g{j}" for j in range(n_goods)],
                "citizens": [{"id": f"c{i}", "values": {f"g{j}": vf() for j in range(n_goods)}}
                             for i in range(n)]}
        path = self.dir / name
        path.write_text(json.dumps(spec))
        return path, spec

    def _checker_scenario(self, spec):
        """The checker's copy of a CQF scenario, built from the spec rather
        than parsed by qflab."""
        q = self.lib.q
        make = {"SQRT": q.ValueFunction.sqrt, "LOG": q.ValueFunction.log,
                "ISOELASTIC": q.ValueFunction.isoelastic}
        cits = [q.Citizen(c["id"], {g: make[v["family"]](**v["params"])
                                    for g, v in c["values"].items()})
                for c in spec["citizens"]]
        return q.Scenario(cits, spec["goods"], q.MechanismConfig.cqf(spec["mechanism"]["alpha"]))

    def _main(self, argv, out_name):
        out = self.dir / out_name
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli_main(argv + ["--out", str(out)])
        if code != 0:
            raise OpFailed(f"exit code {code} for {argv[0]}")
        return out.read_text()

    def ops(self, r):
        rng = _rng(self.seed, r, 0xC11)
        alpha = float(rng.choice([0.05, 0.1, 0.2, 0.25, 0.5]))
        k, x = int(rng.integers(2, 200)), float(rng.uniform(0.5, 500.0))
        n, c = int(rng.integers(2, 500)), float(rng.uniform(1.0, 5000.0))
        d = str(self.dir)
        # nine ops, so that the median falls inside the equilibrium pair and
        # the p75 inside the three fund runs, not between two kinds of op
        return [
            Op("attack.fraud",
               lambda: self._main(["attack", "--fraud", "--alpha", repr(alpha), "--k", str(k),
                                   "--x", repr(x), "--format", "json"], "fraud.json"),
               lambda out: _expect(json.loads(out)["received"], alpha * (k * k * x), "received")),
            Op("attack.cartel",
               lambda: self._main(["attack", "--cartel", "--alpha", repr(alpha), "--n", str(n),
                                   "--c", repr(c), "--format", "json"], "cartel.json"),
               lambda out: _expect(json.loads(out)["pool"], alpha * (n * n * c), "pool")),
            Op("round",
               lambda: self._main(["round", str(self.round_path), "--snapshots-out",
                                   f"{d}/snapshots.json"], "ledger.csv"),
               self._check_round),
            # alpha = 1 is left out: CQF(1.0) failed to converge on the
            # sweep scenario of 1 seed in about 500 (README)
            Op("sweep",
               lambda: self._main(["sweep", str(self.sweep_path), "--param", "alpha",
                                   "--grid", "0.2,0.5,0.8"], "sweep.csv"),
               _check_sweep),
        ] + [
            Op("equilibrium",
               lambda path=path: self._main(["equilibrium", str(path), "--format", "json"],
                                            "equilibrium.out.json"),
               lambda out, sc=sc: self._check_equilibrium(sc, out))
            for path, sc in self.equilibria
        ] + [
            Op("fund.json",
               lambda: self._main(["fund", str(self.contributions), "--variant", "QF",
                                   "--format", "json"], "fund.json"),
               lambda out: self._check_fund(out, [x * x for x in self.roots], "(sum sqrt c)^2")),
            Op("fund.csv",
               lambda: self._main(["fund", str(self.contributions), "--variant", "CQF",
                                   "--alpha", repr(alpha), "--format", "csv"], "fund.csv"),
               lambda out: self._check_fund_csv(out, alpha)),
            Op("fund.linear",
               lambda: self._main(["fund", str(self.contributions), "--variant", "LINEAR_MATCH",
                                   "--scale", "2", "--format", "json"], "fund.linear.json"),
               lambda out: self._check_fund(out, [2.0 * x for x in self.sums], "2 sum c")),
        ]

    def _check_fund(self, out, want, formula):
        got = json.loads(out)["funding"]
        return [f"fund g{j}: {got[f'g{j}']!r}, {formula} = {w:.12g}"
                for j, w in enumerate(want) if f"{got[f'g{j}']:.12g}" != f"{w:.12g}"]

    def _check_fund_csv(self, out, alpha):
        rows = [line.split(",") for line in out.splitlines()[2:6]]
        errors = []
        for j, row in enumerate(rows):
            want = alpha * self.roots[j] ** 2 + (1.0 - alpha) * self.sums[j]
            if row[0] != f"g{j}" or row[1] != f"{want:.12g}":
                errors.append(f"fund csv {row}: want g{j},{want:.12g}")
        return errors

    def _check_equilibrium(self, scenario, out):
        data = json.loads(out)
        contributions = {
            g: SimpleNamespace(entries=[SimpleNamespace(citizen_id=cid, amount=abs(v),
                                                        sign=1 if v >= 0 else -1)
                                        for cid, v in entries.items()])
            for g, entries in data["contributions"].items()}
        result = SimpleNamespace(contributions=contributions,
                                 funding={row["good_id"]: row["funding"] for row in data["goods"]})
        errors = oracle.check_equilibrium(scenario, result)
        if data["diagnostics"]["converged"] is not True:
            errors.append("equilibrium reports no convergence")
        return errors

    def _check_round(self, out):
        snaps = (self.dir / "snapshots.json").read_text()
        return oracle.check_round(("QF", None), ["g0", "g1"], 1, self.round_thresholds,
                                  out, snaps, 60)


def _expect(got, want, what):
    return [] if f"{got:.12g}" == f"{want:.12g}" else [f"{what} {got!r}, want {want!r}"]


def _check_sweep(out):
    lines = out.splitlines()
    header = lines[0].split(",")
    errors = [] if len(lines) == 4 else [f"sweep has {len(lines) - 1} rows, want 3"]
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row.get("error"):
            errors.append(f"sweep row alpha={row.get('value')}: {row['error']}")
    return errors


WORKLOADS = {w.name: w for w in (ConcaveBatch, NonconcaveSolve, Rounds, Cli)}
