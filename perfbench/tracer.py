"""Per-layer timing and counts, taken from outside qflab.

The tracer swaps timing wrappers into the workloads' ``Lib`` and into the
module globals that qflab's own callers look up (``analysis`` calls
``solve_equilibrium``; ``cli`` calls the parsers, ``evaluate_outcome`` and
``solve_equilibrium``), and wraps each round agent the benchmark passes in.
Time is summed over the traced run; counts are exact.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

perf = time.perf_counter


class TracedAgent:
    def __init__(self, agent, tracer):
        self.agent, self.tracer = agent, tracer

    def propose(self, view):
        t0 = perf()
        try:
            return self.agent.propose(view)
        finally:
            self.tracer.ms["rounds.policy_ms"] += (perf() - t0) * 1e3
            self.tracer.n["rounds.propose_calls"] += 1


class Tracer:
    def __init__(self, lib):
        import qflab.analysis
        import qflab.cli
        import qflab.equilibrium
        self.ms = defaultdict(float)
        self.n = defaultdict(int)
        self.cli_calls = defaultdict(list)
        self.q = lib.q
        self._patched = []
        solve = self._solve(qflab.equilibrium.solve_equilibrium)
        lib.solve_equilibrium = solve
        self._patch(qflab.analysis, "solve_equilibrium", solve)
        self._patch(qflab.cli, "solve_equilibrium", solve)
        for mod, name, key in (
                (qflab.cli, "parse_scenario", "scenario_io.parse_scenario_ms"),
                (qflab.cli, "parse_contributions_csv", "scenario_io.parse_contributions_ms"),
                (qflab.cli, "evaluate_outcome", "mechanisms.fund_ms")):
            self._patch(mod, name, self._timed(key, getattr(mod, name)))
        lib.optimal_funding = self._timed("equilibrium.optimal_funding_ms", lib.optimal_funding)
        lib.welfare = self._timed("analysis.welfare_ms", lib.welfare)
        lib.solve_alpha_for_budget = self._calibration(lib.solve_alpha_for_budget)
        lib.run_round = self._run_round(lib.run_round)
        lib.ledger_to_csv = self._timed("rounds.export_ms", lib.ledger_to_csv)
        lib.snapshots_to_json = self._timed("rounds.export_ms", lib.snapshots_to_json)
        lib.agent = lambda agent: TracedAgent(agent, self)
        lib.cli_main = self._cli_main(lib.cli_main)

    def _patch(self, module, name, fn):
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, fn)

    def restore(self):
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)

    def _timed(self, key, fn):
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[key] += (perf() - t0) * 1e3
        return wrapper

    def _solve(self, fn):
        q = self.q

        def members(scenario, good, engine):
            if engine == "vector":
                return sum(1 for c in scenario.citizens
                           if good in c.values and c.values[good].a > 0)
            shadow_pm = (scenario.mechanism.variant is q.Variant.PM_QF and
                         scenario.mechanism.deficit_mode is q.DeficitMode.SHADOW_PRICES)
            return sum(1 for c in scenario.citizens
                       if good in c.values or (shadow_pm and c.lam > 0))

        def wrapper(scenario, *args, **kwargs):
            t0 = perf()
            result = fn(scenario, *args, **kwargs)
            elapsed = (perf() - t0) * 1e3
            diagnostics = result.diagnostics
            for good, d in diagnostics.items():
                self.ms[f"equilibrium.{d.engine}.solve_ms"] += elapsed / len(diagnostics)
                if d.engine in ("vector", "scalar"):
                    self.n[f"equilibrium.{d.engine}.sweeps"] += d.iterations
                    self.n[f"{d.engine}.member_sweeps"] += (
                        members(scenario, good, d.engine) * d.iterations)
            if result.alternate is not None:
                self.n["equilibrium.scalar.alternates"] += 1
            if not result.converged:
                self.n["equilibrium.nonconverged"] += 1
            return result
        return wrapper

    def _calibration(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except self.q.PolicyError:
                self.n["analysis.calibration_failed"] += 1
                raise
            finally:
                self.ms["analysis.calibration_ms"] += (perf() - t0) * 1e3
        return wrapper

    def _run_round(self, fn):
        def wrapper(scenario, agents, window_end, *args, **kwargs):
            t0 = perf()
            ledger = fn(scenario, agents, window_end, *args, **kwargs)
            self.ms["rounds.run_round_ms"] += (perf() - t0) * 1e3
            self.n["rounds.events"] += len(ledger.events)
            self.n["rounds.agent_ticks"] += len(agents) * window_end
            return ledger
        return wrapper

    def _cli_main(self, fn):
        def wrapper(argv):
            t0 = perf()
            try:
                return fn(argv)
            finally:
                self.cli_calls[argv[0]].append((perf() - t0) * 1e3)
        return wrapper

    def metrics(self, import_ms, traced_ops_per_s):
        """Every per-layer metric; a layer the workload never calls reads 0."""
        out = defaultdict(float, self.ms)
        out.update(self.n)
        out["rounds.self_ms"] = self.ms["rounds.run_round_ms"] - self.ms["rounds.policy_ms"]
        vector_ms = self.ms["equilibrium.vector.solve_ms"]
        scalar_ms = self.ms["equilibrium.scalar.solve_ms"]
        out["equilibrium.vector.us_per_member_sweep"] = (
            1e3 * vector_ms / self.n["vector.member_sweeps"] if self.n["vector.member_sweeps"] else 0.0)
        out["equilibrium.scalar.ms_per_member_sweep"] = (
            scalar_ms / self.n["scalar.member_sweeps"] if self.n["scalar.member_sweeps"] else 0.0)
        for command in ("attack", "fund", "equilibrium", "sweep", "round"):
            calls = self.cli_calls.get(command)
            out[f"cli.main_ms.{command}"] = statistics.median(calls) if calls else 0.0
        out["cli.import_ms"] = import_ms
        out["traced.ops_per_s"] = traced_ops_per_s
        return out
