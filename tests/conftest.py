import math
import random

import numpy as np
import pytest

from qflab import (
    AgentView,
    AssurancePolicy,
    Citizen,
    DeficitMode,
    MechanismConfig,
    RoundEvent,
    RoundLedger,
    Scenario,
    ValueFunction,
    Variant,
    assurance_settlement,
    provisional_snapshot,
)
from qflab import equilibrium


def sqrt_scenario(weights, config=None, lam=0.0, good="g"):
    citizens = [
        Citizen(f"c{i}", {good: ValueFunction.sqrt(a)}, lam=lam)
        for i, a in enumerate(weights)
    ]
    return Scenario(citizens, [good], config or MechanismConfig.qf())


def random_concave_citizens(rng, n, good="g"):
    citizens = []
    for i in range(n):
        fam = rng.integers(0, 3)
        a = float(rng.uniform(0.5, 5.0))
        if fam == 0:
            vf = ValueFunction.sqrt(a)
        elif fam == 1:
            vf = ValueFunction.log(a)
        else:
            vf = ValueFunction.isoelastic(a, float(rng.uniform(0.2, 0.8)))
        citizens.append(Citizen(f"c{i}", {good: vf}))
    return citizens


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


# ---------------------------------------------------------------------------
# independent oracles, shared by the equilibrium and acceptance suites;
# every formula here is retyped from its definition, not imported


def oracle_value(vf, F):
    if vf is None:
        return np.zeros_like(np.asarray(F, dtype=float))
    F = np.asarray(F, dtype=float)
    if vf.family.value == "SQRT":
        return vf.a * np.sqrt(F)
    if vf.family.value == "LOG":
        return vf.a * np.log(1.0 + F)
    if vf.family.value == "ISOELASTIC":
        return vf.a * F**vf.rho
    z = np.clip(vf.k * (F - vf.m), -700, 700)
    sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                   np.exp(z) / (1.0 + np.exp(z)))
    off = 1.0 / (1.0 + math.exp(min(vf.k * vf.m, 700.0)))
    return vf.a * (sig - off)


def oracle_funding(config, s_o, A_o, Y_o, c, sign=1):
    c = np.asarray(c, dtype=float)
    v = config.variant
    if v is Variant.PRIVATE:
        return A_o + c
    if v is Variant.LINEAR_MATCH:
        return config.scale * (A_o + c)
    if v in (Variant.QF, Variant.PM_QF):
        return (s_o + sign * np.sqrt(c)) ** 2
    if v is Variant.CQF:
        return config.alpha * (s_o + np.sqrt(c)) ** 2 \
            + (1 - config.alpha) * (A_o + c)
    return (Y_o + c ** (1.0 / config.beta)) ** config.beta


def golden_refine(f, lo, hi, iters=90):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = f(c2)
    return 0.5 * (a + b)


def oracle_best_response(citizen, good, others, config, c_max):
    """Brute force: 1e4-point geometric grid plus golden-section refinement."""
    entries = others.nonzero()
    s_o = math.fsum(e.sign * math.sqrt(e.amount) for e in entries)
    A_o = math.fsum(e.amount for e in entries)
    Y_o = math.fsum(e.amount ** (1.0 / config.beta) for e in entries) \
        if config.variant is Variant.BETA else 0.0
    lam = citizen.lam if config.deficit_mode is DeficitMode.SHADOW_PRICES else 0.0
    vf = citizen.values.get(good)
    signs = (1, -1) if config.variant is Variant.PM_QF else (1,)

    def utility(c, sign):
        F = oracle_funding(config, s_o, A_o, Y_o, c, sign)
        return oracle_value(vf, F) - c - lam * (F - (A_o + c))

    best_c, best_u = 0.0, float(utility(np.array(0.0), 1))
    for sign in signs:
        grid = np.geomspace(1e-9, c_max, 10_000)
        ug = utility(grid, sign)
        i = int(np.argmax(ug))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, grid.size - 1)]
        c_ref = golden_refine(lambda c: float(utility(np.array(c), sign)), lo, hi)
        u_ref = float(utility(np.array(c_ref), sign))
        if u_ref > best_u + 1e-12 * max(1.0, abs(best_u)):
            best_c, best_u = c_ref, u_ref
    return best_c


# ---------------------------------------------------------------------------
# the grid route, to compare the first-order route against


def grid_route(vf, shape, T_o, A_o):
    """The grid scan's positive-branch maximiser, shaped as
    ``equilibrium._first_order_response``: patched in, it sends first-order
    members through the grid scan and the same candidate and tie logic."""
    obj = equilibrium._Objective(vf, 0.0, shape, 1, T_o, A_o)
    return equilibrium._maximize_branch(obj)[0]


# ---------------------------------------------------------------------------
# the eager agent-tick loop, to compare run_round against


def reference_run_round(scenario, agents, window_end, assurance=None, delay=0,
                        seed=0):
    """``run_round`` with the agent-tick loop it had before views were pinned:
    every agent-tick copies the whole delayed state out of the ledger, rebuilds
    the agent's holdings from ``committed`` (every good it has an event on,
    after the scenario's goods) and builds its view by keyword from them."""
    policy = assurance or AssurancePolicy()
    ledger = RoundLedger(window_end)
    rng = random.Random(seed)
    ids = sorted(agents)
    for tick in range(window_end):
        order = ids[:]
        rng.shuffle(order)
        for cid in order:
            delayed = ledger.commitments_by_good(as_of=tick - delay)
            goods = dict.fromkeys(scenario.goods)
            goods.update(dict.fromkeys(e.good_id for e in ledger.events
                                       if e.citizen_id == cid))
            own = {g: ledger.committed(cid, g) for g in goods}
            view = AgentView(tick=tick, delayed_commitments=delayed,
                             own_committed=own, config=scenario.mechanism,
                             assurance=policy)
            action = agents[cid].propose(view)
            if action is None:
                continue
            good, kind, amount = action
            ledger.apply(RoundEvent(tick, cid, good, kind, amount))
        ledger.snapshots.append(
            (tick, provisional_snapshot(ledger, tick, scenario.mechanism, delay,
                                        goods=scenario.goods)))
    assurance_settlement(ledger, policy, scenario.mechanism, goods=scenario.goods)
    return ledger
