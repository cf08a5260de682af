"""Welfare accounting, budget calibration, and attack profitability.

The attack calculators are closed-form, not equilibrium-based: a fraud ring
or cartel fixes its contribution levels, so profitability is plain
arithmetic in the rule's parameters. Two accountings are exposed for the
CQF take: quadratic-only counts just the matched component
alpha*(sum sqrt c)**2, full adds the (1-alpha) pass-through of the ring's
own money.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import PolicyError
from .mechanisms import ContributionProfile, MechanismConfig, Variant, fund_qf, funding_gradient
from .equilibrium import (
    EquilibriumResult,
    Scenario,
    optimal_funding,
    solve_equilibrium,
)


class AttackAccounting(str, Enum):
    QUADRATIC_ONLY = "quadratic-only"
    FULL = "full"


class Sharing(str, Enum):
    EQUAL = "equal"
    PROPORTIONAL = "proportional"


class JensenDirection(str, Enum):
    UNDER = "UNDER"
    EXACT = "EXACT"
    OVER = "OVER"


@dataclass(frozen=True)
class GoodWelfare:
    gross: float
    cost: float
    optimum: float  # the good's welfare-optimal funding level

    @property
    def net(self) -> float:
        return self.gross - self.cost


@dataclass(frozen=True)
class WelfareReport:
    per_good: dict[str, GoodWelfare]
    total: float
    optimum_total: float
    efficiency_ratio: float


@dataclass(frozen=True)
class AttackReport:
    paid: float
    received: float
    breakeven_size: int
    accounting_mode: AttackAccounting

    @property
    def profit(self) -> float:
        return self.received - self.paid


@dataclass(frozen=True)
class CartelReport:
    pool: float
    member_share: float
    complying_net: float
    defector_pool: float
    defector_share: float
    defector_net: float
    defection_gain: float
    sharing: Sharing


@dataclass(frozen=True)
class InfluenceIdentityCheck:
    """Largest per-citizen violation of the proportional-influence identity
    dF/dc_j * sqrt(c_j) = sum_i sqrt(c_i) under QF, by each gradient route."""

    analytic: float
    finite_difference: float


def welfare(scenario: Scenario, funding: dict[str, float]) -> WelfareReport:
    """Net welfare sum_p [sum_i V_i(F_p) - F_p] at the given funding levels,
    against the per-good optimum."""
    per_good = {}
    total_terms = []
    opt_terms = []
    for good in scenario.goods:
        if good not in funding:
            raise ValueError(f"no funding level supplied for good {good!r}")
        F = funding[good]
        vals = [c.values[good] for c in scenario.citizens if good in c.values]
        gross = math.fsum(vf.value(F) for vf in vals)
        F_star = optimal_funding(scenario, good)
        per_good[good] = GoodWelfare(gross=gross, cost=F, optimum=F_star)
        total_terms.append(gross - F)
        opt_terms.append(math.fsum(vf.value(F_star) for vf in vals) - F_star)
    total = math.fsum(total_terms)
    optimum = math.fsum(opt_terms)
    if optimum > 0:
        ratio = total / optimum
    elif total == optimum:
        ratio = 1.0
    else:
        ratio = -math.inf
    return WelfareReport(per_good=per_good, total=total,
                         optimum_total=optimum, efficiency_ratio=ratio)


def solve_alpha_for_budget(scenario: Scenario, budget: float,
                           alpha_tol: float = 1e-4,
                           alpha_min: float = 1e-6,
                           **solver_kwargs) -> float:
    """Largest CQF mixing weight whose equilibrium deficit fits the budget.

    Outer bisection on alpha: each trial re-solves the equilibrium and
    compares its deficit to the budget. Returns 1.0 when even the pure
    quadratic rule fits, and the smallest representable trial when no
    alpha does (the deficit vanishes only in the alpha -> 0 limit).
    ``solver_kwargs`` pass through to ``solve_equilibrium``. The bisection
    stops at a bracket ``alpha_tol`` wide or where its midpoint stops moving.
    """
    if not budget >= 0:
        raise ValueError(f"budget must be nonnegative, got {budget!r}")
    if not 0.0 < alpha_tol < math.inf:
        raise ValueError(f"alpha_tol must be a positive finite real, got {alpha_tol!r}")
    if not 0.0 < alpha_min <= 1.0:
        raise ValueError(f"alpha_min must lie in (0, 1], got {alpha_min!r}")
    if scenario.mechanism.variant is not Variant.CQF:
        raise ValueError("budget calibration applies to the CQF variant")

    def deficit_at(alpha: float) -> float:
        cfg = MechanismConfig.cqf(alpha, deficit_mode=scenario.mechanism.deficit_mode)
        result = solve_equilibrium(replace(scenario, mechanism=cfg), **solver_kwargs)
        if not result.converged:
            raise PolicyError(f"no certified equilibrium at alpha={alpha}: "
                              f"residual {result.residual:.3g}")
        return result.deficit

    if deficit_at(1.0) <= budget:
        return 1.0
    lo, hi = alpha_min, 1.0
    if deficit_at(lo) > budget:
        return lo
    while hi - lo > alpha_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if deficit_at(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def distortion_uniformity(result: EquilibriumResult, alpha: float) -> float:
    """Worst relative deviation of a funded good's aggregate marginal value
    from the common distortion 1/alpha. Unfunded goods are excluded."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    target = 1.0 / alpha
    deviations = [
        abs(result.marginal_report[g] - target) / target
        for g, F in result.funding.items()
        if F > 1e-12
    ]
    if not deviations:
        raise ValueError("no funded goods to audit")
    return max(deviations)


def influence_identity_check(profile: ContributionProfile) -> InfluenceIdentityCheck:
    """Verify that under QF each contributor's funding gradient equals the
    pool of square roots divided by her own square root.

    Checked with the closed-form gradient and with central finite
    differences (step 1e-6 * max(c, 1)). Requires an interior profile.
    """
    ids, amounts = profile.citizen_ids, profile.amounts
    if not ids:
        raise ValueError("profile is empty")
    if min(amounts) <= 0 or -1 in profile.signs:
        raise ValueError("identity check needs an interior all-positive profile")
    root_sum = math.fsum(map(math.sqrt, amounts))
    cfg = MechanismConfig.qf()
    err_an, err_fd = 0.0, 0.0

    def bumped(i, amount):
        return ContributionProfile.from_columns(
            profile.good_id, ids, amounts[:i] + (amount,) + amounts[i + 1:])

    for i, (cid, c) in enumerate(zip(ids, amounts)):
        grad = funding_gradient(profile, cfg, cid)
        err_an = max(err_an, abs(grad * math.sqrt(c) / root_sum - 1.0))
        h = 1e-6 * max(c, 1.0)
        grad_fd = (fund_qf(bumped(i, c + h)) - fund_qf(bumped(i, c - h))) / (2.0 * h)
        err_fd = max(err_fd, abs(grad_fd * math.sqrt(c) / root_sum - 1.0))
    return InfluenceIdentityCheck(analytic=err_an, finite_difference=err_fd)


def fraud_arbitrage(alpha: float, identities: int, per_identity: float,
                    accounting: AttackAccounting = AttackAccounting.QUADRATIC_ONLY,
                    ) -> AttackReport:
    """Return on one actor splitting her money across k fake identities
    under CQF: she pays k*x and the matched pot is alpha*(k*sqrt(x))**2.

    breakeven_size is the identity count at which the matched take alone
    repays the outlay (profit is strictly positive beyond it).
    """
    if identities < 1:
        raise ValueError("identities must be at least 1")
    if not 0 < per_identity < math.inf:
        raise ValueError(f"per_identity must be a positive finite real, got {per_identity!r}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    k, x = identities, per_identity
    paid = k * x
    # single rounding keeps the worked integer cases exact in floats
    received = alpha * (k * k * x)
    if accounting is AttackAccounting.FULL:
        received += (1.0 - alpha) * (k * x)
    b = 1.0 / alpha
    breakeven = round(b) if abs(b - round(b)) < 1e-9 else math.ceil(b)
    return AttackReport(paid=paid, received=received,
                        breakeven_size=int(breakeven), accounting_mode=accounting)


def cartel_defection(alpha: float, members: int, contribution: float,
                     sharing: Sharing = Sharing.EQUAL) -> CartelReport:
    """Payoffs inside a perfectly coordinated ring and for a single defector.

    The pool is the quadratic-only take alpha*(n*sqrt(c))**2, shared among
    the ring with contributions sunk. A defector contributes nothing; under
    equal sharing she still draws a 1/n share of the shrunken pool, under
    proportional sharing she draws nothing.
    """
    if members < 2:
        raise ValueError("a cartel needs at least 2 members")
    if not 0 < contribution < math.inf:
        raise ValueError(f"contribution must be a positive finite real, got {contribution!r}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    n, c = members, contribution
    pool = alpha * (n * n * c)
    member_share = pool / n
    complying_net = member_share - c
    defector_pool = alpha * ((n - 1) * (n - 1) * c)
    if sharing is Sharing.EQUAL:
        defector_share = defector_pool / n
    else:
        defector_share = 0.0
    defector_net = defector_share  # pays nothing in
    return CartelReport(
        pool=pool, member_share=member_share, complying_net=complying_net,
        defector_pool=defector_pool, defector_share=defector_share,
        defector_net=defector_net, defection_gain=defector_net - complying_net,
        sharing=sharing,
    )


def jensen_direction(beta: float) -> JensenDirection:
    """Funding bias of the power-family rule relative to the optimum:
    beta below 2 underfunds, 2 is exact, above 2 overfunds."""
    if not beta >= 1.0:
        raise ValueError(f"beta must be >= 1, got {beta!r}")
    if abs(beta - 2.0) < 1e-12:
        return JensenDirection.EXACT
    return JensenDirection.UNDER if beta < 2.0 else JensenDirection.OVER
