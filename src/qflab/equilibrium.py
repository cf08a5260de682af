"""Contribution-game equilibria and welfare benchmarks.

The central entry point is ``solve_equilibrium``. Goods are independent by
assumption, and every rule is F = alpha*T**beta + (1 - alpha)*scale*A, with
T = sum_i sign_i*c_i**(1/beta) and A = sum_i c_i (the rule's ``RuleShape``,
in mechanisms). The game is aggregative in T (Cornes & Hartley 2007): each
member's first-order condition fixes their share w_i(F) of T from the
funding level alone (``_shares``), so a good's candidate equilibria are
F = 0 and the roots of sum_i w_i(F) = 1. Two engines find them:

* the vector engine, for regular goods (every member concave with a > 0
  and a shadow price below 1, or of 0 under PM_QF), where the sum falls
  in F and its one root is found by a bracketed root-find. Under the
  linear rules (alpha = 0) only the members with the largest target level
  pay.
* the scalar engine, for the rest (S-shaped values, harmed citizens and
  shadow prices under PM_QF, shadow prices of 1 or more), which
  scans the sum for every root and certifies each candidate against every
  member's exact best response (``solve_equilibrium`` has the details).

A best response sees the others only through their aggregates T_o and
A_o: a contribution c with sign s gives F = funding(T_o + s*c**(1/beta),
A_o + c). It takes one of two routes (``best_response_full``, the
certificate and the myopic round agents all share it):

* the first-order route, for a concave family with a > 0, no shadow price
  and an unsigned rule. Each such rule makes F concave in c, so the
  utility is too, and the best response is 0 or the one root of du/dc = 0
  (the replacement function of aggregative games): closed form under the
  linear rules and for SQRT under QF, otherwise a bracketed root in
  y = c**(1/beta).
* the grid route, for everyone else (S-shaped values, harmed citizens,
  PM_QF's two sign branches, shadow prices): a grid scan over a geometric
  lattice, its maximum refined to the root of du/dc in a neighbouring cell.

Every level, root and maximum is a root found by Brent's root finder on
Python floats (``qflab._brent``); a maximum is the root of its derivative.
A good without a certified equilibrium is a diagnostic result, never an
exception.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._brent import brentq
from .errors import NoSolutionError, PolicyError
from .mechanisms import (
    ContributionProfile,
    DeficitMode,
    FundingOutcome,
    MechanismConfig,
    Variant,
    fund,
    settle_deficit,
)
from .preferences import Citizen, Family, ValueFunction, aggregate_marginal, family_marginal


@dataclass
class Scenario:
    """A society: citizens, the goods they may fund, and the active rule."""

    citizens: list[Citizen]
    goods: list[str]
    mechanism: MechanismConfig

    def __post_init__(self):
        if not self.citizens:
            raise ValueError("scenario needs at least one citizen")
        ids = [c.id for c in self.citizens]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate citizen ids")
        known = set(self.goods)
        for c in self.citizens:
            missing = set(c.values) - known
            if missing:
                raise ValueError(
                    f"citizen {c.id!r} values unknown goods: {sorted(missing)}")

    @property
    def aggregate_lambda(self) -> float:
        return math.fsum(c.lam for c in self.citizens)


@dataclass(frozen=True)
class BestResponseResult:
    amount: float
    sign: int
    utility: float
    multi_optimum: bool


@dataclass(frozen=True)
class GoodDiagnostics:
    converged: bool
    iterations: int
    residual: float
    engine: str


@dataclass
class EquilibriumResult:
    contributions: dict[str, ContributionProfile]
    funding: dict[str, float]
    deficit: float
    taxes: dict[str, float]
    marginal_report: dict[str, float]
    converged: bool
    iterations: int
    residual: float
    diagnostics: dict[str, GoodDiagnostics] = field(default_factory=dict)
    alternate: "EquilibriumResult | None" = None


# ---------------------------------------------------------------------------
# welfare-optimal benchmarks


def _valuing(scenario: Scenario, good_id: str):
    return [(c, c.values[good_id]) for c in scenario.citizens if good_id in c.values]


def _geomspace(lo: float, hi: float, num: int) -> np.ndarray:
    """``np.geomspace(lo, hi, num)`` for 0 < lo < hi, with its bits: powers
    of ten evenly spaced in the exponent, as its ``linspace`` spaces them,
    with the ends set to lo and hi. It skips the sign, dtype and array
    handling that costs the numpy function most of its time."""
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    y = np.arange(num, dtype=float)
    y *= (log_hi - log_lo) / (num - 1)
    y += log_lo
    out = np.power(10.0, y)
    out[0], out[-1] = lo, hi
    return out


def _level_grid(vfs, settled) -> np.ndarray:
    """Funding levels on which to scan a good, sorted without repeats
    (np.unique would import numpy.ma): 0, 3000 geometric from 1e-9*F_hi and
    3000 linear up to F_hi. F_hi is the first doubling from 1 past 1e250 or
    at which every value is past its hump_end and ``settled(F_hi)`` holds."""
    F_hi = 1.0
    while F_hi < 1e250:
        if all(F_hi >= vf.hump_end for vf in vfs) and settled(F_hi):
            break
        F_hi *= 2.0
    levels = np.sort(np.concatenate([
        [0.0],
        _geomspace(1e-9 * max(F_hi, 1.0), F_hi, 3000),
        np.linspace(0.0, F_hi, 3000),
    ]))
    return levels[np.append(True, levels[1:] != levels[:-1])]


def _global_welfare_argmax(vfs: list[ValueFunction], cost: float) -> float:
    """Global argmax of sum_i V_i(F) - cost*F over F >= 0: the grid maximum
    on ``_level_grid``, refined to the root of the derivative beside it
    (``_refine``), or 0 where net welfare there is not positive. Handles
    non-concave (S-shaped) and decreasing values."""
    def agg(F):
        terms = [vf.marginal(F) for vf in vfs]
        return math.fsum(t for t in terms if math.isfinite(t))

    grid = _level_grid(vfs, lambda F: agg(F) < cost)
    W = -cost * grid
    for vf in vfs:
        W = W + vf.value(grid)
    F = _refine(lambda F: agg(F) - cost, grid, int(np.argmax(W)))
    if math.fsum(vf.value(F) for vf in vfs) - cost * F <= 0.0:
        return 0.0
    return F


def optimal_funding(scenario: Scenario, good_id: str) -> float:
    """Welfare-optimal funding level for one good.

    Concave case: 0 when the aggregate marginal value at 0 is at most 1,
    otherwise the unique root of aggregate marginal = 1 (bracketed
    root-find). Non-concave values (S-shaped, or harmed citizens) route to
    a global welfare maximization.
    """
    vals = _valuing(scenario, good_id)
    if good_id not in scenario.goods:
        raise ValueError(f"unknown good {good_id!r}")
    if not vals:
        return 0.0
    vfs = [vf for _, vf in vals]
    if any(not vf.concave for vf in vfs):
        return _global_welfare_argmax(vfs, cost=1.0)
    agg0 = aggregate_marginal([c for c, _ in vals], good_id, 0.0)
    if agg0 <= 1.0:
        return 0.0
    marginals = _member_marginals(vfs)
    return _unit_root(lambda F: float(marginals(F).sum()))[0]


def one_p_one_v_outcome(scenario: Scenario, good_id: str) -> float:
    """Funding chosen by majority vote with per-capita financing.

    Every citizen has a preferred level solving V'(F) = 1/N (zero when even
    the marginal at 0 falls short; zero-value citizens prefer zero). The
    outcome is the median preferred level, lower median for even N.
    """
    n = len(scenario.citizens)
    share = 1.0 / n
    preferred = []
    for c in scenario.citizens:
        vf = c.values.get(good_id)
        if vf is None or vf.a < 0:
            preferred.append(0.0)
        elif not vf.concave:
            preferred.append(_global_welfare_argmax([vf], cost=share))
        elif vf.marginal(0.0) <= share:
            preferred.append(0.0)
        else:
            preferred.append(vf.inverse_marginal(share))
    preferred.sort()
    return preferred[(n - 1) // 2]


# ---------------------------------------------------------------------------
# single-citizen best response (robust scalar path)


class _Objective:
    """Utility of one citizen's contribution to one good, others fixed.

    Exposes u(c) and du/dc(c) for one sign branch, from the rule's shape
    and the others' aggregates T_o and A_o; c may be a float (kept on
    Python floats) or an ndarray. The deficit term uses the citizen's
    shadow price against the good's own deficit F - (others' total + c).
    ``vf`` None is an outsider, who values the good at 0.
    """

    def __init__(self, vf, lam, shape, sign, T_o, A_o):
        self.vf, self.lam, self.shape = vf, lam, shape
        self.sign, self.T_o, self.A_o = sign, T_o, A_o

    def F(self, c):
        return self.shape.funding(self.T_o + self.sign * self.shape.root(c), self.A_o + c)

    def u(self, c):
        if not isinstance(c, np.ndarray):
            c = float(c)
        F = self.F(c)
        value = 0.0 if self.vf is None else self.vf.value(F)
        return value - c - self.lam * (F - (self.A_o + c))

    def du(self, c):
        c = float(c)
        y = self.shape.root(c)
        T = self.T_o + self.sign * y
        F = self.shape.funding(T, self.A_o + c)
        marginal = 0.0 if self.vf is None else self.vf.marginal(F)
        # inf * 0 at a sign-branch crossing (F hits 0) yields nan, which
        # _refine reads as 0
        return (marginal - self.lam) * self.shape.slope(T, y, self.sign) - (1.0 - self.lam)

    def u0(self) -> float:
        return self.u(0.0)


# A utility includes -c, whose rounding past 1e100 exceeds 1e84 and swamps
# any gain the grid scan could rank; no best response is sought there.
_C_MAX = 1e100


def _refine(slope, grid, i) -> float:
    """The grid maximum grid[i], moved to the root of the objective's
    derivative ``slope`` in the neighbouring cell it falls through 0 in:
    [grid[i], grid[i+1]] where it rises at grid[i], [grid[i-1], grid[i]]
    where it falls. Without such a sign change grid[i] stands; each
    caller's grid ends where the slope is negative. A NaN slope reads as 0:
    under PM_QF du/dc is NaN where a sign branch drives F to 0, and a
    maximum on that kink is then the root brentq returns."""
    def d(x):
        s = slope(x)
        return 0.0 if s != s else s

    x = float(grid[i])
    d_x = d(x)
    if d_x > 0.0 and i + 1 < len(grid):
        lo, hi = x, float(grid[i + 1])
        if not d(hi) <= 0.0:
            return x
    elif d_x < 0.0 and i > 0:
        lo, hi = float(grid[i - 1]), x
        if not d(lo) >= 0.0:
            return x
    else:
        return x
    # Brent's bound on the steps is about log2(cell/tolerance)**2 = 50**2
    return brentq(d, lo, hi, 1e-15 * max(1.0, hi), 8.9e-16, maxiter=2500)[0]


def _maximize_branch(obj: _Objective) -> tuple[float, float]:
    """Best positive contribution on one sign branch: the maximum of a
    geometric grid scan, refined to the root of du/dc beside it
    (``_refine``). Raises NoSolutionError when the upper bracket passes
    _C_MAX."""
    vf = obj.vf
    c_hi = max(1.0, obj.A_o, obj.T_o * obj.T_o, 1.0 if vf is None else vf.bracket_scale)
    for _ in range(200):
        if c_hi > _C_MAX:
            raise NoSolutionError(
                f"no best response below {_C_MAX:g}: others hold {obj.A_o:g}")
        decreasing = obj.du(c_hi) < 0 and obj.u(c_hi) <= obj.u(0.5 * c_hi)
        past_hump = vf is None or obj.F(c_hi) >= vf.inflection
        if decreasing and past_hump:
            break
        c_hi *= 2.0
    grid = _geomspace(1e-9, c_hi, 256)
    c_star = _refine(obj.du, grid, int(np.argmax(obj.u(grid))))
    return c_star, obj.u(c_star)


def _first_order_response(vf, shape, T_o, A_o) -> float:
    """Best contribution of a member whose utility V(F(c)) - c is concave
    in c: 0 where du/dc(0+) <= 0, else the root of du/dc = 0.

    Under the linear rules the root is the target level V'(F) = 1/scale.
    Under the other rules it is sought in y = c**(1/beta), where
    V'(F)*dF/dc falls in y and is 1 at the root; T_o is the others'
    aggregate. QF with SQRT values has the root y = a/2 whatever the
    others give. Raises NoSolutionError where the others or the root lie
    past _C_MAX, as the grid scan does.
    """
    if max(A_o, T_o * T_o) > _C_MAX:
        raise NoSolutionError(
            f"no best response below {_C_MAX:g}: others hold {A_o:g}")
    if shape.alpha == 0.0:
        scale = shape.scale
        if scale * vf.marginal(scale * A_o) <= 1.0:
            return 0.0
        c = max(vf.inverse_marginal(1.0 / scale) / scale - A_o, 0.0)
    elif shape.alpha == 1.0 and shape.beta == 2.0 and vf.family is Family.SQRT:
        c = (0.5 * vf.a) ** 2
    else:
        if T_o == 0.0 and vf.marginal(0.0) <= 1.0:
            # alone, dF/dc = 1 and F(0) = 0
            return 0.0
        beta = shape.beta

        def gain(y):
            T = T_o + y
            return vf.marginal(shape.funding(T, A_o + y ** beta)) * shape.slope(T, y)

        # bracketing past y_max could overflow; no best response lies there
        y_max = _C_MAX ** (1.0 / beta)
        c = math.inf if gain(y_max) > 1.0 else _unit_root(gain)[0] ** beta
    if c > _C_MAX:
        raise NoSolutionError(f"no best response below {_C_MAX:g}")
    return c


def _best_response_core(vf, lam, shape, T_o, A_o) -> BestResponseResult:
    base = _Objective(vf, lam, shape, 1, T_o, A_o)
    candidates = [(0.0, 1, base.u0())]
    if lam == 0.0 and vf is not None and vf.concave and not shape.signed:
        # F is concave in c under these rules, so u is too and the
        # first-order root is the global maximiser
        c_star = _first_order_response(vf, shape, T_o, A_o)
        if c_star > 0.0:
            candidates.append((c_star, 1, base.u(c_star)))
    else:
        for sign in (1, -1) if shape.signed else (1,):
            obj = _Objective(vf, lam, shape, sign, T_o, A_o)
            c_star, u_star = _maximize_branch(obj)
            if c_star > 0.0:
                candidates.append((c_star, sign, u_star))
    u_best = max(u for _, _, u in candidates)
    tie_eps = 1e-9 * max(1.0, abs(u_best))
    tied = [c for c in candidates if c[2] >= u_best - tie_eps]
    # indifference resolves to the smallest contribution, so 0 wins ties
    tied.sort(key=lambda t: t[0])
    amount, sign, utility = tied[0]
    multi = any(
        abs(t[0] - amount) > 1e-6 * max(1.0, amount) for t in tied[1:]
    )
    return BestResponseResult(amount=amount, sign=sign if amount > 0 else 1,
                              utility=utility, multi_optimum=multi)


def _aggregates_of(others: ContributionProfile, shape):
    amounts, signs = others.amounts, others.signs
    if not shape.signed and -1 in signs and any(
            s < 0 and a > 0 for a, s in zip(amounts, signs)):
        raise PolicyError("negative-sign entries require PM_QF")
    return shape.aggregate(amounts, signs), math.fsum(amounts)


def best_response_full(citizen: Citizen, good_id: str,
                       others: ContributionProfile,
                       config: MechanismConfig) -> BestResponseResult:
    """Exact best response of one citizen, with sign and diagnostics.

    ``others`` is the fixed profile of everyone else (it must not contain
    the citizen). A citizen with a concave value (a > 0, not S-shaped) and
    no shadow price, under any rule but PM_QF, takes the first-order root;
    everyone else takes the grid scan, which under PM_QF evaluates both
    sign branches (module docstring). A citizen indifferent between zero
    and an interior optimum contributes zero, and near-ties are reported
    through ``multi_optimum``.
    """
    if config.variant is Variant.ONE_P_ONE_V:
        raise PolicyError("ONE_P_ONE_V is not a contribution game")
    if others.get(citizen.id) is not None:
        raise ValueError(f"others profile already contains {citizen.id!r}")
    lam = citizen.lam if config.deficit_mode is DeficitMode.SHADOW_PRICES else 0.0
    shape = config.shape
    T_o, A_o = _aggregates_of(others, shape)
    return _best_response_core(citizen.values.get(good_id), lam, shape, T_o, A_o)


def best_response(citizen: Citizen, good_id: str, others: ContributionProfile,
                  config: MechanismConfig) -> float:
    """Optimal contribution amount (see best_response_full for the sign)."""
    return best_response_full(citizen, good_id, others, config).amount


# ---------------------------------------------------------------------------
# the engines: roots of the share sum in F


def _member_marginals(vfs):
    """Per-member V'(F) at one level F, or a (members, levels) array at a
    vector of levels: one ``family_marginal`` call per family, with the
    members grouped once and an ISOELASTIC group's a*rho and rho - 1 formed
    once. A member whose value is None (an outsider) has V' = 0."""
    by_family = {}
    for j, vf in enumerate(vfs):
        if vf is not None:
            by_family.setdefault(vf.family, []).append(j)
    groups = []
    for fam, idx in by_family.items():
        a, e, k, m = np.array([vfs[j].a for j in idx]), None, None, None
        if fam is Family.ISOELASTIC:
            rho = np.array([vfs[j].rho for j in idx])
            a, e = a * rho, rho - 1.0
        elif fam is Family.SSHAPED:
            k, m = np.array([vfs[j].k for j in idx]), np.array([vfs[j].m for j in idx])
        groups.append((fam, np.array(idx), a, e, k, m))

    def marginals(F) -> np.ndarray:
        if isinstance(F, float):  # the root finders' path, kept lean
            out = np.zeros(len(vfs))
            for fam, idx, a, e, k, m in groups:
                out[idx] = family_marginal(fam, F, a, e, k, m)
            return out
        out = np.zeros((len(vfs), len(F)))
        for fam, idx, *params in groups:
            out[idx] = family_marginal(fam, F, *(p if p is None else p[:, None] for p in params))
        return out

    return marginals


def _shares(lam: np.ndarray, alpha: float, beta: float, signed: bool):
    """Each member's first-order share w_i of the rule's aggregate T, as a
    function of their marginal values V'(F): one per member, or one row per
    member and column per level, with ``lam`` and ``chosen`` as columns.

    The quadratic rules are the power family at beta = 2, and CQF mixes in
    the linear rule with weight 1 - alpha (alpha = 1 otherwise). With
    m = V'(F) - lam the first-order conditions give
    w = (alpha*m/((1-lam) - (1-alpha)*m))**(1/(beta-1)).
    Under PM_QF that is the signed w = m/(1 - lam) of every member. Under
    the unsigned rules a member with m > 0 must pay (du/dc(0+) is +inf);
    with a nonpositive denominator they gain from every further unit, so F
    lies below the root and the share is +inf. A member with m <= 0 pays 0,
    save that one with lam >= 1 may also pay the positive share where
    ``chosen`` holds. Near F = 0 a share may overflow to +inf, with
    numpy's warning.
    """
    power = 1.0 / (beta - 1.0)
    one_minus_lam = 1.0 - lam

    def shares(v: np.ndarray, chosen=None) -> np.ndarray:
        m = v - lam
        den = one_minus_lam - (1.0 - alpha) * m
        if signed:
            return m / den
        paying, pos = m > 0.0, den > 0.0
        ratio = np.divide(alpha * m, den, out=np.full(m.shape, np.inf), where=pos == paying)
        if chosen is not None:
            paying = paying | (chosen & ~pos)
        return np.where(paying, ratio ** power, 0.0)

    return shares


def _state(w: np.ndarray, F: float, alpha: float, beta: float) -> np.ndarray:
    """The signed contributions at level F with shares w:
    c_i = (w_i*T)**beta, where T**beta = F/(alpha + (1-alpha)*sum w**2)
    (CQF, the one mixed rule, has beta = 2)."""
    return np.copysign(w ** beta, w) * F / (alpha + (1.0 - alpha) * float(np.sum(w * w)))


def _unit_root(g) -> tuple[float, int]:
    """F with g(F) = 1 for a g that falls in F and exceeds 1 near 0, and
    the root finder's iteration count. Brackets by doubling up from 1 or
    dividing down by 16, then runs brentq to full precision."""
    lo, hi = 0.5, 1.0
    while g(hi) > 1.0 and hi < 1e200:
        lo, hi = hi, 2.0 * hi
    while g(lo) <= 1.0 and lo > 1e-200:
        lo, hi = lo / 16.0, lo
    return brentq(lambda F: g(F) - 1.0, lo, hi, 1e-300, 8.9e-16)


def _gap(members, lam, shape, x, stop=math.inf) -> float:
    """max_j |best response_j - x_j| at the signed state x, or inf where a
    best response does not exist; the scan over members ends once the gap
    passes ``stop``. Each member's others' aggregate comes from the same
    roots as the whole, so it cannot fall below 0 where every root is
    nonnegative."""
    amounts = np.abs(x)
    roots = shape.root(amounts)
    if shape.signed:
        roots = np.sign(x) * roots
    T, A = roots.sum(), amounts.sum()
    gap = 0.0
    for j, (_, _, vf) in enumerate(members):
        try:
            r = _best_response_core(vf, float(lam[j]), shape, float(T - roots[j]),
                                    float(A - amounts[j]))
        except NoSolutionError:
            return math.inf
        gap = max(gap, abs(r.sign * r.amount - float(x[j])))
        if gap > stop:
            break
    return gap


def _lams(members, config) -> np.ndarray:
    shadow = config.deficit_mode is DeficitMode.SHADOW_PRICES
    return np.array([cit.lam if shadow else 0.0 for _, cit, _ in members])


def _linear_targets(vfs, lam, scale) -> np.ndarray:
    """Each member's target level under the linear rules: the F where
    V'(F) = t = (1 + lam*(scale-1))/scale on the decreasing branch of V'
    (for an S-shaped member the one local maximum of V(F) - t*F), or 0
    where there is none."""
    targets = np.zeros(len(vfs))
    for j, (vf, t) in enumerate(zip(vfs, ((1.0 + lam * (scale - 1.0)) / scale).tolist())):
        try:
            targets[j] = vf.inverse_marginal(t)
        except NoSolutionError:
            pass
    return targets


def _linear_state(targets, F, scale) -> np.ndarray:
    """The members at target level F split F/scale equally."""
    top = targets == F
    return np.where(top, F / scale / np.count_nonzero(top), 0.0)


def _solve_good_vector(members, lam, shape, tolerance):
    """Equilibrium of one regular good without iterating on the state.

    The members with a > 0 pay; welfare counts every member. Under the
    linear rules each member's target level solves
    V'(F_i) = (1 + lam*(scale-1))/scale; F is the largest target and the
    members at exactly that target split F/scale equally. Every other rule
    is an aggregative game: F solves sum_i w_i(F) = 1 (``_shares``) and
    each member pays their share of the aggregate. On a regular good every
    share is positive and falls in F, so the sum has a root exactly where it
    exceeds 1 at F = 0. F = 0 is an equilibrium exactly where it does not,
    or where every payer has V'(0) <= 1, since a lone payer's c funds F = c.
    With both, the welfare-better is reported and the other is the
    alternate, as the scan does.
    """
    vfs = [vf for _, _, vf in members]
    paying = [j for j, vf in enumerate(vfs) if vf.a > 0]
    members, lam = [members[j] for j in paying], lam[paying]
    x, exact = np.zeros(len(members)), GoodDiagnostics(True, 0, 0.0, "vector")
    if shape.alpha == 0.0:
        targets = _linear_targets([vf for _, _, vf in members], lam, shape.scale)
        F = float(targets.max(initial=0.0))
        if F > 0.0:
            x = _linear_state(targets, F, shape.scale)
        return members, x, exact, None

    alpha, beta = shape.alpha, shape.beta
    marginals = _member_marginals([vf for _, _, vf in members])
    shares = _shares(lam, alpha, beta, shape.signed)
    with np.errstate(over="ignore"):  # shares near F = 0 may pass the float range
        at_zero = marginals(0.0)
        if shares(at_zero).sum() <= 1.0:
            return members, x, exact, None
        F, iterations = _unit_root(lambda F: float(shares(marginals(F)).sum()))
        w = shares(marginals(F))
    residual = abs(float(w.sum()) - 1.0)
    root = (_state(w, F, alpha, beta),
            GoodDiagnostics(residual <= tolerance, iterations, residual, "vector"))
    if not np.all(at_zero <= 1.0):
        return (members, *root, None)
    zero = (x, GoodDiagnostics(True, iterations, 0.0, "vector"))
    if math.fsum(vf.value(F) for vf in vfs) - F > 0.0:
        return (members, *root, zero)
    return (members, *zero, root)


# Flexible members (lam >= 1, unsigned rules) are scanned at 0 and at their
# share in every combination, smallest first, up to this many combinations.
_MAX_PATTERNS = 1024


def _candidates(members, lam, shape):
    """Candidate equilibria of one good as (F, signed state) pairs, and the
    root finder's iteration count: F = 0, then under the linear rules each
    member's target level, otherwise each root of the share sum on the
    scan grid."""
    n = len(members)
    vfs = [vf for _, _, vf in members]
    found, iterations = [(0.0, np.zeros(n))], 0
    if shape.alpha == 0.0:
        targets = _linear_targets(vfs, lam, shape.scale)
        found += [(F, _linear_state(targets, F, shape.scale))
                  for F in set(targets[targets > 0.0].tolist())]
        return found, iterations

    marginals = _member_marginals(vfs)
    shares = _shares(lam, shape.alpha, shape.beta, shape.signed)
    flexible = lam >= 1.0

    limit = -lam / (1.0 - lam)  # a signed share at V' = 0

    def settled(F):
        # no root lies past F_hi. Past every hump_end each V' is monotone and
        # tends to 0, so a signed share lies between its value at F and its
        # limit. An unsigned share is at least 0 and falls, save that a
        # flexible member's share at a root is at most 1, which needs V' >= 1
        v = marginals(F)
        w = shares(v)
        if shape.signed:
            return np.maximum(w, limit).sum() < 1.0 or np.minimum(w, limit).sum() > 1.0
        return w[~flexible].sum() < 1.0 and bool(np.all(v[flexible] < 1.0))

    grid = _level_grid([vf for vf in vfs if vf is not None], settled)
    grid_marginals = marginals(grid)
    grid_shares = _shares(lam[:, None], shape.alpha, shape.beta, shape.signed)
    flex = [] if shape.signed else np.flatnonzero(flexible).tolist()
    patterns = itertools.islice(itertools.chain.from_iterable(
        itertools.combinations(flex, size) for size in range(len(flex) + 1)), _MAX_PATTERNS)
    for pattern in patterns:
        chosen = np.zeros(n, dtype=bool)
        chosen[list(pattern)] = True
        above = grid_shares(grid_marginals, chosen[:, None]).sum(axis=0) > 1.0

        def excess(F):
            # (S - 1)/(|S| + 1) has the sign of S - 1 and stays finite
            s = float(shares(marginals(F), chosen).sum())
            return math.copysign(1.0, s) if math.isinf(s) else (s - 1.0) / (abs(s) + 1.0)

        for j in np.flatnonzero(above[:-1] != above[1:]).tolist():
            lo, hi = float(grid[j]), float(grid[j + 1])
            e_lo, e_hi = excess(lo), excess(hi)
            if e_lo * e_hi > 0.0:
                # V' on floats and on the grid's arrays differ in the last
                # bits: the sum is within rounding of 1 at one end
                F = lo if abs(e_lo) < abs(e_hi) else hi
            else:
                try:  # 2,200 iterations bisect from 1e250 down to 1e-300
                    F, its = brentq(excess, lo, hi, 1e-300, 8.9e-16, maxiter=2200)
                except ValueError:
                    # a NaN sum has no sign: shares of both signs are infinite
                    # there (F = 0, or a shadow price of exactly 1)
                    continue
                iterations += its
            w = shares(marginals(F), chosen)
            # a bracket across a jump of the sum (a share passing +inf) holds
            # no root
            if abs(float(w.sum()) - 1.0) <= 1e-6:
                found.append((F, _state(w, F, shape.alpha, shape.beta)))
    return found, iterations


def _solve_good_scan(members, lam, shape, tolerance):
    """Every candidate equilibrium of one good, certified in order of net
    welfare: the first certified is reported and the next certified at
    another level is the alternate. Without a certified candidate the
    welfare-best is reported, unconverged, with its gap."""
    with np.errstate(all="ignore"):  # shares pass +inf near F = 0 and at poles
        found, iterations = _candidates(members, lam, shape)
    vfs = [vf for _, _, vf in members if vf is not None]
    ranked = sorted({x.tobytes(): (math.fsum(vf.value(F) for vf in vfs) - F, F, x)
                     for F, x in found}.values(), key=lambda t: -t[0])
    best = None
    for _, F, x in ranked:
        gap = _gap(members, lam, shape, x, stop=tolerance)
        if gap > tolerance:
            continue
        diag = GoodDiagnostics(True, iterations, gap, "scalar")
        if best is None:
            best = (F, x, diag)
        elif abs(F - best[0]) > 1e-9 * max(1.0, best[0]):
            return members, best[1], best[2], (x, diag)
    if best is None:
        x = ranked[0][2]
        return members, x, GoodDiagnostics(
            False, iterations, _gap(members, lam, shape, x), "scalar"), None
    return members, best[1], best[2], None


def _profile_from_state(good_id, members, x) -> ContributionProfile:
    ids, amounts, signs = [], [], []
    for j, (_, cit, _) in enumerate(members):
        amt = abs(float(x[j]))
        if amt > 0.0:
            ids.append(cit.id)
            amounts.append(amt)
            signs.append(1 if x[j] >= 0 else -1)
    return ContributionProfile.from_columns(good_id, ids, amounts, signs)


def _solve_good(scenario, good_id, config, tolerance):
    signed = config.shape.signed
    shadow = config.deficit_mode is DeficitMode.SHADOW_PRICES
    # deficit-averse outsiders may pay to shrink the match under PM_QF
    members = [(i, cit, cit.values.get(good_id)) for i, cit in enumerate(scenario.citizens)
               if good_id in cit.values or (signed and shadow and cit.lam > 0)]
    lam = _lams(members, config)
    # regular: every member concave with a > 0 and lam < 1; harmed citizens
    # pay nothing under the unsigned rules. Under PM_QF a shadow price above
    # 0 can make a share negative, so F = 0 must be certified too. SSHAPED
    # is looked up once: a lookup through the Enum class per member doubles
    # this check's cost
    sshaped = Family.SSHAPED
    if all(vf is not None and vf.family is not sshaped and (vf.a > 0 or not signed)
           and not (shadow and (cit.lam >= 1.0 or signed and cit.lam > 0.0))
           for _, cit, vf in members):
        return _solve_good_vector(members, lam, config.shape, tolerance)
    return _solve_good_scan(members, lam, config.shape, tolerance)


def solve_equilibrium(scenario: Scenario, tolerance: float = 1e-8,
                      max_iters: int = 10000, damping: float = 0.5) -> EquilibriumResult:
    """Nash equilibrium of the contribution game under the active rule.

    Each good takes the vector engine's share-sum root where it is regular
    and the scalar engine's scan otherwise (module docstring). A vector good
    is converged when its shares sum to 1 within ``tolerance``; F = 0 is
    its other equilibrium where no member pays alone. The scan's
    candidates are F = 0 and every root of sum_i w_i(F) = 1 on
    ``_level_grid``'s levels, each bracketed by a sign change and refined by
    brentq; a member with a shadow price of 1 or more is scanned both at 0
    and at their share. Under the linear rules the candidates are F = 0 and
    each member's target level. Under PM_QF each root is taken at
    T = +sqrt(F): the game is symmetric under s -> -s, so the mirror state
    at -T is an equilibrium exactly when that one is, and it is neither
    certified nor reported. A candidate is certified when
    max_i |br_i(x) - x_i| <= ``tolerance`` at its state x (``_gap``); it
    fails where a best response does not exist. The welfare-best certified
    candidate is reported, with the runner-up at another level as
    ``alternate``. Without one the good is unconverged and reports its
    welfare-best candidate, whose gap (inf where best responses do not
    exist) is the residual. ``iterations`` counts root-finder iterations.
    ``max_iters`` and ``damping`` are validated and have no effect.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must lie in (0, 1]")
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be a positive finite real, got {tolerance!r}")
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters!r}")
    config = scenario.mechanism
    profiles: dict[str, ContributionProfile] = {}
    funding: dict[str, float] = {}
    diagnostics: dict[str, GoodDiagnostics] = {}
    alt_profiles: dict[str, ContributionProfile] = {}
    alt_diagnostics: dict[str, GoodDiagnostics] = {}

    for good in scenario.goods:
        if config.variant is Variant.ONE_P_ONE_V:
            profiles[good] = ContributionProfile(good, ())
            funding[good] = one_p_one_v_outcome(scenario, good)
            diagnostics[good] = GoodDiagnostics(True, 0, 0.0, "vote")
            continue
        members, x, diagnostics[good], alt = _solve_good(scenario, good, config, tolerance)
        profiles[good] = _profile_from_state(good, members, x)
        funding[good] = fund(profiles[good], config)
        if alt is not None:
            alt_profiles[good] = _profile_from_state(good, members, alt[0])
            alt_diagnostics[good] = alt[1]

    result = _assemble_result(scenario, profiles, funding, diagnostics)
    if alt_profiles:
        merged = {**profiles, **alt_profiles}
        result.alternate = _assemble_result(
            scenario, merged, {g: fund(p, config) for g, p in merged.items()},
            {**diagnostics, **alt_diagnostics})
    return result


def _assemble_result(scenario, profiles, funding, diagnostics) -> EquilibriumResult:
    """Deficit, per-capita taxes and the aggregate-marginal report around
    per-good profiles and funding levels; the convergence summary is the
    worst over ``diagnostics``."""
    deficit = math.fsum(funding.values()) - math.fsum(
        p.total() for p in profiles.values())
    n = len(scenario.citizens)
    taxes = settle_deficit(FundingOutcome(funding, deficit, deficit / n), n)
    return EquilibriumResult(
        contributions=profiles,
        funding=funding,
        deficit=deficit,
        taxes=dict(zip((c.id for c in scenario.citizens), taxes)),
        marginal_report={g: aggregate_marginal(scenario.citizens, g, funding[g])
                         for g in scenario.goods},
        converged=all(d.converged for d in diagnostics.values()),
        iterations=max((d.iterations for d in diagnostics.values()), default=0),
        residual=max((d.residual for d in diagnostics.values()), default=0.0),
        diagnostics=diagnostics,
    )


def closed_form_qf_equilibrium(scenario: Scenario) -> EquilibriumResult:
    """Analytic QF equilibrium when every value function is a*sqrt(F), a > 0.

    Each citizen contributes (a/2)**2 and the good funds at (sum a / 2)**2;
    used as an oracle for the iterative solver.
    """
    config = scenario.mechanism
    if config.variant is not Variant.QF:
        raise ValueError("closed form applies to the QF variant only")
    profiles = {}
    funding = {}
    for good in scenario.goods:
        vals = _valuing(scenario, good)
        for _, vf in vals:
            if vf.family is not Family.SQRT or vf.a <= 0:
                raise ValueError(
                    "closed form requires positive-weight SQRT values")
        profiles[good] = ContributionProfile.from_columns(
            good, [c.id for c, _ in vals], [(vf.a / 2.0) ** 2 for _, vf in vals])
        root = math.fsum(vf.a for _, vf in vals) / 2.0
        funding[good] = root * root
    return _assemble_result(
        scenario, profiles, funding,
        {g: GoodDiagnostics(True, 0, 0.0, "closed-form") for g in scenario.goods})
