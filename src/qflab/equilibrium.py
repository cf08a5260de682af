"""Contribution-game equilibria and welfare benchmarks.

The central entry point is ``solve_equilibrium``. Goods are independent by
assumption, and every rule is F = alpha*T**beta + (1 - alpha)*scale*A, with
T = sum_i sign_i*c_i**(1/beta) and A = sum_i c_i (the rule's ``RuleShape``,
in mechanisms). The game is aggregative in T (Cornes & Hartley 2007): each
member's first-order condition fixes their share w_i(F) of T from the
funding level alone (``_shares``), so a good's candidate equilibria are
F = 0 and the roots of sum_i w_i(F) = 1 (under the linear rules, alpha = 0,
each member's target level), and its welfare optimum is F = 0 or a root of
sum_i V_i'(F) = 1. One root search finds both (``_roots``). A candidate is
reported once certified, by one of two certificates: on a regular good
(every member concave with a > 0 and a shadow price below 1, or of 0 under
PM_QF), where every share falls in F and the sum has one root, its shares
sum to 1; on every other good each member's exact best response is checked.

A best response sees the others only through their aggregates T_o and
A_o, and takes one of two routes (``best_response_full``, the certificate
and the myopic round agents all share it):

* the first-order route, for a concave family with a > 0, no shadow price
  and an unsigned rule. Each such rule makes F concave in c, so the
  utility is too, and the best response is 0 or the one root of du/dc = 0
  (the replacement function of aggregative games): closed form under the
  linear rules and for SQRT under QF, otherwise a bracketed root in
  y = c**(1/beta).
* the grid route, for everyone else (S-shaped values, harmed citizens,
  PM_QF's two sign branches, shadow prices): a grid scan over a geometric
  lattice, its maximum refined to the root of du/dc in a neighbouring cell.

Every root and maximum (a root of its derivative) is found by Brent's
root finder on Python floats (``qflab._brent``). A good without a
certified equilibrium is a diagnostic result, never an exception.
"""

from __future__ import annotations

import contextlib
import functools
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
    """``engine`` names the certificate: ``vector`` (the shares sum to 1
    within ``residual``), ``scalar`` (``residual`` is the largest gap to a
    member's exact best response), ``vote`` (ONE_P_ONE_V) or ``closed-form``."""

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


def _welfare_optimum(vfs: list[ValueFunction], cost: float) -> float:
    """The F >= 0 that maximises sum_i V_i(F) - cost*F: the best of its
    local maxima, each a root where sum_i V_i'(F) falls through cost
    (``_roots``), and of F = 0 where welfare does not rise from it. Ties go
    to 0."""
    marginals = _member_marginals(vfs)

    def total(F):
        return float(marginals(F).sum()) / cost

    roots, _ = _roots(total, lambda v: v.sum(axis=0) / cost,
                      _levels(vfs, marginals, lambda F: total(F) < 1.0), vfs, [1] * len(vfs))
    # welfare rises from 0 exactly where the sum falls through its first root
    maxima = [0.0] * (not roots or not roots[0][1]) + [F for F, falls in roots if falls]
    if len(maxima) == 1:
        return maxima[0]
    return max(maxima, key=lambda F: math.fsum(vf.value(F) for vf in vfs) - cost * F)


def optimal_funding(scenario: Scenario, good_id: str) -> float:
    """Welfare-optimal funding level for one good (``_welfare_optimum``):
    for concave values 0 when the aggregate marginal value at 0 is at most
    1, otherwise the one root of aggregate marginal = 1."""
    vals = _valuing(scenario, good_id)
    if good_id not in scenario.goods:
        raise ValueError(f"unknown good {good_id!r}")
    return _welfare_optimum([vf for _, vf in vals], 1.0)


def one_p_one_v_outcome(scenario: Scenario, good_id: str) -> float:
    """Funding chosen by majority vote with per-capita financing.

    Every citizen prefers the argmax of V(F) - F/N: for a concave V the
    root of V'(F) = 1/N (zero when even the marginal at 0 falls short;
    zero-value citizens prefer zero). The outcome is the median preferred
    level, lower median for even N.
    """
    n = len(scenario.citizens)
    share = 1.0 / n
    preferred = []
    for c in scenario.citizens:
        vf = c.values.get(good_id)
        if vf is None or vf.a < 0:
            preferred.append(0.0)
        elif not vf.concave:
            preferred.append(_welfare_optimum([vf], share))
        else:
            preferred.append(0.0 if vf.marginal(0.0) <= share else vf.inverse_marginal(share))
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
# the root search and the candidate equilibria


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


def _linear_targets(vfs, lam, scale):
    """Each member's target level under the linear rules, the F where
    V'(F) = t = (1 + lam*(scale-1))/scale on the decreasing branch of V'
    (for an S-shaped member the one local maximum of V(F) - t*F) or 0 where
    there is none, and the largest target of a concave member."""
    targets, floor, sshaped = np.zeros(len(vfs)), 0.0, Family.SSHAPED
    for j, (vf, t) in enumerate(zip(vfs, ((1.0 + lam * (scale - 1.0)) / scale).tolist())):
        try:
            targets[j] = target = vf.inverse_marginal(t)
        except NoSolutionError:
            continue
        if vf.family is not sshaped and target > floor:
            floor = target
    return targets, floor


def _linear_state(targets, F, scale) -> np.ndarray:
    """The members at target level F split F/scale equally."""
    top = targets == F
    return np.where(top, F / scale / np.count_nonzero(top), 0.0)


def _levels(vfs, marginals, settled):
    """A piece [lo, hi]'s scan levels, once each: its finite ends and the
    grid's levels inside it, with V' on them (members by levels). The grid
    is 0, 3000 geometric levels from 1e-9*F_hi and 3000 linear up to F_hi,
    the first doubling from 1 past 1e250 or at which every value is past its
    hump_end and ``settled(F_hi)`` holds; np.unique would import numpy.ma."""
    @functools.cache
    def grid():
        F_hi = 1.0
        while F_hi < 1e250 and not (
                all(F_hi >= vf.hump_end for vf in vfs if vf is not None) and settled(F_hi)):
            F_hi *= 2.0
        g = np.sort(np.concatenate([
            [0.0], _geomspace(1e-9 * F_hi, F_hi, 3000), np.linspace(0.0, F_hi, 3000)]))
        return g[np.append(True, g[1:] != g[:-1])]

    @functools.cache
    def levels(lo, hi):
        g = grid()
        lv = np.concatenate(([lo], g[(g > lo) & (g < hi)], [hi] if hi < math.inf else []))
        return lv, marginals(lv)

    return levels


def _roots(total, level_sums, levels, vfs, rises):
    """Every F >= 0 with total(F) = 1 as (F, falls) pairs, ``falls`` where
    the sum falls through 1, and the root finder's iteration count. Each
    term of total depends on F only through one member's V'(F) (``vfs``,
    None for V' = 0), in the direction ``rises`` gives (1, -1, 0 constant,
    None neither). A concave V' falls where a > 0 and rises where a < 0, an
    S-shaped one rises below its inflection m and falls above, so [0, inf)
    is split at the distinct m. Where no two terms move apart the sum is
    monotone: its ends (at inf its limit, every V' 0) show whether it
    crosses 1, and one bracket (``_unit_root``'s from 0 to inf where it
    falls) finds where. Elsewhere every sign change of ``level_sums`` on
    ``levels(lo, hi)`` brackets a root.
    """
    def excess(F):
        # (S - 1)/(|S| + 1) has the sign of S - 1 and stays finite
        s = total(F)
        return math.copysign(1.0, s) if math.isinf(s) else (s - 1.0) / (abs(s) + 1.0)

    fixed, humps, sshaped = set(), [], Family.SSHAPED
    for vf, r in zip(vfs, rises):
        if vf is None or r == 0:
            continue
        if vf.family is sshaped:
            humps.append((float(vf.m), r))
        else:
            fixed.add(r if r is None or vf.a < 0 else -r)
    ends = [0.0, *sorted({m for m, _ in humps}), math.inf]
    found, iterations, brackets = [], 0, []
    for lo, hi in zip(ends, ends[1:]):
        ways = fixed.union(r if r is None or hi <= m else -r for m, r in humps)
        if None in ways or len(ways) > 1:
            lv, v = levels(lo, hi)
            above = level_sums(v) > 1.0
            cells = lv[np.flatnonzero(above[:-1] != above[1:])[:, None] + [0, 1]].tolist()
            brackets += [(a, b, excess(a), excess(b)) for a, b in cells]
            continue
        e_lo, e_hi = excess(lo), excess(hi)
        if not e_lo * e_hi <= 0.0 or hi == math.inf and e_hi == 0.0:
            continue
        if hi == math.inf and lo == 0.0 and e_lo > 0.0:
            # _unit_root keeps a regular good's bits; a root it cannot
            # bracket (past 1e200 or below 1e-200) is bracketed below
            with contextlib.suppress(ValueError):
                F, its = _unit_root(total)
                found.append((F, True))
                iterations += its
                continue
        if hi == math.inf:
            hi = max(1.0, 2.0 * lo)  # up to inf at worst, where the limit lies
            while (e_hi := excess(hi)) * e_lo > 0.0:
                lo, e_lo, hi = hi, e_hi, 2.0 * hi
        brackets.append((lo, hi, e_lo, e_hi))
    for lo, hi, e_lo, e_hi in brackets:
        if e_lo * e_hi > 0.0:
            # V' on floats and on the levels' arrays differ in the last
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
        found.append((F, e_hi < e_lo))
    return found, iterations


# Flexible members (lam >= 1, unsigned rules) are scanned at 0 and at their
# share in every combination, smallest first, up to this many combinations.
_MAX_PATTERNS = 1024


def _candidates(members, lam, shape):
    """Candidate equilibria of one good as (F, signed state, share residual)
    triples, and the root finder's iteration count: the roots of the share
    sum (``_roots``), or under the linear rules the target levels not below
    a concave member's (who pays at any lower level), and F = 0 unless a
    member would pay alone there (alone, F = c) and a root was found."""
    n, vfs = len(members), [vf for _, _, vf in members]
    zero = (0.0, np.zeros(n), 0.0)
    if shape.alpha == 0.0:
        targets, floor = _linear_targets(vfs, lam, shape.scale)
        found = [(F, _linear_state(targets, F, shape.scale), 0.0)
                 for F in sorted(set(targets.tolist())) if F >= floor and F > 0.0]
        return ([zero] if floor == 0.0 else []) + found, 0

    alpha, beta, signed = shape.alpha, shape.beta, shape.signed
    marginals, flexible = _member_marginals(vfs), lam >= 1.0
    shares = _shares(lam, alpha, beta, signed)
    level_shares = _shares(lam[:, None], alpha, beta, signed)

    def settled(F):
        # no root lies past F_hi. Past every hump_end each V' is monotone and
        # tends to 0, so a signed share lies between its value at F and its
        # limit. An unsigned share is at least 0 and falls, save that a
        # flexible member's share at a root is at most 1, which needs V' >= 1
        v = marginals(F)
        w = shares(v)
        if signed:
            limit = -lam / (1.0 - lam)  # a signed share at V' = 0
            return np.maximum(w, limit).sum() < 1.0 or np.minimum(w, limit).sum() > 1.0
        return w[~flexible].sum() < 1.0 and bool(np.all(v[flexible] < 1.0))

    levels = _levels(vfs, marginals, settled)
    # a share rises in V' below a shadow price of 1 and, signed, falls above;
    # a harmed member's is 0 unsigned, and a flexible member's is neither
    rises = [None if lm == 1.0 or lm > 1.0 and not signed else -1 if lm > 1.0
             else 0 if not signed and vf is not None and vf.a < 0 else 1
             for vf, lm in zip(vfs, lam.tolist())]
    flex = [] if signed else np.flatnonzero(flexible).tolist()
    patterns = itertools.islice(itertools.chain.from_iterable(
        itertools.combinations(flex, size) for size in range(len(flex) + 1)), _MAX_PATTERNS)
    found, iterations = [], 0
    for pattern in patterns:
        chosen = column = None
        if pattern:
            chosen = np.zeros(n, dtype=bool)
            chosen[list(pattern)] = True
            column = chosen[:, None]
        roots, its = _roots(lambda F: float(shares(marginals(F), chosen).sum()),
                            lambda v: level_shares(v, column).sum(axis=0), levels, vfs, rises)
        iterations += its
        for F, _ in roots:
            w = shares(marginals(F), chosen)
            residual = abs(float(w.sum()) - 1.0)
            if residual <= 1e-6:  # not a jump of the sum past +inf
                found.append((F, _state(w, F, alpha, beta), residual))
    if not found or np.all(marginals(0.0) <= 1.0):
        found.insert(0, zero)
    return found, iterations


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
    """The members, the reported state and its diagnostics, and the
    alternate's (state, diagnostics) or None (``solve_equilibrium``)."""
    shape, shadow = config.shape, config.deficit_mode is DeficitMode.SHADOW_PRICES
    signed = shape.signed
    # deficit-averse outsiders may pay to shrink the match under PM_QF
    valuers = [(i, cit, cit.values.get(good_id)) for i, cit in enumerate(scenario.citizens)
               if good_id in cit.values or (signed and shadow and cit.lam > 0)]
    # regular (module docstring); harmed citizens pay nothing under the
    # unsigned rules. SSHAPED is looked up once: a lookup through the Enum
    # class per member doubles this check's cost
    sshaped = Family.SSHAPED
    regular = all(vf is not None and vf.family is not sshaped and (vf.a > 0 or not signed)
                  and not (shadow and (cit.lam >= 1.0 or signed and cit.lam > 0.0))
                  for _, cit, vf in valuers)
    members = [m for m in valuers if m[2].a > 0] if regular else valuers
    lam = _lams(members, config)
    with np.errstate(all="ignore"):  # shares pass +inf near F = 0 and at poles
        found, iterations = _candidates(members, lam, shape)
    kind = "vector" if regular else "scalar"

    def residual(x, r, stop=math.inf):
        return r if regular else _gap(members, lam, shape, x, stop)

    ranked = list({x.tobytes(): (F, x, r) for F, x, r in found}.values())
    if len(ranked) > 1:
        ranked.sort(key=lambda c: c[0] - math.fsum(
            vf.value(c[0]) for _, _, vf in valuers if vf is not None))
    best = None
    for F, x, r in ranked:
        gap = residual(x, r, tolerance)
        if gap <= tolerance and (best is None or abs(F - best[0]) > 1e-9 * max(1.0, best[0])):
            diag = GoodDiagnostics(True, iterations, gap, kind)
            if best is not None:
                return members, best[1], best[2], (x, diag)
            best = (F, x, diag)
    if best is None:
        _, x, r = ranked[0]
        return members, x, GoodDiagnostics(False, iterations, residual(x, r), kind), None
    return members, best[1], best[2], None


def solve_equilibrium(scenario: Scenario, tolerance: float = 1e-8,
                      max_iters: int = 10000, damping: float = 0.5) -> EquilibriumResult:
    """Nash equilibrium of the contribution game under the active rule.

    Each good's candidates (``_candidates``; a member with a shadow price
    of 1 or more is taken both at 0 and at their share) are certified in
    order of net welfare. Under PM_QF each root is taken at T = +sqrt(F):
    the game is symmetric under s -> -s, so the mirror state at -T is an
    equilibrium exactly when that one is, and it is not reported. On a
    regular good the certificate (``vector``) is that the shares sum to 1
    within ``tolerance``, on any other (``scalar``) that
    max_i |br_i(x) - x_i| <= ``tolerance`` at the state x (``_gap``), which
    fails where a best response does not exist. The welfare-best certified
    candidate is reported, with the runner-up at another level as
    ``alternate``; without one the good is unconverged and reports its
    welfare-best candidate and residual (inf where best responses do not
    exist). ``iterations`` counts root-finder iterations; ``max_iters`` and
    ``damping`` are validated and have no effect.
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
