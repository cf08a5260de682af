"""Contribution-game equilibria and welfare benchmarks.

The central entry point is ``solve_equilibrium``. Goods are independent by
assumption, so each good is solved on its own by one of two engines:

* the vector engine, for concave value families with positive weights.
  Every rule is F = alpha*T**beta + (1 - alpha)*scale*A, with
  T = sum_i sign_i*c_i**(1/beta) and A = sum_i c_i (the rule's
  ``RuleShape``, in mechanisms), so the game is aggregative in T and a
  good's equilibrium is one root in its funding level F rather than a fixed
  point in N dimensions. Each member's first-order condition fixes their
  share w_i(F) of T; the shares fall in F and F solves sum_i w_i(F) = 1 by
  a bracketed root-find. The linear rules (alpha = 0) need no root: only
  the members with the largest target level pay.
* the scalar engine, for S-shaped values, signed contributions with harmed
  citizens, shadow prices of 1 or more, and anything else the shares do
  not cover. It iterates exact best responses to a fixed point: each sweep
  evaluates every citizen's best response at the current state, until the
  sup-norm gap is within the tolerance. The next state is a safeguarded
  Anderson mixing of the last few states (Walker & Ni 2011) with
  ``damping`` as the mixing factor, or the plain damped step, which moves
  the state by ``damping`` toward every best response, where mixing does
  not lower the gap (``solve_equilibrium`` has the details).

One citizen's best response sees the others only through their
aggregates T_o and A_o: a contribution c with sign s gives
F = funding(T_o + s*c**(1/beta), A_o + c), with dF/dc from the same shape.
The scalar engine takes each member's T_o from the same roots as T, so it
is never negative under the unsigned rules. The best response takes one of
two routes (``best_response_full``, the scalar engine and the myopic round
agents all share it):

* the first-order route, for a concave family with a > 0, no shadow price
  and an unsigned rule. Each such rule makes F concave in c, so the
  utility is too, and the best response is 0 or the one root of the
  first-order condition du/dc = 0 (the replacement function of aggregative
  games; Cornes & Hartley 2007): closed form under the linear rules and
  for SQRT under QF, otherwise a bracketed root in y = c**(1/beta).
* the grid route, for everyone else (S-shaped values, harmed citizens,
  PM_QF's two sign branches, shadow prices): a grid scan over a geometric
  lattice, bounded refinement, then a derivative polish.

Every 1-D root (``_unit_root``, the polish) is Brent's root finder and
every bounded refinement (the grid route, ``_global_welfare_argmax``) is
Brent's bounded minimiser, both on Python floats (``qflab._brent``).

Non-convergence is reported as a diagnostic result, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._brent import brentq, fminbound
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
    budget: float | None = None

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
        if self.budget is not None and not self.budget >= 0:
            raise ValueError(f"budget must be nonnegative, got {self.budget!r}")

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
    damping: float
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


def _global_welfare_argmax(vfs: list[ValueFunction], cost: float) -> float:
    """Global argmax of sum_i V_i(F) - cost*F over F >= 0, by grid scan plus
    bounded refinement. Handles non-concave (S-shaped) and decreasing values."""
    def agg(F):
        terms = [vf.marginal(F) for vf in vfs]
        return math.fsum(t for t in terms if math.isfinite(t))

    F_hi = 1.0
    while F_hi < 1e250:
        if all(F_hi >= vf.hump_end for vf in vfs) and agg(F_hi) < cost:
            break
        F_hi *= 2.0
    grid = np.unique(np.concatenate([
        [0.0],
        _geomspace(1e-9 * max(F_hi, 1.0), F_hi, 3000),
        np.linspace(0.0, F_hi, 3000),
    ]))
    W = -cost * grid
    for vf in vfs:
        W = W + vf.value(grid)
    i = int(np.argmax(W))
    best_F, best_W = float(grid[i]), float(W[i])
    if 0 < i < grid.size - 1:
        lo, hi = float(grid[i - 1]), float(grid[i + 1])
        F, neg_W = fminbound(
            lambda F: -(math.fsum(vf.value(F) for vf in vfs) - cost * F),
            lo, hi, 1e-12 * max(1.0, hi))
        if -neg_W > best_W:
            best_F, best_W = F, -neg_W
    if best_W <= 0.0:
        return 0.0
    return best_F


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
        # inf * 0 at a sign-branch crossing (F hits 0) yields nan; that point
        # is never an optimum and the grid scan owns global correctness
        return (marginal - self.lam) * self.shape.slope(T, y, self.sign) - (1.0 - self.lam)

    def u0(self) -> float:
        return self.u(0.0)


# The bounded search multiplies three contribution differences together, so
# an upper bracket much past 1e100 overflows; no best response lies there.
_C_MAX = 1e100


def _maximize_branch(obj: _Objective) -> tuple[float, float]:
    """Best positive contribution on one sign branch: geometric grid scan,
    bounded refinement, then a derivative polish where a first-order
    bracket exists. Raises NoSolutionError when the upper bracket passes
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
    ug = obj.u(grid)
    i = int(np.argmax(ug))
    lo = float(grid[i - 1]) if i > 0 else 0.5 * float(grid[0])
    hi = float(grid[i + 1]) if i + 1 < grid.size else c_hi
    c_star = fminbound(lambda c: -obj.u(c), lo, hi, 1e-13 * max(1.0, hi))[0]
    for w in (1e-3, 1e-2, 1e-1):
        a2 = max(c_star * (1.0 - w), 1e-14)
        b2 = c_star * (1.0 + w)
        if obj.du(a2) > 0.0 > obj.du(b2):
            try:
                c_star = brentq(obj.du, a2, b2, 1e-15 * max(1.0, c_star), 8.9e-16)[0]
            except ValueError:
                # du is NaN at a sign-branch crossing (F = 0) inside the
                # bracket; that kink has no root to polish, the bounded
                # search's point stands
                pass
            break
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
# share-function engine for concave goods


def _member_marginals(vfs):
    """Per-member V'(F) at one level F for concave members: one
    ``family_marginal`` call per family, with the members grouped once and
    an ISOELASTIC group's a*rho and rho - 1 formed once."""
    by_family = {}
    for j, vf in enumerate(vfs):
        by_family.setdefault(vf.family, []).append(j)
    groups = []
    for fam, idx in by_family.items():
        a, e = np.array([vfs[j].a for j in idx]), None
        if fam is Family.ISOELASTIC:
            rho = np.array([vfs[j].rho for j in idx])
            a, e = a * rho, rho - 1.0
        groups.append((fam, np.array(idx), a, e))

    def marginals(F: float) -> np.ndarray:
        out = np.empty(len(vfs))
        for fam, idx, a, e in groups:
            out[idx] = family_marginal(fam, F, a, e)
        return out

    return marginals


def _shares(marginals, lam: np.ndarray, alpha: float, beta: float):
    """Each member's equilibrium share w_i(F) of the rule's aggregate.

    The quadratic rules are the power family at beta = 2, and CQF mixes in
    the linear rule with weight 1 - alpha (alpha = 1 otherwise). With
    m = max(V'(F) - lam, 0) the first-order conditions give
    w = (alpha*m/((1-lam) - (1-alpha)*m))**(1/(beta-1)). A member with
    m > 0 and a nonpositive denominator gains from every further unit, so
    F lies below the root and the share is +inf. The sum falls in F.
    Near F = 0 a share may overflow to +inf, with numpy's warning.
    """
    power = 1.0 / (beta - 1.0)
    one_minus_lam = 1.0 - lam

    def shares(F: float) -> np.ndarray:
        m = np.maximum(marginals(F) - lam, 0.0)
        den = one_minus_lam - (1.0 - alpha) * m
        ratio = np.divide(alpha * m, den, out=np.full(lam.size, np.inf), where=den > 0.0)
        return np.where(m > 0.0, ratio ** power, 0.0)

    return shares


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


def _solve_good_vector(scenario, good_id, config, tolerance):
    """Equilibrium of one concave good without iterating on the state.

    Under the linear rules each member's target level solves
    V'(F_i) = (1 + lam*(scale-1))/scale; F is the largest target and the
    members at exactly that target split F/scale equally. Every other rule
    is an aggregative game: F solves sum_i w_i(F) = 1 (``_shares``) and
    each member pays their share of the aggregate.
    """
    members = [
        (i, cit, cit.values[good_id])
        for i, cit in enumerate(scenario.citizens)
        if good_id in cit.values and cit.values[good_id].a > 0
    ]
    lam = np.array(
        [cit.lam if config.deficit_mode is DeficitMode.SHADOW_PRICES else 0.0
         for _, cit, _ in members])
    x = np.zeros(len(members))
    shape = config.shape
    if shape.alpha == 0.0:
        scale = shape.scale
        level = (1.0 + lam * (scale - 1.0)) / scale
        targets = np.array([0.0 if vf.marginal(0.0) <= t else vf.inverse_marginal(t)
                            for (_, _, vf), t in zip(members, level.tolist())])
        F = float(targets.max(initial=0.0))
        if F > 0.0:
            top = targets == F
            x[top] = F / scale / np.count_nonzero(top)
        return members, x, GoodDiagnostics(True, 0, 0.0, 0.0, "vector")

    alpha, beta = shape.alpha, shape.beta
    shares = _shares(_member_marginals([vf for _, _, vf in members]), lam, alpha, beta)
    iterations, residual = 0, 0.0
    with np.errstate(over="ignore"):  # shares near F = 0 may pass the float range
        if shares(0.0).sum() > 1.0:
            F, iterations = _unit_root(lambda F: float(shares(F).sum()))
            w = shares(F)
            residual = abs(float(w.sum()) - 1.0)
            # c_i = (w_i*T)**beta, where T**beta = F/(alpha + (1-alpha)*sum w**2)
            x = w ** beta * F / (alpha + (1.0 - alpha) * float(np.sum(w * w)))
    return members, x, GoodDiagnostics(
        residual <= tolerance, iterations, residual, 0.0, "vector")


# ---------------------------------------------------------------------------
# the fixed-point driver


# Anderson history: the most difference columns in the mixing step, and
# the fewest. A single secant is a poor first step when the plain
# iteration has both a slow monotone and a slow alternating mode, as
# S-shaped goods under CQF do.
_ANDERSON_DEPTH = 5
_ANDERSON_MIN_DEPTH = 2
# Rejected mixed states in a row after which a solve takes only plain steps.
_MAX_REJECTIONS = 3


def _fixed_point(br_fn, x0, tolerance, max_iters, damping, lower):
    """Safeguarded Anderson mixing on the signed contribution state, as
    ``solve_equilibrium`` describes it.

    br_fn maps the signed state to signed best responses; a mixed state is
    clipped below at ``lower``. A rejected mixed state (not finite, no best
    response, or a residual not below every accepted state's) costs its
    sweep, clears the history and is replaced by the plain step from the
    last accepted state. The damping-halving and stall windows count
    accepted sweeps only. An unconverged solve returns the last accepted
    state and its residual, or the state where best responses ceased to
    exist with residual inf.
    """
    x = x0.astype(float).copy()
    d = damping
    halvings = rejections = 0
    history = []
    x_acc = f_acc = None
    mixed = False
    window, prev_window = [], []
    residual = best = math.inf
    iterations = 0
    converged = False
    for it in range(1, max_iters + 1):
        iterations = it
        f = None
        if np.isfinite(x).all():
            try:
                f = br_fn(x) - x
            except NoSolutionError:
                pass
        trial = math.inf if f is None else float(np.max(np.abs(f), initial=0.0))
        # measured against the lowest accepted residual, not the last: on a
        # diverging state the residual climbs, and a mixed state that only
        # beats the last one lets the iteration wander instead of run off
        if mixed and not trial < best:
            rejections += 1
            history = []
            x, mixed = x_acc + d * f_acc, False
            continue
        if f is None:
            # the state has diverged past where best responses exist
            residual = math.inf
            break
        residual = trial
        if residual <= tolerance:
            converged = True
            break
        if mixed:
            rejections = 0
        x_acc, f_acc = x, f
        best = min(best, residual)
        window.append(residual)
        if len(window) == 100:
            if prev_window and halvings == 3 and min(window) >= min(prev_window):
                break
            if prev_window and halvings < 3 and min(window) > 0.5 * min(prev_window):
                d *= 0.5
                halvings += 1
                history = []
            prev_window, window = window, []
        if rejections < _MAX_REJECTIONS:
            history = (history + [(x, f)])[-(_ANDERSON_DEPTH + 1):]
        mixed = len(history) > _ANDERSON_MIN_DEPTH
        x = np.maximum(_anderson(history, d), lower) if mixed else x + d * f
    else:
        if x_acc is not None:
            x = x_acc
    return x, converged, iterations, residual, d


def _anderson(history, d):
    """Type-II Anderson mixing (Walker & Ni 2011) of (state, residual)
    pairs, oldest first: the damped step from the newest state, corrected
    by the combination of past differences that best cancels its residual
    in least squares."""
    X = np.array([h[0] for h in history])
    F = np.array([h[1] for h in history])
    dX, dF = np.diff(X, axis=0).T, np.diff(F, axis=0).T
    gamma = np.linalg.lstsq(dF, F[-1], rcond=None)[0]
    return X[-1] + d * F[-1] - (dX + d * dF) @ gamma


def _scalar_members(scenario, good_id, config):
    """Citizens participating in the scalar game for this good."""
    members = []
    for i, cit in enumerate(scenario.citizens):
        vf = cit.values.get(good_id)
        if vf is not None:
            members.append((i, cit, vf))
        elif (config.variant is Variant.PM_QF
              and config.deficit_mode is DeficitMode.SHADOW_PRICES
              and cit.lam > 0):
            # deficit-averse outsiders may pay to shrink the match
            members.append((i, cit, None))
    return members


def _solve_good_scalar(scenario, good_id, config, tolerance, max_iters, damping,
                       x0=None):
    members = _scalar_members(scenario, good_id, config)
    n = len(members)
    lam = [cit.lam if config.deficit_mode is DeficitMode.SHADOW_PRICES else 0.0
           for _, cit, _ in members]
    shape = config.shape

    def br(x):
        amounts = np.abs(x)
        roots = shape.root(amounts)
        if shape.signed:
            roots = np.sign(x) * roots
        # each member's others' aggregate comes from the same roots as the
        # whole, so it cannot fall below 0 where every root is nonnegative
        T = roots.sum()
        A = amounts.sum()
        out = np.empty(n)
        for j, (_, cit, vf) in enumerate(members):
            r = _best_response_core(vf, lam[j], shape, float(T - roots[j]),
                                    float(A - amounts[j]))
            out[j] = r.sign * r.amount
        return out

    x0 = np.zeros(n) if x0 is None else x0
    lower = -math.inf if shape.signed else 0.0
    x, converged, iters, resid, d = _fixed_point(
        br, x0, tolerance, max_iters, damping, lower)
    return members, x, GoodDiagnostics(converged, iters, resid, d, "scalar")


def _share_start(scenario, good_id, members, shape):
    """Start every citizen at their first-order share of the optimal level:
    y = V'(F)**(1/(beta - 1))*F**(1/beta) and c = y**beta, or c = V'(F)*F
    under the linear rules."""
    F_star = optimal_funding(scenario, good_id)
    if F_star <= 0:
        return None
    x0 = np.zeros(len(members))
    for j, (_, cit, vf) in enumerate(members):
        if vf is None:
            continue
        mv = max(vf.marginal(F_star), 0.0)
        if shape.alpha == 0.0:
            x0[j] = F_star * mv
        else:
            y = mv ** (1.0 / (shape.beta - 1.0)) * shape.root(F_star)
            x0[j] = y ** shape.beta
    return x0


def _profile_from_state(good_id, members, x) -> ContributionProfile:
    ids, amounts, signs = [], [], []
    for j, (_, cit, _) in enumerate(members):
        amt = abs(float(x[j]))
        if amt > 0.0:
            ids.append(cit.id)
            amounts.append(amt)
            signs.append(1 if x[j] >= 0 else -1)
    return ContributionProfile.from_columns(good_id, ids, amounts, signs)


def _needs_scalar(scenario, good_id, config) -> bool:
    vfs = [c.values[good_id] for c in scenario.citizens if good_id in c.values]
    if any(vf.family is Family.SSHAPED for vf in vfs):
        return True
    if config.deficit_mode is DeficitMode.SHADOW_PRICES and any(
        c.lam >= 1.0 for c in scenario.citizens if good_id in c.values
    ):
        # the share functions assume 1 - lam > 0
        return True
    if config.variant is Variant.PM_QF:
        if any(vf.a <= 0 for vf in vfs):
            return True
        if config.deficit_mode is DeficitMode.SHADOW_PRICES and any(
            c.lam > 0 and good_id not in c.values for c in scenario.citizens
        ):
            return True
    return False


def _solve_good(scenario, good_id, config, tolerance, max_iters, damping, engine):
    use_scalar = engine == "scalar" or (engine == "auto" and _needs_scalar(
        scenario, good_id, config))
    if not use_scalar:
        members, x, diag = _solve_good_vector(scenario, good_id, config, tolerance)
        if (config.variant is Variant.PM_QF
                and config.deficit_mode is DeficitMode.SHADOW_PRICES):
            # the positive branch presumed V' >= lam; re-solve robustly if not
            profile = _profile_from_state(good_id, members, x)
            F = fund(profile, config)
            bad = any(
                vf.marginal(F) < cit.lam - 1e-12
                for _, cit, vf in members
            )
            if bad and engine == "auto":
                use_scalar = True
        if not use_scalar:
            return members, x, diag, None

    two_starts = any(vf.family is Family.SSHAPED for _, vf in _valuing(scenario, good_id))
    members, x, diag = _solve_good_scalar(
        scenario, good_id, config, tolerance, max_iters, damping)
    alt = None
    if two_starts:
        x0 = _share_start(scenario, good_id, members, config.shape)
        if x0 is not None:
            members2, x2, diag2 = _solve_good_scalar(
                scenario, good_id, config, tolerance, max_iters, damping, x0=x0)
            if diag2.converged and (
                not diag.converged
                or np.max(np.abs(x2 - x)) > 10.0 * tolerance
            ):
                # keep the welfare-better fixed point, report the other
                def net(state):
                    prof = _profile_from_state(good_id, members, state)
                    F = fund(prof, config)
                    gross = math.fsum(
                        vf.value(F) for _, _, vf in members if vf is not None)
                    return gross - F
                if not diag.converged or net(x2) > net(x):
                    alt = (x, diag) if diag.converged else None
                    x, diag = x2, diag2
                else:
                    alt = (x2, diag2)
    return members, x, diag, alt


def solve_equilibrium(scenario: Scenario, tolerance: float = 1e-8,
                      max_iters: int = 10000, damping: float = 0.5,
                      engine: str = "auto") -> EquilibriumResult:
    """Nash equilibrium of the contribution game under the active rule.

    ``engine`` may force the "vector" share-function root or the "scalar"
    best-response iteration; "auto" picks per good (module docstring).
    ``tolerance``, ``max_iters`` and ``damping`` govern the scalar engine:
    a scalar good is converged when max|br(x) - x| <= ``tolerance`` at the
    returned state x, after at most ``max_iters`` sweeps, each of which
    evaluates every best response once. The next state is the type-II
    Anderson mixing of the last accepted states and residuals, two to five
    differences deep, with ``damping`` as the mixing factor; the plain
    step, taken while the history is shorter, moves the state that
    fraction of the way to the best responses. A mixed state whose
    residual is not below the lowest accepted so far, or where a best
    response does not exist, is rejected: the history is cleared and the
    plain step is taken from the last accepted state. After three
    rejections in a row the solve takes only plain steps, so a diverging
    state runs off until its best responses cease to exist. Each 100
    sweeps that fail to halve the best residual halve the damping (at most
    three times; each halving restarts the mixing); after that, 100
    sweeps that do not lower the best residual at all end the solve
    unconverged.
    A vector good is converged when its shares sum to 1 within
    ``tolerance``, and its diagnostics count root-finder iterations.
    Non-convergence yields converged=False with diagnostics rather than an
    exception. Non-concave goods are attempted from two starts (all-zero
    and optimal-share); when both converge to distinct fixed points the
    welfare-better one is reported and the other is attached as
    ``alternate``.
    """
    if engine not in ("auto", "vector", "scalar"):
        raise ValueError(f"engine must be auto|vector|scalar, got {engine!r}")
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
            diagnostics[good] = GoodDiagnostics(True, 0, 0.0, damping, "vote")
            continue
        members, x, diagnostics[good], alt = _solve_good(
            scenario, good, config, tolerance, max_iters, damping, engine)
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
        {g: GoodDiagnostics(True, 0, 0.0, 0.0, "closed-form") for g in scenario.goods})
