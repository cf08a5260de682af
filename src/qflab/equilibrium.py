"""Contribution-game equilibria and welfare benchmarks.

The central entry point is ``solve_equilibrium``. Goods are independent by
assumption, so each good is solved on its own by one of two engines:

* the vector engine, for concave value families with positive weights.
  Every rule here is an aggregative game, so a good's equilibrium is one
  root in its funding level F rather than a fixed point in N dimensions.
  Each member's first-order condition fixes their share w_i(F) of the rule's
  aggregate (square roots for the quadratic rules, c**(1/beta) for the
  power family); the shares fall in F and F solves sum_i w_i(F) = 1 by a
  bracketed root-find. The linear rules need no root: only the members
  with the largest target level pay.
* the scalar engine, for S-shaped values, signed contributions with harmed
  citizens, shadow prices of 1 or more, and anything else the shares do
  not cover. It runs damped Jacobi iteration of exact best responses (grid
  scan over a geometric lattice, bounded refinement, then a derivative
  polish): each sweep moves the state by ``damping`` toward every
  citizen's best response, until the sup-norm gap is within the tolerance.

Non-convergence is reported as a diagnostic result, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import PolicyError
from .mechanisms import (
    Contribution,
    ContributionProfile,
    DeficitMode,
    FundingOutcome,
    MechanismConfig,
    Variant,
    fund,
    settle_deficit,
)
from .preferences import Citizen, Family, ValueFunction, aggregate_marginal


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
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be nonnegative")

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


def _global_welfare_argmax(vfs: list[ValueFunction], cost: float) -> float:
    """Global argmax of sum_i V_i(F) - cost*F over F >= 0, by grid scan plus
    bounded refinement. Handles non-concave (S-shaped) and decreasing values."""
    def agg(F):
        return math.fsum(vf.marginal(F) for vf in vfs if math.isfinite(vf.marginal(F)))

    F_hi = 1.0
    while F_hi < 1e250:
        humps_covered = all(
            vf.family is not Family.SSHAPED or F_hi >= vf.m + 30.0 / vf.k
            for vf in vfs
        )
        if humps_covered and agg(F_hi) < cost:
            break
        F_hi *= 2.0
    grid = np.unique(np.concatenate([
        [0.0],
        np.geomspace(1e-9 * max(F_hi, 1.0), F_hi, 3000),
        np.linspace(0.0, F_hi, 3000),
    ]))
    W = -cost * grid
    for vf in vfs:
        W = W + vf.value(grid)
    i = int(np.argmax(W))
    best_F, best_W = float(grid[i]), float(W[i])
    if 0 < i < grid.size - 1:
        lo, hi = float(grid[i - 1]), float(grid[i + 1])
        res = minimize_scalar(
            lambda F: -(math.fsum(vf.value(F) for vf in vfs) - cost * F),
            bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12 * max(1.0, hi)},
        )
        if -res.fun > best_W:
            best_F, best_W = float(res.x), float(-res.fun)
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
    arrays = _FamilyArrays(list(enumerate(vfs)))
    return _unit_root(lambda F: float(arrays.marginal(F).sum()))[0]


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
        elif vf.family is Family.SSHAPED:
            preferred.append(_global_welfare_argmax([vf], cost=share))
        elif vf.marginal(0.0) <= share:
            preferred.append(0.0)
        else:
            preferred.append(vf.inverse_marginal(share))
    preferred.sort()
    return preferred[(n - 1) // 2]


# ---------------------------------------------------------------------------
# single-citizen best response (robust scalar path)


def _family_scale(vf: ValueFunction | None) -> float:
    if vf is None:
        return 1.0
    a = abs(vf.a)
    if vf.family is Family.SQRT:
        return (a / 2.0) ** 2 * 4.0 + 1.0
    if vf.family is Family.LOG:
        return a * a + 1.0
    if vf.family is Family.ISOELASTIC:
        return (a * vf.rho) ** (1.0 / (1.0 - vf.rho)) * 4.0 + 1.0
    return vf.m + 30.0 / vf.k


class _Objective:
    """Utility of one citizen's contribution to one good, others fixed.

    Exposes u(c), du/dc(c) and F(c) for one sign branch; c may be a scalar
    or an ndarray. The deficit term uses the citizen's shadow price against
    the good's own deficit F - (others' total + c).
    """

    def __init__(self, vf, lam, config, sign, s_o, A_o, Y_o):
        self.vf, self.lam, self.cfg = vf, lam, config
        self.sign, self.s_o, self.A_o, self.Y_o = sign, s_o, A_o, Y_o

    def _val(self, F):
        return 0.0 * np.asarray(F, dtype=float) if self.vf is None else self.vf.value(F)

    def _marg(self, F):
        return 0.0 * np.asarray(F, dtype=float) if self.vf is None else self.vf.marginal(F)

    def F(self, c):
        v = self.cfg.variant
        c = np.asarray(c, dtype=float)
        if v is Variant.PRIVATE:
            return self.A_o + c
        if v is Variant.LINEAR_MATCH:
            return self.cfg.scale * (self.A_o + c)
        if v in (Variant.QF, Variant.PM_QF):
            T = self.s_o + self.sign * np.sqrt(c)
            return T * T
        if v is Variant.CQF:
            T = self.s_o + np.sqrt(c)
            return self.cfg.alpha * T * T + (1.0 - self.cfg.alpha) * (self.A_o + c)
        b = self.cfg.beta
        return (self.Y_o + c ** (1.0 / b)) ** b

    def F0(self) -> float:
        v = self.cfg.variant
        if v is Variant.PRIVATE:
            return self.A_o
        if v is Variant.LINEAR_MATCH:
            return self.cfg.scale * self.A_o
        if v in (Variant.QF, Variant.PM_QF):
            return self.s_o * self.s_o
        if v is Variant.CQF:
            return self.cfg.alpha * self.s_o**2 + (1.0 - self.cfg.alpha) * self.A_o
        return self.Y_o ** self.cfg.beta

    def dF(self, c):
        v = self.cfg.variant
        c = np.asarray(c, dtype=float)
        if v is Variant.PRIVATE:
            return np.ones_like(c)
        if v is Variant.LINEAR_MATCH:
            return np.full_like(c, self.cfg.scale)
        with np.errstate(divide="ignore"):
            if v in (Variant.QF, Variant.PM_QF):
                r = np.sqrt(c)
                return self.sign * (self.s_o + self.sign * r) / r
            if v is Variant.CQF:
                r = np.sqrt(c)
                return self.cfg.alpha * (self.s_o + r) / r + (1.0 - self.cfg.alpha)
            b = self.cfg.beta
            if b == 1.0:
                return np.ones_like(c)
            y = c ** (1.0 / b)
            return ((self.Y_o + y) / y) ** (b - 1.0)

    def u(self, c):
        c = np.asarray(c, dtype=float)
        F = self.F(c)
        out = self._val(F) - c - self.lam * (F - (self.A_o + c))
        return out if c.ndim else float(out)

    def du(self, c):
        c = np.asarray(c, dtype=float)
        F = self.F(c)
        # inf * 0 at a sign-branch crossing (F hits 0) yields nan; that point
        # is never an optimum and the grid scan owns global correctness
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (self._marg(F) - self.lam) * self.dF(c) - (1.0 - self.lam)
        return out if c.ndim else float(out)

    def u0(self) -> float:
        F0 = self.F0()
        val0 = 0.0 if self.vf is None else self.vf.value(F0)
        return val0 - self.lam * (F0 - self.A_o)


def _maximize_branch(obj: _Objective) -> tuple[float, float]:
    """Best positive contribution on one sign branch: geometric grid scan,
    bounded refinement, then a derivative polish where a first-order
    bracket exists."""
    c_hi = max(1.0, obj.A_o, obj.s_o * obj.s_o, _family_scale(obj.vf))
    sshaped = obj.vf is not None and obj.vf.family is Family.SSHAPED
    for _ in range(200):
        decreasing = obj.du(c_hi) < 0 and obj.u(c_hi) <= obj.u(0.5 * c_hi)
        past_hump = not sshaped or float(obj.F(c_hi)) >= obj.vf.m
        if decreasing and past_hump:
            break
        c_hi *= 2.0
    grid = np.geomspace(1e-9, c_hi, 256)
    ug = obj.u(grid)
    i = int(np.argmax(ug))
    lo = grid[i - 1] if i > 0 else 0.5 * grid[0]
    hi = grid[i + 1] if i + 1 < grid.size else c_hi
    res = minimize_scalar(lambda c: -obj.u(c), bounds=(float(lo), float(hi)),
                          method="bounded", options={"xatol": 1e-13 * max(1.0, hi)})
    c_star = float(res.x)
    for w in (1e-3, 1e-2, 1e-1):
        a2 = max(c_star * (1.0 - w), 1e-14)
        b2 = c_star * (1.0 + w)
        if obj.du(a2) > 0.0 > obj.du(b2):
            c_star = float(brentq(obj.du, a2, b2,
                                  xtol=1e-15 * max(1.0, c_star), rtol=8.9e-16))
            break
    return c_star, obj.u(c_star)


def _best_response_core(vf, lam, config, s_o, A_o, Y_o) -> BestResponseResult:
    signs = (1, -1) if config.variant is Variant.PM_QF else (1,)
    base = _Objective(vf, lam, config, 1, s_o, A_o, Y_o)
    candidates = [(0.0, 1, base.u0())]
    for sign in signs:
        obj = _Objective(vf, lam, config, sign, s_o, A_o, Y_o)
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


def _aggregates_of(others: ContributionProfile, config: MechanismConfig):
    entries = others.nonzero()
    if config.variant is not Variant.PM_QF:
        for e in entries:
            if e.sign < 0:
                raise PolicyError("negative-sign entries require PM_QF")
    s_o = math.fsum(e.sign * math.sqrt(e.amount) for e in entries)
    A_o = math.fsum(e.amount for e in entries)
    Y_o = 0.0
    if config.variant is Variant.BETA:
        Y_o = math.fsum(e.amount ** (1.0 / config.beta) for e in entries)
    return s_o, A_o, Y_o


def best_response_full(citizen: Citizen, good_id: str,
                       others: ContributionProfile,
                       config: MechanismConfig) -> BestResponseResult:
    """Exact best response of one citizen, with sign and diagnostics.

    ``others`` is the fixed profile of everyone else (it must not contain
    the citizen). Under PM_QF both sign branches are evaluated. A citizen
    indifferent between zero and an interior optimum contributes zero, and
    near-ties are reported through ``multi_optimum``.
    """
    if config.variant is Variant.ONE_P_ONE_V:
        raise PolicyError("ONE_P_ONE_V is not a contribution game")
    if others.get(citizen.id) is not None:
        raise ValueError(f"others profile already contains {citizen.id!r}")
    lam = citizen.lam if config.deficit_mode is DeficitMode.SHADOW_PRICES else 0.0
    s_o, A_o, Y_o = _aggregates_of(others, config)
    return _best_response_core(citizen.values.get(good_id), lam, config, s_o, A_o, Y_o)


def best_response(citizen: Citizen, good_id: str, others: ContributionProfile,
                  config: MechanismConfig) -> float:
    """Optimal contribution amount (see best_response_full for the sign)."""
    return best_response_full(citizen, good_id, others, config).amount


# ---------------------------------------------------------------------------
# share-function engine for concave goods


_FAM_CODE = {Family.SQRT: 0, Family.LOG: 1, Family.ISOELASTIC: 2}


class _FamilyArrays:
    """Per-good parameter arrays, grouped by family for vectorized marginals."""

    def __init__(self, members: list[tuple[int, ValueFunction]]):
        n = len(members)
        self.n = n
        self.a = np.array([vf.a for _, vf in members], dtype=float)
        self.rho = np.array(
            [vf.rho if vf.rho is not None else 0.5 for _, vf in members], dtype=float)
        fam = np.array([_FAM_CODE[vf.family] for _, vf in members], dtype=int)
        self.idx_sqrt = np.nonzero(fam == 0)[0]
        self.idx_log = np.nonzero(fam == 1)[0]
        self.idx_iso = np.nonzero(fam == 2)[0]

    def marginal(self, F) -> np.ndarray:
        """Per-member V'(F); F is one level for all or one per member."""
        F = np.broadcast_to(np.asarray(F, dtype=float), (self.n,))
        out = np.empty(self.n)
        if self.idx_sqrt.size:
            i = self.idx_sqrt
            out[i] = self.a[i] / (2.0 * np.sqrt(np.maximum(F[i], 1e-300)))
        if self.idx_log.size:
            i = self.idx_log
            out[i] = self.a[i] / (1.0 + F[i])
        if self.idx_iso.size:
            i = self.idx_iso
            out[i] = self.a[i] * self.rho[i] * np.maximum(F[i], 1e-300) ** (self.rho[i] - 1.0)
        return out

    def inverse_marginal(self, target) -> np.ndarray:
        """Per-member F with V'(F) = target (one for all or one per member),
        0 where unattainable."""
        t = np.broadcast_to(np.asarray(target, dtype=float), (self.n,))
        out = np.zeros(self.n)
        if self.idx_sqrt.size:
            i = self.idx_sqrt
            out[i] = (self.a[i] / (2.0 * t[i])) ** 2
        if self.idx_log.size:
            i = self.idx_log
            out[i] = np.maximum(self.a[i] / t[i] - 1.0, 0.0)
        if self.idx_iso.size:
            i = self.idx_iso
            out[i] = (t[i] / (self.a[i] * self.rho[i])) ** (1.0 / (self.rho[i] - 1.0))
        return out


def _shares(arrays: _FamilyArrays, lam: np.ndarray, alpha: float, beta: float):
    """Each member's equilibrium share w_i(F) of the rule's aggregate.

    The quadratic rules are the power family at beta = 2, and CQF mixes in
    the linear rule with weight 1 - alpha (alpha = 1 otherwise). With
    m = max(V'(F) - lam, 0) the first-order conditions give
    w = (alpha*m/((1-lam) - (1-alpha)*m))**(1/(beta-1)). A member with
    m > 0 and a nonpositive denominator gains from every further unit, so
    F lies below the root and the share is +inf. The sum falls in F.
    """
    power = 1.0 / (beta - 1.0)

    def shares(F: float) -> np.ndarray:
        with np.errstate(over="ignore"):
            m = np.maximum(arrays.marginal(F) - lam, 0.0)
            den = (1.0 - lam) - (1.0 - alpha) * m
            ratio = np.divide(alpha * m, den, out=np.full(arrays.n, np.inf),
                              where=den > 0.0)
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
    F, info = brentq(lambda F: g(F) - 1.0, lo, hi, xtol=1e-300, rtol=8.9e-16,
                     full_output=True, disp=False)
    return float(F), info.iterations


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
    arrays = _FamilyArrays([(i, vf) for i, _, vf in members])
    x = np.zeros(len(members))
    v = config.variant
    if v in (Variant.PRIVATE, Variant.LINEAR_MATCH) or (
            v is Variant.BETA and config.beta == 1.0):
        scale = config.scale if v is Variant.LINEAR_MATCH else 1.0
        targets = arrays.inverse_marginal((1.0 + lam * (scale - 1.0)) / scale)
        F = float(targets.max(initial=0.0))
        if F > 0.0:
            top = targets == F
            x[top] = F / scale / np.count_nonzero(top)
        return members, x, GoodDiagnostics(True, 0, 0.0, 0.0, "vector")

    alpha = config.alpha if v is Variant.CQF else 1.0
    beta = config.beta if v is Variant.BETA else 2.0
    shares = _shares(arrays, lam, alpha, beta)
    iterations, residual = 0, 0.0
    if shares(0.0).sum() > 1.0:
        F, iterations = _unit_root(lambda F: float(shares(F).sum()))
        w = shares(F)
        residual = abs(float(w.sum()) - 1.0)
        # c_i = (w_i*T)**beta, where T**beta = F/(alpha + (1-alpha)*sum w**2)
        x = w ** beta * F / (alpha + (1.0 - alpha) * float(np.sum(w * w)))
    return members, x, GoodDiagnostics(
        residual <= tolerance, iterations, residual, 0.0, "vector")


# ---------------------------------------------------------------------------
# the Jacobi driver


def _jacobi(n, br_fn, x0, tolerance, max_iters, damping):
    """Damped Jacobi iteration on the signed contribution state.

    br_fn maps the signed state to signed best responses. Stalled progress
    (checked every 100 sweeps) halves the damping, at most 3 times.
    """
    x = x0.astype(float).copy()
    d = damping
    halvings = 0
    window, prev_window = [], []
    residual = math.inf
    iterations = 0
    converged = False
    for it in range(1, max_iters + 1):
        iterations = it
        x_br = br_fn(x)
        residual = float(np.max(np.abs(x_br - x))) if n else 0.0
        if residual <= tolerance:
            converged = True
            break
        window.append(residual)
        if len(window) == 100:
            if prev_window and halvings < 3 and min(window) > 0.5 * min(prev_window):
                d *= 0.5
                halvings += 1
            prev_window, window = window, []
        x = (1.0 - d) * x + d * x_br
    return x, converged, iterations, residual, d


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
    lam = np.array(
        [cit.lam if config.deficit_mode is DeficitMode.SHADOW_PRICES else 0.0
         for _, cit, _ in members])
    is_beta = config.variant is Variant.BETA

    def br(x):
        amounts = np.abs(x)
        roots = np.sqrt(amounts)
        signed_roots = np.sign(x) * roots
        S = signed_roots.sum()
        A = amounts.sum()
        Y = (amounts ** (1.0 / config.beta)).sum() if is_beta else 0.0
        out = np.empty(n)
        for j, (_, cit, vf) in enumerate(members):
            s_o = S - signed_roots[j]
            A_o = A - amounts[j]
            Y_o = Y - (amounts[j] ** (1.0 / config.beta) if is_beta else 0.0)
            r = _best_response_core(vf, lam[j], config, s_o, A_o, Y_o)
            out[j] = r.sign * r.amount
        return out

    x0 = np.zeros(n) if x0 is None else x0
    x, converged, iters, resid, d = _jacobi(n, br, x0, tolerance, max_iters, damping)
    return members, x, GoodDiagnostics(converged, iters, resid, d, "scalar")


def _share_start(scenario, good_id, members, config):
    """Start every citizen at her first-order share of the optimal level."""
    F_star = optimal_funding(scenario, good_id)
    if F_star <= 0:
        return None
    x0 = np.zeros(len(members))
    for j, (_, cit, vf) in enumerate(members):
        if vf is None:
            continue
        mv = max(vf.marginal(F_star), 0.0)
        if config.variant in (Variant.QF, Variant.PM_QF, Variant.CQF):
            x0[j] = (mv * math.sqrt(F_star)) ** 2
        elif config.variant is Variant.BETA and config.beta > 1:
            y = mv ** (1.0 / (config.beta - 1.0)) * F_star ** (1.0 / config.beta)
            x0[j] = y ** config.beta
        else:
            x0[j] = F_star * mv
    return x0


def _profile_from_state(good_id, members, x) -> ContributionProfile:
    entries = []
    for j, (_, cit, _) in enumerate(members):
        amt = abs(float(x[j]))
        if amt > 0.0:
            entries.append(Contribution(cit.id, amt, 1 if x[j] >= 0 else -1))
    return ContributionProfile(good_id, tuple(entries))


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

    vfs = [c.values[good_id] for c in scenario.citizens if good_id in c.values]
    two_starts = any(vf.family is Family.SSHAPED for vf in vfs)
    members, x, diag = _solve_good_scalar(
        scenario, good_id, config, tolerance, max_iters, damping)
    alt = None
    if two_starts:
        x0 = _share_start(scenario, good_id, members, config)
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
    ``tolerance``, ``max_iters`` and ``damping`` govern the scalar engine;
    a vector good is converged when its shares sum to 1 within
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
        profiles[good] = ContributionProfile(good, tuple(
            Contribution(c.id, (vf.a / 2.0) ** 2) for c, vf in vals))
        root = math.fsum(vf.a for _, vf in vals) / 2.0
        funding[good] = root * root
    return _assemble_result(
        scenario, profiles, funding,
        {g: GoodDiagnostics(True, 0, 0.0, 0.0, "closed-form") for g in scenario.goods})
