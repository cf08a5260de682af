"""Parametric per-citizen value functions V(F) over a good's funding level.

Four families, chosen to cover every qualitative regime the contribution
game can produce:

    SQRT        a*sqrt(F)                    marginal diverges at 0
    LOG         a*log(1+F)                   marginal bounded by a at 0
    ISOELASTIC  a*F**rho, rho in (0,1)       marginal diverges at 0
    SSHAPED     a*(sigma(k*(F-m)) - sigma(-k*m))   logistic, non-concave

All families satisfy V(0) = 0. SQRT, LOG and ISOELASTIC are strictly
increasing and concave for a > 0; SSHAPED is increasing but convex below
its inflection m and concave above it. A negative weight ``a`` on the
concave families models a citizen harmed by the good (value decreasing in
F), which is what lets signed-contribution scenarios produce genuinely
negative marginal values; the concavity invariants apply to a > 0.

Every family formula, parameter name (``FAMILY_PARAMS``, read by
``ValueFunction`` and the scenario parser) and bracket constant
(``bracket_scale``, ``hump_end``, ``inflection``) lives here; other modules
branch on a family only to route a good to an engine. ``value`` and
``marginal`` take a Python float or int F (``np.float64`` is a float) on
Python floats, with the array path's bits (both take exp from ``np.exp``),
and anything else as an array. The array form of V' is ``family_marginal``:
``ValueFunction.marginal`` calls it with one citizen's parameters, the
engines with one per member, ISOELASTIC's formed once per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NoSolutionError


class Family(str, Enum):
    SQRT = "SQRT"
    LOG = "LOG"
    ISOELASTIC = "ISOELASTIC"
    SSHAPED = "SSHAPED"


# value and marginal compare against module names: a lookup through the
# Enum class costs about 0.2 us (CPython 3.11), which on the float path
# cost concave_batch about 10% of its ops_per_s (5 pairs, 2 vCPUs)
_SQRT = Family.SQRT
_LOG = Family.LOG
_ISOELASTIC = Family.ISOELASTIC
_SSHAPED = Family.SSHAPED

# each family's parameters, in the order a missing one is reported
FAMILY_PARAMS = {
    Family.SQRT: ("a",),
    Family.LOG: ("a",),
    Family.ISOELASTIC: ("a", "rho"),
    Family.SSHAPED: ("a", "k", "m"),
}


def _as_float_array(F):
    arr = np.asarray(F, dtype=float)
    if np.any(arr < 0):
        raise ValueError("funding level must be nonnegative")
    return arr


def _expit(x: float) -> float:
    """The logistic 1/(1 + exp(-x)) on one float. At -709 and below exp(-x)
    would overflow, so there it is e/(1 + e) with e = exp(x). The
    exponential is ``np.exp``'s, so the bits are ``_expit_array``'s."""
    if x > -709.0:
        return 1.0 / (1.0 + float(np.exp(-x)))
    e = float(np.exp(x))
    return e / (1.0 + e)


def _expit_array(x) -> np.ndarray:
    """``_expit`` on each element, with its bits: one ``np.exp`` over the
    array, then the same sums and quotients, which IEEE rounds alike."""
    high = x > -709.0
    e = np.exp(np.where(high, -x, x))
    return np.where(high, 1.0 / (1.0 + e), e / (1.0 + e))


def family_marginal(family, F, a, e=None, k=None, m=None):
    """V'(F) of one family on numpy values, F an array or a float and the
    parameters scalars or one per member. ISOELASTIC's V' is (a*rho) *
    F**(rho - 1), so it takes ``a`` = a*rho and ``e`` = rho - 1, formed once
    by a caller that evaluates many F. SQRT and ISOELASTIC clamp F at
    1e-300, so F = 0 gives a large finite value, not their infinite limit."""
    if family is _LOG:
        return a / (1.0 + F)
    if family is _SSHAPED:
        sig = _expit_array(k * (F - m))
        return a * k * sig * (1.0 - sig)
    if isinstance(F, np.ndarray):
        F = np.maximum(F, 1e-300)
    else:
        F = max(F, 1e-300)
        if isinstance(e, np.ndarray):
            # a contiguous base: numpy may take another power loop for a
            # broadcast scalar, with other last bits
            F = np.full(e.shape, F)
    if family is _SQRT:
        return a / (2.0 * np.sqrt(F))
    return a * F ** e


@dataclass(frozen=True)
class ValueFunction:
    family: Family
    a: float
    rho: float | None = None
    k: float | None = None
    m: float | None = None

    def __post_init__(self):
        if self.a == 0 or not math.isfinite(self.a):
            raise ValueError("weight a must be a nonzero finite real")
        params = FAMILY_PARAMS[self.family]
        for name in ("rho", "k", "m"):
            if getattr(self, name) is not None and name not in params:
                owner = next(f for f, p in FAMILY_PARAMS.items() if name in p)
                raise ValueError(f"{name} only applies to {owner.value}")
        if self.family is _ISOELASTIC and (self.rho is None or not 0.0 < self.rho < 1.0):
            raise ValueError(f"ISOELASTIC requires rho in (0, 1), got {self.rho!r}")
        if self.family is _SSHAPED:
            if self.a < 0:
                raise ValueError("SSHAPED requires a > 0")
            if not (self.k is not None and 0 < self.k < math.inf
                    and self.m is not None and 0 < self.m < math.inf):
                raise ValueError("SSHAPED requires finite k > 0 and m > 0")

    @classmethod
    def sqrt(cls, a: float) -> "ValueFunction":
        return cls(Family.SQRT, a)

    @classmethod
    def log(cls, a: float) -> "ValueFunction":
        return cls(Family.LOG, a)

    @classmethod
    def isoelastic(cls, a: float, rho: float) -> "ValueFunction":
        return cls(Family.ISOELASTIC, a, rho=rho)

    @classmethod
    def sshaped(cls, a: float, k: float, m: float) -> "ValueFunction":
        return cls(Family.SSHAPED, a, k=k, m=m)

    @property
    def concave(self) -> bool:
        return self.family is not Family.SSHAPED and self.a > 0

    @property
    def inflection(self) -> float:
        """SSHAPED's m, where V turns from convex to concave; else 0."""
        return self.m if self.family is _SSHAPED else 0.0

    @property
    def hump_end(self) -> float:
        """m + 30/k, where an SSHAPED marginal is ~e**-30 of its peak; else 0."""
        return self.m + 30.0 / self.k if self.family is _SSHAPED else 0.0

    @property
    def bracket_scale(self) -> float:
        """Start of a search bracket: 4 x (level where |V'| = 1) + 1, or hump_end."""
        a = abs(self.a)
        if self.family is _SQRT:
            return (a / 2.0) ** 2 * 4.0 + 1.0
        if self.family is _LOG:
            return a * a + 1.0
        if self.family is _ISOELASTIC:
            return (a * self.rho) ** (1.0 / (1.0 - self.rho)) * 4.0 + 1.0
        return self.hump_end

    def value(self, F):
        """V(F); accepts a scalar or an ndarray. V(0) = 0 for every family.
        A float or int F takes the float path, with the array path's bits."""
        if isinstance(F, (float, int)):
            F = float(F)
            if F < 0:
                raise ValueError("funding level must be nonnegative")
            fam = self.family
            if fam is _SQRT:
                return self.a * math.sqrt(F)
            if fam is _LOG:
                # math.log1p differs from numpy's in the last bit
                return self.a * float(np.log1p(F))
            if fam is _ISOELASTIC:
                # the array path's operator, whose special cases (numpy
                # may take rho = 0.5 to sqrt) the float path then shares
                return self.a * float(np.asarray(F) ** self.rho)
            return self.a * (_expit(self.k * (F - self.m)) - _expit(-self.k * self.m))
        arr = _as_float_array(F)
        fam = self.family
        if fam is _SQRT:
            out = self.a * np.sqrt(arr)
        elif fam is _LOG:
            out = self.a * np.log1p(arr)
        elif fam is _ISOELASTIC:
            out = self.a * arr**self.rho
        else:
            out = self.a * (_expit_array(self.k * (arr - self.m)) - _expit(-self.k * self.m))
        return out if arr.ndim else float(out)

    def marginal(self, F):
        """V'(F). Where the derivative diverges at F=0 (SQRT, ISOELASTIC)
        the result is the signed infinity sentinel rather than an error.
        A float or int F takes the float path, with the array path's bits."""
        if isinstance(F, (float, int)):
            F = float(F)
            if F < 0:
                raise ValueError("funding level must be nonnegative")
            fam = self.family
            if fam is _LOG:
                return self.a / (1.0 + F)
            if fam is _SSHAPED:
                sig = _expit(self.k * (F - self.m))
                return self.a * self.k * sig * (1.0 - sig)
            if not F > 0.0:
                return math.copysign(math.inf, self.a)
            F = F if F > 1e-300 else 1e-300
            if fam is _SQRT:
                return self.a / (2.0 * math.sqrt(F))
            # a numpy scalar's power, as in the array path, is libm pow
            return self.a * self.rho * F ** (self.rho - 1.0)
        arr = _as_float_array(F)
        fam = self.family
        if fam is _ISOELASTIC:
            out = family_marginal(fam, arr, self.a * self.rho, self.rho - 1.0)
        else:
            out = family_marginal(fam, arr, self.a, None, self.k, self.m)
        if fam is _SQRT or fam is _ISOELASTIC:
            out = np.where(arr > 0, out, math.copysign(math.inf, self.a))
        return out if arr.ndim else float(out)

    def inverse_marginal(self, target: float) -> float:
        """F >= 0 with V'(F) = target, on the decreasing branch.

        For SSHAPED only the post-inflection (decreasing) branch is
        inverted; the pre-inflection root of the same marginal value is a
        coordination question, handled by the equilibrium module's global
        search instead. Raises NoSolutionError when the target exceeds the
        attainable range.
        """
        if not (target > 0) or not math.isfinite(target):
            raise ValueError(f"target marginal must be a positive real, got {target!r}")
        if self.a < 0:
            raise NoSolutionError("marginal value is negative everywhere for a < 0")
        fam = self.family
        if fam is Family.SQRT:
            r = self.a / (2.0 * target)
            return r * r
        if fam is Family.LOG:
            if target > self.a:
                raise NoSolutionError(
                    f"marginal at 0 is {self.a}, below the requested {target}")
            return self.a / target - 1.0
        if fam is Family.ISOELASTIC:
            return (target / (self.a * self.rho)) ** (1.0 / (self.rho - 1.0))
        peak = self.a * self.k / 4.0  # logistic marginal peaks at the inflection
        if target > peak:
            raise NoSolutionError(
                f"marginal peaks at {peak} (inflection), below the requested {target}")
        sig = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * target / (self.a * self.k))))
        if sig >= 1.0:
            raise NoSolutionError("target marginal too small to invert in floats")
        return self.m + math.log(sig / (1.0 - sig)) / self.k


@dataclass
class Citizen:
    """A participant: identity, per-good value functions, and a shadow
    price ``lam`` on the mechanism deficit (used in SHADOW_PRICES mode)."""

    id: str
    values: dict[str, ValueFunction] = field(default_factory=dict)
    lam: float = 0.0

    def __post_init__(self):
        if self.lam < 0 or not math.isfinite(self.lam):
            raise ValueError("lam must be a finite nonnegative real")


def aggregate_marginal(citizens, good_id: str, F: float) -> float:
    """Sum of V'(F) over the citizens that value the good.

    Divergence sentinels propagate: the sum is +/-inf when one side
    diverges, and nan when +inf and -inf meet (only possible with opposed
    infinite-marginal families at F=0).
    """
    try:
        return math.fsum(c.values[good_id].marginal(F) for c in citizens
                         if good_id in c.values)
    except ValueError:  # fsum's -inf + inf
        return math.nan


@dataclass(frozen=True)
class ConcavityReport:
    violations: tuple[tuple[float, float, float], ...]
    triples_checked: int

    @property
    def concave_on_grid(self) -> bool:
        return not self.violations


def concavity_audit(v: ValueFunction, grid) -> ConcavityReport:
    """Flag consecutive grid triples where V falls below its chord.

    For each triple (F1, F2, F3) concavity requires V(F2) to sit on or
    above the chord through (F1, V1) and (F3, V3). Triples straddling an
    SSHAPED inflection can sit exactly on the chord; a relative tolerance of
    1e-12 keeps those from being flagged by rounding noise.
    """
    pts = [float(x) for x in grid]
    if len(pts) < 3:
        raise ValueError("grid must contain at least 3 points")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be strictly increasing")
    vals = [v.value(x) for x in pts]
    violations = []
    for (f1, f2, f3), (v1, v2, v3) in zip(
        zip(pts, pts[1:], pts[2:]), zip(vals, vals[1:], vals[2:])
    ):
        chord = v1 + (v3 - v1) * (f2 - f1) / (f3 - f1)
        tol = 1e-12 * max(abs(v1), abs(v2), abs(v3), 1.0)
        if v2 < chord - tol:
            violations.append((f1, f2, f3))
    return ConcavityReport(tuple(violations), len(pts) - 2)
