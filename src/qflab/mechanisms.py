"""Funding rules: pure maps from a good's contribution profile to its funding.

Every rule is one formula with four parameters. With c_i >= 0 the amounts
contributed and sign_i = +1 or -1 their directions,

    F = alpha * T**beta + (1 - alpha) * scale * A,
    T = sum_i sign_i * c_i**(1/beta),   A = sum_i c_i

(arXiv 1809.06421). ``RuleShape(alpha, beta, scale, signed)`` holds the four
and does the arithmetic; ``MechanismConfig.shape`` derives it:

    rule           F                                 (alpha, beta, scale, signed)
    PRIVATE        sum_i c_i                         (0, 2, 1, no)
    LINEAR_MATCH   scale * sum_i c_i, scale >= 1     (0, 2, scale, no)
    QF             (sum_i sqrt(c_i))**2              (1, 2, 1, no)
    CQF            alpha*QF + (1-alpha)*PRIVATE      (alpha, 2, 1, no)
    PM_QF          (sum_i sign_i*sqrt(c_i))**2       (1, 2, 1, yes)
    BETA           (sum_i c_i**(1/beta))**beta       (1, beta, 1, no)

The linear rules are CQF's alpha = 0 end, scaled: they read only A. BETA
at beta = 1 is PRIVATE and takes its shape; BETA at beta = 2 and CQF at
alpha = 1 are QF. Unsigned rules reject negative-sign contributions.
ONE_P_ONE_V is a voting rule, not evaluable from contributions alone; its
outcome lives in the equilibrium module and only the variant tag is kept
here.

A good's contributions are a ``ContributionProfile``: three parallel
columns (citizen ids, amounts, signs), validated once, in one constructor
path, whichever way the profile is built. The rules read the columns
directly, with ``math.sqrt`` and ``math.fsum`` on Python floats, so no
``Contribution`` object is made per entry; ``profile.entries`` builds
those on first access, for callers that want them, and ``profile.get``
builds its id index on its first call.

Everything in this module is a pure function of its arguments, and
profiles are immutable: the lazily cached ``entries`` and id index are
built from the immutable columns, so two threads that race to build one
build equal values. Values are freely shareable across threads and
per-good evaluations can run in parallel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import DivergentGradientError, PolicyError


class Variant(str, Enum):
    PRIVATE = "PRIVATE"
    LINEAR_MATCH = "LINEAR_MATCH"
    ONE_P_ONE_V = "ONE_P_ONE_V"
    QF = "QF"
    CQF = "CQF"
    PM_QF = "PM_QF"
    BETA = "BETA"


class DeficitMode(str, Enum):
    IGNORE = "IGNORE"
    SHADOW_PRICES = "SHADOW_PRICES"


def _entry_error(amount, sign) -> str | None:
    """Why (amount, sign) is not a valid entry, or None when it is."""
    if not math.isfinite(amount) or amount < 0:
        return f"amount must be a finite nonnegative real, got {amount!r}"
    if sign not in (1, -1):
        return f"sign must be +1 or -1, got {sign!r}"
    return None


@dataclass(frozen=True)
class Contribution:
    """One citizen's entry on one good: an amount paid plus a direction.

    The amount is always the money handed over; sign -1 means the citizen
    pays to *reduce* the good's funding (only meaningful under PM_QF).
    """

    citizen_id: str
    amount: float
    sign: int = 1

    def __post_init__(self):
        error = _entry_error(self.amount, self.sign)
        if error:
            raise ValueError(error)


@dataclass(frozen=True, init=False)
class ContributionProfile:
    """All contributions to a single good, at most one entry per citizen.

    The profile is three parallel columns: ``citizen_ids``, ``amounts`` and
    ``signs`` (tuples, in input order). ``ContributionProfile(good_id,
    entries)``, ``from_amounts`` and ``from_columns`` all end in one
    validating constructor path: every amount finite and nonnegative, every
    sign +1 or -1, no citizen twice. ``entries``, the same data as a tuple
    of ``Contribution``, is built on first access and cached; so is the
    dict index from citizen id to position that ``get`` looks a citizen up
    in, which no funding rule reads. Equality, hashing and ``repr`` are
    over the columns.
    """

    good_id: str
    citizen_ids: tuple[str, ...]
    amounts: tuple[float, ...]
    signs: tuple[int, ...]

    def __init__(self, good_id: str, entries):
        entries = tuple(entries)
        self._set_columns(good_id, tuple(e.citizen_id for e in entries),
                          tuple(e.amount for e in entries),
                          tuple(e.sign for e in entries))
        self.__dict__["entries"] = entries

    @classmethod
    def from_columns(cls, good_id: str, citizen_ids, amounts,
                     signs=None) -> "ContributionProfile":
        """Build a profile from parallel columns; ``signs`` defaults to +1."""
        profile = cls.__new__(cls)
        amounts = tuple(amounts)
        profile._set_columns(good_id, tuple(citizen_ids), amounts,
                             (1,) * len(amounts) if signs is None else tuple(signs))
        return profile

    @classmethod
    def from_amounts(cls, good_id: str, amounts, signs=None) -> "ContributionProfile":
        """Build a profile from a mapping/sequence of amounts.

        ``amounts`` may be a mapping citizen_id -> amount or a plain sequence
        (citizens are then named c0, c1, ...). ``signs`` optionally maps the
        same keys to +1/-1.
        """
        if hasattr(amounts, "items"):
            items = list(amounts.items())
        else:
            items = [(f"c{i}", a) for i, a in enumerate(amounts)]
        signs = signs or {}
        return cls.from_columns(good_id, [str(cid) for cid, _ in items],
                                [float(a) for _, a in items],
                                [signs.get(cid, 1) for cid, _ in items])

    def _set_columns(self, good_id, citizen_ids, amounts, signs) -> None:
        n = len(citizen_ids)
        if len(amounts) != n or len(signs) != n:
            raise ValueError("citizen_ids, amounts and signs differ in length")
        # one C-speed pass each for the common valid case; the entry-by-entry
        # scan runs only to name the first bad entry, and where every entry
        # is valid the sum has overflowed
        if not (sum(amounts) < math.inf and min(amounts, default=0.0) >= 0
                and signs.count(1) + signs.count(-1) == n):
            for amount, sign in zip(amounts, signs):
                error = _entry_error(amount, sign)
                if error:
                    raise ValueError(error)
            raise ValueError("amounts sum past the float range")
        if len(set(citizen_ids)) != n:
            seen = set()
            for cid in citizen_ids:
                if cid in seen:
                    raise ValueError(f"duplicate contribution by citizen {cid!r}")
                seen.add(cid)
        object.__setattr__(self, "good_id", good_id)
        object.__setattr__(self, "citizen_ids", citizen_ids)
        object.__setattr__(self, "amounts", amounts)
        object.__setattr__(self, "signs", signs)

    @cached_property
    def entries(self) -> tuple[Contribution, ...]:
        return tuple(map(Contribution, self.citizen_ids, self.amounts, self.signs))

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.citizen_ids, range(len(self.citizen_ids))))

    def nonzero(self) -> tuple[Contribution, ...]:
        """The entries with a positive amount: the ones any rule counts."""
        return tuple(Contribution(cid, a, s) for cid, a, s
                     in zip(self.citizen_ids, self.amounts, self.signs) if a > 0)

    def total(self) -> float:
        """Money paid in, regardless of direction."""
        return math.fsum(self.amounts)

    def get(self, citizen_id: str) -> Contribution | None:
        i = self._index.get(citizen_id)
        if i is None:
            return None
        return Contribution(citizen_id, self.amounts[i], self.signs[i])

    def __len__(self) -> int:
        return len(self.citizen_ids)


@dataclass(frozen=True)
class RuleShape:
    """One funding rule as F = alpha*T**beta + (1 - alpha)*scale*A, with
    T = sum_i sign_i*c_i**(1/beta) and A = sum_i c_i (module docstring).

    Every evaluation of a rule goes through these methods: ``fund``, the
    funding gradient, a citizen's best-response objective and both
    equilibrium engines. They take Python floats or numpy arrays. At
    beta = 2 a root is a square root and a power is a product; ``x**0.5``
    and ``x**2.0`` differ from those in the last bit on some inputs. The
    linear rules have alpha = 0 and read only A.
    """

    alpha: float
    beta: float
    scale: float
    signed: bool

    def root(self, c):
        """c**(1/beta): one contribution's term in T, without its sign."""
        if self.beta == 2.0:
            return np.sqrt(c) if isinstance(c, np.ndarray) else math.sqrt(c)
        return c ** (1.0 / self.beta)

    def aggregate(self, amounts, signs) -> float:
        """T over a profile's amount and sign columns, exactly rounded.
        fsum over ``map`` keeps a long profile at C speed."""
        if self.beta == 2.0:
            terms = map(math.sqrt, amounts)
        else:
            terms = map(pow, amounts, repeat(1.0 / self.beta, len(amounts)))
        if self.signed:
            terms = map(operator.mul, signs, terms)
        return math.fsum(terms)

    def funding(self, T, A):
        """F from the aggregates. A is not read when alpha = 1, and T is
        not read when alpha = 0."""
        if self.alpha == 0.0:
            return self.scale * A
        power = T * T if self.beta == 2.0 else T ** self.beta
        if self.alpha == 1.0:
            return power
        return self.alpha * power + (1.0 - self.alpha) * self.scale * A

    def slope(self, T, y, sign=1):
        """dF/dc of one contribution c > 0 with root y = c**(1/beta) and the
        given sign, at the aggregate T that includes it:
        alpha*(sign*T/y)**(beta - 1) + (1 - alpha)*scale."""
        if self.alpha == 0.0:
            return self.scale
        if self.beta == 2.0:
            return self.alpha * sign * T / y + (1.0 - self.alpha) * self.scale
        return self.alpha * (T / y) ** (self.beta - 1.0) + (1.0 - self.alpha) * self.scale


@dataclass(frozen=True)
class MechanismConfig:
    """Which funding rule is active plus its parameters and policies. PM_QF
    is the one signed rule: choosing it admits negative-sign contributions."""

    variant: Variant
    alpha: float | None = None
    scale: float | None = None
    beta: float | None = None
    deficit_mode: DeficitMode = DeficitMode.IGNORE

    def __post_init__(self):
        v = self.variant
        if v is Variant.CQF:
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError(f"CQF requires alpha in (0, 1], got {self.alpha!r}")
        elif self.alpha is not None:
            raise ValueError(f"alpha only applies to CQF, not {v.value}")
        if v is Variant.LINEAR_MATCH:
            if self.scale is None or not 1.0 <= self.scale < math.inf:
                raise ValueError(f"LINEAR_MATCH requires a finite scale >= 1, got {self.scale!r}")
        elif self.scale is not None:
            raise ValueError(f"scale only applies to LINEAR_MATCH, not {v.value}")
        if v is Variant.BETA:
            if self.beta is None or not 1.0 <= self.beta < math.inf:
                raise ValueError(f"BETA requires a finite beta >= 1, got {self.beta!r}")
        elif self.beta is not None:
            raise ValueError(f"beta only applies to BETA, not {v.value}")

    @classmethod
    def private(cls, **kw) -> "MechanismConfig":
        return cls(Variant.PRIVATE, **kw)

    @classmethod
    def linear_match(cls, scale: float, **kw) -> "MechanismConfig":
        return cls(Variant.LINEAR_MATCH, scale=scale, **kw)

    @classmethod
    def one_p_one_v(cls, **kw) -> "MechanismConfig":
        return cls(Variant.ONE_P_ONE_V, **kw)

    @classmethod
    def qf(cls, **kw) -> "MechanismConfig":
        return cls(Variant.QF, **kw)

    @classmethod
    def cqf(cls, alpha: float, **kw) -> "MechanismConfig":
        return cls(Variant.CQF, alpha=alpha, **kw)

    @classmethod
    def pm_qf(cls, **kw) -> "MechanismConfig":
        return cls(Variant.PM_QF, **kw)

    @classmethod
    def beta_rule(cls, beta: float, **kw) -> "MechanismConfig":
        return cls(Variant.BETA, beta=beta, **kw)

    @cached_property
    def shape(self) -> RuleShape | None:
        """The rule's (alpha, beta, scale, signed), as tabled in the module
        docstring; None for ONE_P_ONE_V, which no formula in the
        contributions describes."""
        v = self.variant
        if v is Variant.ONE_P_ONE_V:
            return None
        if v is Variant.LINEAR_MATCH:
            return RuleShape(0.0, 2.0, float(self.scale), False)
        if v is Variant.PRIVATE or (v is Variant.BETA and self.beta == 1.0):
            return RuleShape(0.0, 2.0, 1.0, False)
        if v is Variant.CQF:
            return RuleShape(float(self.alpha), 2.0, 1.0, False)
        if v is Variant.BETA:
            return RuleShape(1.0, float(self.beta), 1.0, False)
        return RuleShape(1.0, 2.0, 1.0, v is Variant.PM_QF)


@dataclass(frozen=True)
class FundingOutcome:
    """Funding per good plus the books: deficit and the uniform per-capita tax.

    deficit = sum_p F_p - sum_p sum_i c_i_p, computed literally as that
    difference. It is negative only under PM_QF (a heavily shorted good can
    receive less than was paid in), in which case the "tax" is a rebate.
    """

    funding: dict[str, float]
    deficit: float
    per_capita_tax: float


def _require_positive_signs(profile: ContributionProfile, rule: str) -> None:
    if -1 in profile.signs:
        cid = profile.citizen_ids[profile.signs.index(-1)]
        raise PolicyError(
            f"{rule} does not accept negative-sign contributions "
            f"(citizen {cid!r}); use PM_QF"
        )


# The aggregates below run over every entry. fsum is exactly rounded, so the
# zero-amount entries (which contribute exact zeros) leave each sum
# bit-identical to one over the nonzero entries only; it also keeps the
# equal-contribution scaling identities exact (N equal entries of x fund
# exactly N**2 * x under QF).


def _lone_amount(amounts) -> float | None:
    """The only nonzero amount, or None when there are 0 or at least 2.

    Every rule but the linear ones funds a lone contributor at exactly
    their amount, which the square of a square root would not reproduce in
    floats."""
    if len(amounts) - amounts.count(0.0) == 1:
        return max(amounts)
    return None


def _fund(profile: ContributionProfile, shape: RuleShape, rule: str) -> float:
    """``fund`` under a shape; ``rule`` names it in an error. Raises
    ValueError where the funding level overflows the float range."""
    if not shape.signed:
        _require_positive_signs(profile, rule)
    amounts = profile.amounts
    lone = _lone_amount(amounts) if shape.alpha else None
    if lone is not None:
        return lone
    T = shape.aggregate(amounts, profile.signs) if shape.alpha else 0.0
    A = math.fsum(amounts) if shape.alpha < 1.0 else 0.0
    try:
        F = shape.funding(T, A)
    except OverflowError:  # a float ** raises where * gives inf
        F = math.inf
    if not F < math.inf:
        raise ValueError(f"{rule} funding overflows the float range")
    return F


def fund(profile: ContributionProfile, config: MechanismConfig) -> float:
    """Evaluate the configured rule on one good's profile."""
    if config.shape is None:
        raise PolicyError(
            "ONE_P_ONE_V funding is a voting outcome, not a function of "
            "contributions; use equilibrium.one_p_one_v_outcome"
        )
    return _fund(profile, config.shape, config.variant.value)


def fund_private(profile: ContributionProfile) -> float:
    """Sum of contributions: no matching, no taxes."""
    return fund(profile, MechanismConfig.private())


def fund_linear_match(profile: ContributionProfile, scale: float) -> float:
    """Contributions scaled by a fixed match ratio >= 1."""
    return fund(profile, MechanismConfig.linear_match(scale))


def fund_qf(profile: ContributionProfile) -> float:
    """Square of the sum of square roots of the contributions."""
    return fund(profile, MechanismConfig.qf())


def fund_cqf(profile: ContributionProfile, alpha: float) -> float:
    """alpha-mixture of QF with unmatched private contributions, alpha in (0, 1]."""
    return fund(profile, MechanismConfig.cqf(alpha))


def fund_pm_qf(profile: ContributionProfile) -> float:
    """Signed variant of QF: citizens may pay to reduce funding.

    The result is a square, hence never negative, but it can be smaller
    than the money paid in.
    """
    return fund(profile, MechanismConfig.pm_qf())


def fund_beta(profile: ContributionProfile, beta: float) -> float:
    """Power-family rule (sum_i c_i**(1/beta))**beta.

    beta=1 reproduces PRIVATE and beta=2 reproduces QF.
    """
    return fund(profile, MechanismConfig.beta_rule(beta))


def funding_gradient(profile: ContributionProfile, config: MechanismConfig,
                     citizen_id: str) -> float:
    """Closed-form dF/dc_i of the configured rule at the given profile.

    The gradient diverges at a zero contribution under QF, CQF, PM_QF and
    BETA with beta > 1; those cases raise DivergentGradientError.
    """
    own = profile.get(citizen_id)
    if own is None:
        raise ValueError(f"citizen {citizen_id!r} has no entry on good {profile.good_id!r}")
    shape = config.shape
    if shape is None:
        raise PolicyError("ONE_P_ONE_V has no contribution gradient")
    if shape.alpha and own.amount == 0.0:
        raise DivergentGradientError(
            f"dF/dc diverges at zero contribution under {config.variant.value}"
        )
    return shape.slope(shape.aggregate(profile.amounts, profile.signs),
                       shape.root(own.amount), own.sign)


def evaluate_outcome(profiles, config: MechanismConfig, n_citizens: int) -> FundingOutcome:
    """Fund every good and account for the deficit and uniform per-capita tax."""
    if n_citizens < 1:
        raise ValueError("n_citizens must be at least 1")
    funding = {p.good_id: fund(p, config) for p in profiles}
    try:
        deficit = math.fsum(funding.values()) - math.fsum(p.total() for p in profiles)
    except OverflowError:
        raise ValueError("funding summed over goods overflows the float range") from None
    return FundingOutcome(funding=funding, deficit=deficit,
                          per_capita_tax=deficit / n_citizens)


def settle_deficit(outcome: FundingOutcome, n_citizens: int,
                   minor_unit: float = 1e-9) -> list[float]:
    """Split the deficit into n per-citizen taxes that sum exactly.

    The deficit is quantized to ``minor_unit`` and allocated by largest
    remainder: with an equal split all remainders tie, so the leftover
    units go to the first positions in order. The unit counts always sum
    to the quantized deficit exactly.
    """
    if n_citizens < 1:
        raise ValueError("n_citizens must be at least 1")
    if minor_unit <= 0:
        raise ValueError("minor_unit must be positive")
    units = outcome.deficit / minor_unit
    if not abs(units) < math.inf:
        raise ValueError(f"deficit {outcome.deficit!r} / {minor_unit!r} overflows the float range")
    total_units = round(units)
    base, rem = divmod(total_units, n_citizens)
    return [(base + 1) * minor_unit if i < rem else base * minor_unit
            for i in range(n_citizens)]
