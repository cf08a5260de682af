"""Event-driven funding rounds with assurance thresholds and refunds.

A round is a window of integer ticks during which citizens contribute and
withdraw. Published funding levels may lag the true state by a fixed delay
(a crude information-security knob). At the close of the window each good
settles: if its funding meets the assurance threshold it is funded at that
level, otherwise every commitment is refunded in full.

Determinism contract: a round is a single sequential event loop; same-tick
agents act in an order drawn from a seeded generator, so identical
(scenario, agents, seed) inputs replay to bit-identical ledgers. Replaying
a ledger's events reproduces every recorded snapshot exactly.

The event log is kept in tick order. The positive amounts per good are
built from the holdings when first asked for after an event, in
O(holdings), and that object is never changed afterwards. When the first
event of a later tick arrives, the state as it stood at the end of the
previous tick becomes a checkpoint, so the state as of any earlier tick is
a lookup rather than a replay of the log. Each value in it is the same
sum, in event order, that a replay would compute.

An agent-tick costs O(goods) before the policy runs, apart from that
rebuild once per event. The agent's ``AgentView`` pins the delayed state
by reference and copies out the agent's own holdings, which the ledger
keeps per citizen. The delayed commitments are copied only if the policy
reads them; the others' aggregates (T_o, A_o), all a best response needs,
are summed over one good's holders without a copy.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import numbers
import random
from dataclasses import dataclass, field
from enum import Enum

from .errors import PolicyError
from .mechanisms import ContributionProfile, DeficitMode, MechanismConfig, fund
from .preferences import Citizen
from .equilibrium import Scenario, _aggregates_of, _best_response_core
from .scenario_io import _csv_field


class EventKind(str, Enum):
    CONTRIBUTE = "CONTRIBUTE"
    WITHDRAW = "WITHDRAW"


class SettlementStatus(str, Enum):
    FUNDED = "FUNDED"
    REFUNDED = "REFUNDED"


@dataclass(frozen=True)
class RoundEvent:
    time: int
    citizen_id: str
    good_id: str
    kind: EventKind
    amount: float

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise ValueError(f"tick must be nonnegative and finite, got {self.time!r}")
        if not (self.amount > 0) or not math.isfinite(self.amount):
            raise ValueError("event amount must be a positive finite real")


@dataclass(frozen=True)
class GoodSettlement:
    status: SettlementStatus
    funding: float
    refunds: dict[str, float]

    @property
    def refund_total(self) -> float:
        return math.fsum(self.refunds.values())


@dataclass(frozen=True)
class AssurancePolicy:
    """Per-good funding thresholds; goods short of their threshold refund."""

    threshold: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for g, t in self.threshold.items():
            if not t >= 0:
                raise ValueError(f"threshold for {g!r} must be nonnegative, got {t!r}")


def _fresh(by_good: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    return {g: dict(held) for g, held in by_good.items()}


class RoundLedger:
    """Append-only, tick-ordered event log plus per-tick snapshots and the
    settlement."""

    def __init__(self, window_end: int):
        if isinstance(window_end, bool) or not isinstance(window_end, numbers.Integral) \
                or window_end < 1:
            raise ValueError(f"window_end must be an integer of at least 1, got {window_end!r}")
        self.window_end = window_end
        self.events: list[RoundEvent] = []
        self.snapshots: list[tuple[int, dict[str, float]]] = []
        self.settlement: dict[str, GoodSettlement] | None = None
        self.goods_seen: set[str] = set()
        # every amount ever committed (0.0 after a full withdrawal), per
        # (citizen, good) pair and per citizen, each in first-event order
        self._committed: dict[tuple[str, str], float] = {}
        self._holdings: dict[str, dict[str, float]] = {}
        self._live: dict[str, dict[str, float]] | None = {}
        # _checkpoints[i] is the by-good state at the end of _checkpoint_ticks[i]
        self._checkpoint_ticks: list[int] = []
        self._checkpoints: list[dict[str, dict[str, float]]] = []

    def committed(self, citizen_id: str, good_id: str) -> float:
        return self._committed.get((citizen_id, good_id), 0.0)

    def _by_good(self) -> dict[str, dict[str, float]]:
        """The positive amounts per good now. Built after each event when
        first asked for, and never changed afterwards."""
        if self._live is None:
            live: dict[str, dict[str, float]] = {}
            for (cid, gid), amt in self._committed.items():
                if amt > 0:
                    live.setdefault(gid, {})[cid] = amt
            self._live = live
        return self._live

    def _by_good_at(self, as_of: float | None) -> dict[str, dict[str, float]]:
        if as_of is not None and math.isnan(as_of):
            raise ValueError("as_of must not be NaN")
        if as_of is None or (self.events and as_of >= self.events[-1].time):
            return self._by_good()
        i = bisect.bisect_right(self._checkpoint_ticks, as_of)
        return self._checkpoints[i - 1] if i else {}

    def commitments_by_good(self, as_of: float | None = None) -> dict[str, dict[str, float]]:
        """Positive committed amounts per good, at the end of tick ``as_of``
        (any real, inf included) or now. Every call returns fresh dicts."""
        return _fresh(self._by_good_at(as_of))

    def apply(self, event: RoundEvent) -> "RoundLedger":
        if self.settlement is not None:
            raise ValueError("ledger is sealed: the round has settled")
        if event.time >= self.window_end:
            raise ValueError(
                f"event at tick {event.time} rejected: window closed at "
                f"{self.window_end}")
        last = self.events[-1].time if self.events else None
        if last is not None and event.time < last:
            raise ValueError(
                f"event at tick {event.time} rejected: the log is at tick {last}")
        cid, gid = event.citizen_id, event.good_id
        held = self.committed(cid, gid)
        if event.kind is EventKind.WITHDRAW and event.amount > held:
            raise ValueError(
                f"withdrawal of {event.amount} rejected: {cid!r} "
                f"holds only {held} on {gid!r}")
        if last is not None and event.time > last:
            self._checkpoint_ticks.append(last)
            self._checkpoints.append(self._by_good())
        delta = event.amount if event.kind is EventKind.CONTRIBUTE else -event.amount
        self._committed[cid, gid] = self._holdings.setdefault(cid, {})[gid] = held + delta
        self._live = None
        self.goods_seen.add(gid)
        self.events.append(event)
        return self


def _profile_of(good_id: str, amounts: dict[str, float]) -> ContributionProfile:
    """The positive-sign profile of a citizen_id -> amount dict, in its order:
    every rule sums with ``math.fsum``, so the order moves no bit."""
    return ContributionProfile.from_columns(good_id, amounts.keys(), amounts.values())


def provisional_snapshot(ledger: RoundLedger, tick: int, config: MechanismConfig,
                         delay: float = 0, goods=()) -> dict[str, float]:
    """Funding per good computed from commitments as of tick - delay.

    delay 0 publishes the current state; an infinite delay publishes
    nothing (all zeros, the state before tick 0). ``goods`` fixes the set
    of reported goods (defaults to every good seen in the ledger), which
    keeps recorded snapshots replayable when goods first appear mid-round.
    """
    if not (delay >= 0):
        raise ValueError("delay must be nonnegative")
    cutoff = tick - delay
    all_goods = ledger.goods_seen | set(goods)
    if cutoff < 0:
        return {g: 0.0 for g in all_goods}
    by_good = ledger._by_good_at(cutoff)
    out = {}
    for g in all_goods:
        out[g] = fund(_profile_of(g, by_good.get(g, {})), config)
    return out


class AgentView:
    """What a policy sees when asked to act: the tick, the delayed
    commitment state, its own current commitments, and the round's rules.

    ``run_round`` builds a view in O(goods). ``tick``, ``config`` and
    ``assurance`` are shared, and ``own_committed`` is a fresh dict of the
    agent's holdings: every good it has held, plus 0.0 for each scenario
    good it has not. The delayed state (as of tick - delay) is pinned by
    reference: the ledger never changes a state once it has built it, so
    it stays as it was when the view was made. From it:

    * ``delayed_commitments`` (fresh dicts, good -> citizen -> positive
      amount) is built on first access, in O(holdings), and kept;
    * ``others_aggregates`` sums one good's others in place, in
      O(holders), and copies nothing else.

    A policy that reads neither pays nothing for the delayed state. A view
    built by hand pins the state it is given in the same way, so its
    ``delayed_commitments`` are an equal copy of that state, not the dict
    itself.
    """

    __slots__ = ("tick", "own_committed", "config", "assurance", "_delayed", "_by_good")

    def __init__(self, tick: int, delayed_commitments: dict[str, dict[str, float]],
                 own_committed: dict[str, float], config: MechanismConfig,
                 assurance: AssurancePolicy):
        self.tick = tick
        self._by_good = delayed_commitments
        self._delayed = None
        self.own_committed = own_committed
        self.config = config
        self.assurance = assurance

    @property
    def delayed_commitments(self) -> dict[str, dict[str, float]]:
        if self._delayed is None:
            self._delayed = _fresh(self._by_good)
        return self._delayed

    def others_aggregates(self, good: str, citizen_id: str) -> tuple[float, float]:
        """(T_o, A_o) of the delayed state of ``good`` without
        ``citizen_id``: the rule's root aggregate and the total of the
        others' profile, as ``best_response_full`` computes them."""
        shape = self.config.shape
        if shape is None:
            raise PolicyError("ONE_P_ONE_V is not a contribution game")
        others = {cid: amt for cid, amt in self._by_good.get(good, {}).items()
                  if cid != citizen_id}
        return _aggregates_of(_profile_of(good, others), shape)


def _check_min_step(min_step: float) -> None:
    if not 0 < min_step < math.inf:
        raise ValueError(f"min_step must be positive and finite, got {min_step!r}")


class MyopicBestResponse:
    """Plays the static best response against the published (delayed) state.

    One event per tick: the good with the largest gap between the target
    and the current own commitment. Positive-direction contributions only.
    The target sees the others only through their aggregates
    (``AgentView.others_aggregates``). For each good the agent keeps its
    last input and the target found for it, and reuses that target while
    the input repeats.
    """

    def __init__(self, citizen: Citizen, goods: list[str], min_step: float = 1e-7):
        _check_min_step(min_step)
        self.citizen = citizen
        self.goods = [g for g in goods if g in citizen.values]
        self.min_step = min_step
        self._last: dict[str, tuple[tuple, float]] = {}

    def _target(self, good: str, view: AgentView) -> float:
        config = view.config
        T_o, A_o = view.others_aggregates(good, self.citizen.id)
        key = (T_o, A_o, config)
        last = self._last.get(good)
        if last is not None and last[0] == key:
            return last[1]
        lam = self.citizen.lam if config.deficit_mode is DeficitMode.SHADOW_PRICES else 0.0
        target = _best_response_core(self.citizen.values[good], lam, config.shape,
                                     T_o, A_o).amount
        self._last[good] = (key, target)
        return target

    def propose(self, view: AgentView) -> tuple[str, EventKind, float] | None:
        best = None
        for good in self.goods:
            gap = self._target(good, view) - view.own_committed.get(good, 0.0)
            if abs(gap) >= self.min_step and (best is None or abs(gap) > abs(best[1])):
                best = (good, gap)
        if best is None:
            return None
        good, gap = best
        if gap > 0:
            return good, EventKind.CONTRIBUTE, gap
        return good, EventKind.WITHDRAW, -gap


class ThresholdPledger:
    """Commits a fixed share toward refund-protected goods and then holds.

    Pledging is safe as long as a missed threshold refunds in full, so the
    policy simply tops its commitment up to the share, one good per tick,
    in good-id order.
    """

    def __init__(self, citizen_id: str, shares: dict[str, float], min_step: float = 1e-12):
        for g, s in shares.items():
            if not 0 <= s < math.inf:
                raise ValueError(f"share for {g!r} must be nonnegative and finite, got {s!r}")
        _check_min_step(min_step)
        self.citizen_id = citizen_id
        self.shares = dict(sorted(shares.items()))
        self.min_step = min_step

    def propose(self, view: AgentView) -> tuple[str, EventKind, float] | None:
        assurance = view.assurance
        for good, share in self.shares.items():
            if good not in assurance.threshold:
                continue
            gap = share - view.own_committed.get(good, 0.0)
            if gap >= self.min_step:
                return good, EventKind.CONTRIBUTE, gap
        return None


def assurance_settlement(ledger: RoundLedger, policy: AssurancePolicy,
                         config: MechanismConfig,
                         goods=()) -> dict[str, GoodSettlement]:
    """Settle every good: fund at its rule value when the threshold is met,
    otherwise refund each citizen's committed amount exactly."""
    by_good = ledger.commitments_by_good()
    goods = set(by_good) | set(policy.threshold) | ledger.goods_seen | set(goods)
    settlement = {}
    for g in sorted(goods):
        amounts = by_good.get(g, {})
        F = fund(_profile_of(g, amounts), config)
        threshold = policy.threshold.get(g, 0.0)
        if F >= threshold:
            settlement[g] = GoodSettlement(SettlementStatus.FUNDED, F, {})
        else:
            settlement[g] = GoodSettlement(
                SettlementStatus.REFUNDED, 0.0, dict(sorted(amounts.items())))
    ledger.settlement = settlement
    return settlement


def run_round(scenario: Scenario, agents: dict[str, object], window_end: int,
              assurance: AssurancePolicy | None = None, delay: float = 0,
              seed: int = 0) -> RoundLedger:
    """Run a full contribution window and settle it.

    ``agents`` maps citizen ids to policy objects exposing
    ``propose(view) -> (good, kind, amount) | None``. Each tick the agents
    act once each, in a seeded random order; actions see commitments as of
    tick - delay plus the agent's own current holdings. After the last tick
    the assurance policy settles every good. Failure to reach any
    particular state is not an error; the ledger records whatever happened.
    """
    if not (delay >= 0):
        raise ValueError("delay must be nonnegative")
    policy = assurance or AssurancePolicy()
    config = scenario.mechanism
    ledger = RoundLedger(window_end)
    zeros = dict.fromkeys(scenario.goods, 0.0)
    rng = random.Random(seed)
    ids = sorted(agents)
    for tick in range(window_end):
        order = ids[:]
        rng.shuffle(order)
        # for a delay > 0 every event logged in this tick is later than
        # tick - delay, so one lookup serves the whole tick; at delay 0 the
        # view is the live state
        fixed = ledger._by_good_at(tick - delay) if delay else None
        for cid in order:
            view = AgentView(
                tick, ledger._by_good() if fixed is None else fixed,
                {**zeros, **ledger._holdings.get(cid, zeros)}, config, policy)
            action = agents[cid].propose(view)
            if action is None:
                continue
            good, kind, amount = action
            ledger.apply(RoundEvent(tick, cid, good, kind, amount))
        ledger.snapshots.append(
            (tick, provisional_snapshot(ledger, tick, config, delay,
                                        goods=scenario.goods)))
    assurance_settlement(ledger, policy, config, goods=scenario.goods)
    return ledger


def ledger_to_csv(ledger: RoundLedger) -> str:
    """Event rows plus a settlement footer block."""
    buf = io.StringIO()
    buf.write("tick,citizen_id,good_id,kind,amount\n")
    for e in ledger.events:
        buf.write(f"{e.time},{_csv_field(e.citizen_id)},{_csv_field(e.good_id)},"
                  f"{e.kind.value},{e.amount!r}\n")
    if ledger.settlement is not None:
        buf.write("# settlement\n")
        buf.write("good_id,status,funding,refund_total\n")
        for g, s in sorted(ledger.settlement.items()):
            buf.write(f"{_csv_field(g)},{s.status.value},{s.funding!r},{s.refund_total!r}\n")
    return buf.getvalue()


def snapshots_to_json(ledger: RoundLedger) -> str:
    return json.dumps(
        [{"tick": t, "funding": f} for t, f in ledger.snapshots],
        sort_keys=True,
    )
