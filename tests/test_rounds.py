import math
import random

import numpy as np
import pytest

from qflab import (
    AssurancePolicy,
    Citizen,
    EventKind,
    MechanismConfig,
    RoundEvent,
    RoundLedger,
    Scenario,
    SettlementStatus,
    MyopicBestResponse,
    ThresholdPledger,
    ValueFunction,
    assurance_settlement,
    closed_form_qf_equilibrium,
    ledger_to_csv,
    provisional_snapshot,
    run_round,
    snapshots_to_json,
)
from qflab import DeficitMode, equilibrium, rounds
from conftest import grid_route, reference_run_round, sqrt_scenario


QF = MechanismConfig.qf()


def contribute(ledger, tick, cid, gid, amount):
    return ledger.apply(RoundEvent(tick, cid, gid, EventKind.CONTRIBUTE, amount))


def withdraw(ledger, tick, cid, gid, amount):
    return ledger.apply(RoundEvent(tick, cid, gid, EventKind.WITHDRAW, amount))


class TestLedger:
    def test_contribute_then_withdraw_cancels(self):
        led = RoundLedger(window_end=10)
        contribute(led, 0, "a", "g", 5.0)
        withdraw(led, 1, "a", "g", 5.0)
        assert led.committed("a", "g") == 0.0

    def test_over_withdrawal_rejected(self):
        led = RoundLedger(window_end=10)
        contribute(led, 0, "a", "g", 2.0)
        with pytest.raises(ValueError):
            withdraw(led, 1, "a", "g", 3.0)

    def test_contributions_accumulate(self):
        led = RoundLedger(window_end=10)
        contribute(led, 0, "a", "g", 2.0)
        contribute(led, 3, "a", "g", 3.0)
        assert led.committed("a", "g") == 5.0

    def test_post_window_event_rejected(self):
        led = RoundLedger(window_end=4)
        with pytest.raises(ValueError):
            contribute(led, 4, "a", "g", 1.0)

    def test_sealed_after_settlement(self):
        led = RoundLedger(window_end=4)
        contribute(led, 0, "a", "g", 1.0)
        assurance_settlement(led, AssurancePolicy(), QF)
        with pytest.raises(ValueError):
            contribute(led, 1, "a", "g", 1.0)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            RoundEvent(-1, "a", "g", EventKind.CONTRIBUTE, 1.0)
        with pytest.raises(ValueError):
            RoundEvent(0, "a", "g", EventKind.CONTRIBUTE, 0.0)


def replay(events, as_of):
    """Committed amounts per good after every event at or before as_of."""
    state = {}
    for e in events:
        if e.time <= as_of:
            sign = 1.0 if e.kind is EventKind.CONTRIBUTE else -1.0
            key = (e.citizen_id, e.good_id)
            state[key] = state.get(key, 0.0) + sign * e.amount
    out = {}
    for (cid, gid), amt in state.items():
        if amt > 0:
            out.setdefault(gid, {})[cid] = amt
    return out


def random_ledger(seed, window_end=12):
    """Events in tick order: contributions, partial withdrawals, withdrawals
    down to exactly zero, re-contributions, and ticks with no events."""
    rnd = random.Random(seed)
    led = RoundLedger(window_end)
    for tick in range(window_end):
        for _ in range(rnd.choice([0, 0, 1, 3, 6])):
            cid, gid = rnd.choice("abcd"), rnd.choice(["g", "h", "k"])
            held = led.committed(cid, gid)
            move = rnd.random()
            if held > 0 and move < 0.3:
                withdraw(led, tick, cid, gid, held)
            elif held > 0 and move < 0.5:
                withdraw(led, tick, cid, gid, held * rnd.random())
            else:
                contribute(led, tick, cid, gid, rnd.choice([0.1, 1.0, rnd.random() * 5]))
    return led


class TestDelayedViews:
    @pytest.mark.parametrize("seed", range(8))
    def test_views_equal_an_independent_replay(self, seed):
        led = random_ledger(seed)
        assert any(e.kind is EventKind.WITHDRAW for e in led.events)
        cutoffs = [-math.inf, -1, -0.5, math.inf] + [
            t / 2 for t in range(2 * led.window_end + 2)]
        for as_of in cutoffs:
            got = led.commitments_by_good(as_of)
            want = replay(led.events, as_of)
            assert repr(got) == repr(want), as_of
        assert repr(led.commitments_by_good()) == repr(replay(led.events, math.inf))

    def test_out_of_order_event_rejected(self):
        led = RoundLedger(window_end=10)
        contribute(led, 3, "a", "g", 1.0)
        contribute(led, 3, "b", "g", 1.0)
        with pytest.raises(ValueError, match="tick 2"):
            contribute(led, 2, "c", "g", 1.0)
        assert len(led.events) == 2
        assert led.commitments_by_good(2) == {}

    def test_returned_views_are_fresh(self):
        led = RoundLedger(window_end=10)
        contribute(led, 0, "a", "g", 1.0)
        contribute(led, 1, "b", "g", 2.0)
        for as_of in (0, 1, None):
            before = repr(led.commitments_by_good(as_of))
            view = led.commitments_by_good(as_of)
            view["g"]["z"] = 9.0
            view["h"] = {}
            assert repr(led.commitments_by_good(as_of)) == before

    def test_nan_cutoff_rejected(self):
        led = RoundLedger(window_end=10)
        with pytest.raises(ValueError):
            led.commitments_by_good(math.nan)


class TestSnapshot:
    def test_delay_window(self):
        led = RoundLedger(window_end=10)
        contribute(led, 1, "a", "g", 2.0)
        contribute(led, 3, "a", "g", 5.0)
        # cutoff 4 - 2 = 2: only the tick-1 entry is visible
        snap = provisional_snapshot(led, 4, QF, delay=2)
        assert snap["g"] == 2.0

    def test_zero_delay_is_current(self):
        led = RoundLedger(window_end=10)
        contribute(led, 1, "a", "g", 2.0)
        contribute(led, 3, "a", "g", 5.0)
        assert provisional_snapshot(led, 3, QF, delay=0)["g"] == 7.0

    def test_infinite_delay_is_blind(self):
        led = RoundLedger(window_end=10)
        contribute(led, 1, "a", "g", 2.0)
        snap = provisional_snapshot(led, 5, QF, delay=math.inf)
        assert snap == {"g": 0.0}

    def test_withdrawals_reflected(self):
        led = RoundLedger(window_end=10)
        contribute(led, 0, "a", "g", 4.0)
        withdraw(led, 2, "a", "g", 3.0)
        assert provisional_snapshot(led, 2, QF, delay=0)["g"] == 1.0
        assert provisional_snapshot(led, 1, QF, delay=0)["g"] == 4.0


class TestSettlement:
    def test_threshold_met_funds_at_rule_value(self):
        led = RoundLedger(window_end=5)
        for cid in "abcd":
            contribute(led, 0, cid, "g", 1.0)
        s = assurance_settlement(led, AssurancePolicy({"g": 10.0}), QF)["g"]
        assert s.status is SettlementStatus.FUNDED
        assert s.funding == 16.0

    def test_threshold_missed_refunds_exactly(self):
        led = RoundLedger(window_end=5)
        for cid in "abcd":
            contribute(led, 0, cid, "g", 1.0)
        s = assurance_settlement(led, AssurancePolicy({"g": 20.0}), QF)["g"]
        assert s.status is SettlementStatus.REFUNDED
        assert s.refunds == {c: 1.0 for c in "abcd"}
        assert s.refund_total == 4.0

    def test_zero_threshold_always_funds(self):
        led = RoundLedger(window_end=5)
        contribute(led, 0, "a", "g", 0.5)
        s = assurance_settlement(led, AssurancePolicy({"g": 0.0}), QF)["g"]
        assert s.status is SettlementStatus.FUNDED

    def test_pledges_summing_past_the_float_range_do_not_settle(self):
        # two such pledges once settled FUNDED at inf under QF
        led = RoundLedger(window_end=5)
        contribute(led, 0, "a", "g", 1e308)
        contribute(led, 0, "b", "g", 1e308)
        with pytest.raises(ValueError, match="float range"):
            assurance_settlement(led, AssurancePolicy({"g": 1.0}), QF)


class TestRunRound:
    def test_myopic_agents_reach_static_equilibrium(self):
        sc = sqrt_scenario([2.0, 4.0])
        agents = {c.id: MyopicBestResponse(c, sc.goods) for c in sc.citizens}
        led = run_round(sc, agents, window_end=50, delay=0, seed=7)
        static = closed_form_qf_equilibrium(sc)
        final = led.commitments_by_good()["g"]
        for e in static.contributions["g"].entries:
            assert final[e.citizen_id] == pytest.approx(e.amount, abs=1e-4)
        assert led.settlement["g"].funding == pytest.approx(
            static.funding["g"], abs=1e-4)

    def test_delayed_information_still_converges(self):
        sc = sqrt_scenario([2.0, 4.0, 3.0])
        agents = {c.id: MyopicBestResponse(c, sc.goods) for c in sc.citizens}
        led = run_round(sc, agents, window_end=80, delay=3, seed=1)
        static = closed_form_qf_equilibrium(sc)
        assert led.settlement["g"].funding == pytest.approx(
            static.funding["g"], abs=1e-3)

    def test_deterministic_replay_bitwise(self):
        sc = sqrt_scenario([2.0, 4.0, 3.0])
        agents = {c.id: MyopicBestResponse(c, sc.goods) for c in sc.citizens}
        a = ledger_to_csv(run_round(sc, agents, window_end=30, delay=1, seed=99))
        b = ledger_to_csv(run_round(sc, agents, window_end=30, delay=1, seed=99))
        assert a == b

    def test_different_seed_may_reorder_but_settles_same(self):
        sc = sqrt_scenario([2.0, 4.0])
        agents = {c.id: MyopicBestResponse(c, sc.goods) for c in sc.citizens}
        l1 = run_round(sc, agents, window_end=50, delay=0, seed=1)
        l2 = run_round(sc, agents, window_end=50, delay=0, seed=2)
        assert l1.settlement["g"].funding == pytest.approx(
            l2.settlement["g"].funding, abs=1e-6)

    def test_first_order_round_matches_grid_route(self, monkeypatch):
        # CQF members with LOG and ISOELASTIC values take the first-order
        # root; the same round through the grid scan commits the same amounts
        values = [ValueFunction.log(3.0), ValueFunction.isoelastic(2.5, 0.4),
                  ValueFunction.log(2.2), ValueFunction.isoelastic(1.8, 0.6),
                  ValueFunction.log(4.0)]
        cits = [Citizen(f"c{i}", {"g": vf, "h": vf}) for i, vf in enumerate(values)]
        sc = Scenario(cits, ["g", "h"], MechanismConfig.cqf(0.5))

        def play():
            agents = {c.id: MyopicBestResponse(c, sc.goods) for c in cits}
            return run_round(sc, agents, window_end=60, delay=1, seed=11)

        root, again = play(), play()
        assert ledger_to_csv(root) == ledger_to_csv(again)
        assert snapshots_to_json(root) == snapshots_to_json(again)
        monkeypatch.setattr(equilibrium, "_first_order_response", grid_route)
        grid = play()
        want = grid.commitments_by_good()
        got = root.commitments_by_good()
        assert got.keys() == want.keys()
        for g in got:
            assert got[g].keys() == want[g].keys()
            for cid, amount in got[g].items():
                assert amount == pytest.approx(want[g][cid], rel=1e-9, abs=0.0)

    def test_snapshots_replay_exactly(self):
        sc = sqrt_scenario([2.0, 4.0, 3.0])
        agents = {c.id: MyopicBestResponse(c, sc.goods) for c in sc.citizens}
        led = run_round(sc, agents, window_end=12, delay=2, seed=5)
        for tick, snap in led.snapshots:
            assert provisional_snapshot(led, tick, sc.mechanism, 2,
                                        goods=sc.goods) == snap

    @pytest.mark.parametrize("delay", [-1.0, math.nan])
    def test_bad_delay_rejected_before_any_agent_acts(self, delay):
        sc = sqrt_scenario([2.0, 4.0])
        calls = []

        class Recorder:
            def propose(self, view):
                calls.append(view.tick)

        with pytest.raises(ValueError, match="delay"):
            run_round(sc, {c.id: Recorder() for c in sc.citizens}, window_end=5,
                      delay=delay)
        assert calls == []

    def test_snapshot_json_export(self):
        sc = sqrt_scenario([2.0])
        agents = {c.id: MyopicBestResponse(c, sc.goods) for c in sc.citizens}
        led = run_round(sc, agents, window_end=3, delay=0, seed=0)
        text = snapshots_to_json(led)
        assert '"tick": 0' in text and '"funding"' in text


class TestAssuranceCoordination:
    def scenario(self):
        cits = [Citizen(f"c{i}", {"g": ValueFunction.sshaped(20.0, 0.5, 30.0)})
                for i in range(5)]
        return Scenario(cits, ["g"], MechanismConfig.qf())

    def test_myopic_dynamics_stall_at_zero_without_assurance(self):
        sc = self.scenario()
        agents = {c.id: MyopicBestResponse(c, sc.goods) for c in sc.citizens}
        led = run_round(sc, agents, window_end=15, delay=0, seed=3)
        assert led.events == []
        assert led.settlement["g"].status is SettlementStatus.FUNDED
        assert led.settlement["g"].funding == 0.0

    def test_pledging_with_threshold_funds(self):
        sc = self.scenario()
        policy = AssurancePolicy({"g": 30.0})
        agents = {c.id: ThresholdPledger(c.id, {"g": 1.6}) for c in sc.citizens}
        led = run_round(sc, agents, window_end=15, assurance=policy,
                        delay=0, seed=3)
        s = led.settlement["g"]
        assert s.status is SettlementStatus.FUNDED
        assert s.funding >= 30.0
        assert s.funding == pytest.approx(25 * 1.6, rel=1e-12)

    def test_pledgers_refunded_on_miss(self):
        sc = self.scenario()
        policy = AssurancePolicy({"g": 60.0})
        agents = {c.id: ThresholdPledger(c.id, {"g": 1.6}) for c in sc.citizens}
        led = run_round(sc, agents, window_end=15, assurance=policy,
                        delay=0, seed=3)
        s = led.settlement["g"]
        assert s.status is SettlementStatus.REFUNDED
        assert s.refund_total == pytest.approx(5 * 1.6, rel=1e-12)
        committed = math.fsum(
            amt for g in led.commitments_by_good().values() for amt in g.values())
        assert s.refund_total == pytest.approx(committed, rel=1e-12)

    def test_pledgers_ignore_unprotected_goods(self):
        sc = self.scenario()
        agents = {c.id: ThresholdPledger(c.id, {"g": 1.6}) for c in sc.citizens}
        led = run_round(sc, agents, window_end=15, assurance=AssurancePolicy({}),
                        delay=0, seed=3)
        assert led.events == []


class TestLedgerCsv:
    def test_format(self):
        sc = sqrt_scenario([2.0])
        agents = {c.id: MyopicBestResponse(c, sc.goods) for c in sc.citizens}
        led = run_round(sc, agents, window_end=3, delay=0, seed=0)
        text = ledger_to_csv(led)
        lines = text.splitlines()
        assert lines[0] == "tick,citizen_id,good_id,kind,amount"
        assert "# settlement" in lines
        footer = lines[lines.index("# settlement") + 1]
        assert footer == "good_id,status,funding,refund_total"


@pytest.mark.parametrize("make", [
    lambda: AssurancePolicy({"g": math.nan}),
    lambda: RoundEvent(math.nan, "a", "g", EventKind.CONTRIBUTE, 1.0),
    lambda: RoundEvent(math.inf, "a", "g", EventKind.CONTRIBUTE, 1.0),
    lambda: RoundLedger(math.nan),
    lambda: ThresholdPledger("p", {"g": math.nan}),
    lambda: ThresholdPledger("p", {"g": math.inf}),
], ids=["threshold-nan", "tick-nan", "tick-inf", "window-nan", "share-nan", "share-inf"])
def test_nan_inputs_rejected(make):
    # a NaN threshold once made its good never fund, a NaN share its
    # pledger never pledge, and a NaN tick was accepted into the log
    with pytest.raises(ValueError, match="must be"):
        make()


class TestInputChecks:
    @pytest.mark.parametrize("window_end", [2.5, math.inf, True, "3", 3.0, 0])
    def test_bad_window_end_rejected(self, window_end):
        # 2.5 and inf once failed with a TypeError from range()
        with pytest.raises(ValueError, match="window_end"):
            RoundLedger(window_end)
        sc = sqrt_scenario([2.0])
        calls = []

        class Recorder:
            def propose(self, view):
                calls.append(view.tick)

        with pytest.raises(ValueError, match="window_end"):
            run_round(sc, {"c0": Recorder()}, window_end)
        assert calls == []

    def test_numpy_integer_window_end_accepted(self):
        assert RoundLedger(np.int64(3)).window_end == 3

    @pytest.mark.parametrize("min_step", [0.0, -1e-9, math.nan, math.inf])
    def test_bad_min_step_rejected(self, min_step):
        # NaN once made a myopic agent never act, and 0 or less proposed
        # zero-amount events
        citizen = Citizen("c0", {"g": ValueFunction.sqrt(2.0)})
        with pytest.raises(ValueError, match="min_step"):
            MyopicBestResponse(citizen, ["g"], min_step=min_step)
        with pytest.raises(ValueError, match="min_step"):
            ThresholdPledger("p", {"g": 1.0}, min_step=min_step)


def test_pledger_outside_the_scenario_goods_pledges_once():
    # own_committed once listed only the scenario's goods, so a pledger on
    # any other good saw 0.0 and pledged its share again every tick
    sc = Scenario([Citizen("p", {})], ["g"], QF)
    led = run_round(sc, {"p": ThresholdPledger("p", {"h": 1.0})}, window_end=3,
                    assurance=AssurancePolicy({"h": 0.5}))
    assert len(led.events) == 1
    assert led.committed("p", "h") == 1.0


GOODS = ["g", "h"]


class Scripted:
    """A seeded random policy: contributes a random amount to a random good,
    or withdraws part or all of a holding, so holdings go to exactly zero and
    come back."""

    def __init__(self, seed):
        self.rnd = random.Random(seed)

    def propose(self, view):
        rnd = self.rnd
        good = rnd.choice(GOODS)
        held = view.own_committed.get(good, 0.0)
        move = rnd.random()
        if held > 0 and move < 0.25:
            return good, EventKind.WITHDRAW, held
        if held > 0 and move < 0.4:
            return good, EventKind.WITHDRAW, held * rnd.random()
        if move < 0.55:
            return None
        return good, EventKind.CONTRIBUTE, rnd.choice(
            [0.1, 1 / 3, rnd.random() * 1e-9, rnd.random() * 1e6, rnd.random()])


class Follower:
    """Reads the delayed state, in its listed order: tops its holding up to
    half of the first other holder's amount, and withdraws it all once it
    holds more than that holder."""

    def __init__(self, cid):
        self.cid = cid

    def propose(self, view):
        for good in GOODS:
            others = [amt for cid, amt in view.delayed_commitments.get(good, {}).items()
                      if cid != self.cid]
            if not others:
                continue
            own = view.own_committed.get(good, 0.0)
            if own > others[0]:
                return good, EventKind.WITHDRAW, own
            if own < 0.5 * others[0]:
                return good, EventKind.CONTRIBUTE, 0.5 * others[0] - own
        return None


class Uncached:
    """A fresh agent for every proposal, so no agent carries anything from
    one tick to the next."""

    def __init__(self, make):
        self.make = make

    def propose(self, view):
        return self.make().propose(view)


class Logged:
    """Wraps an agent; keeps each view with the number of events the round
    had logged when the view was made (``log`` is shared by the round)."""

    def __init__(self, agent, log, check=None):
        self.agent, self.log, self.check = agent, log, check

    def propose(self, view):
        self.log["views"].append((view, self.log["events"]))
        if self.check:
            self.check(view)
        action = self.agent.propose(view)
        self.log["events"] += action is not None
        return action


DELAYS = [0, 1, 2.5, math.inf]


def mixed_round_agents(sc, seed, uncached=False):
    """Myopic agents on both goods, a pledger, a scripted trader and a
    follower."""
    myopic = {c.id: (Uncached(lambda c=c: MyopicBestResponse(c, GOODS)) if uncached
                     else MyopicBestResponse(c, GOODS))
              for c in sc.citizens if c.values}
    return {**myopic,
            "p": ThresholdPledger("p", {"g": 0.7, "h": 1.3}),
            "s": Scripted(seed),
            "f": Follower("f")}


def mixed_scenario(config):
    values = [ValueFunction.sqrt(2.0), ValueFunction.log(3.0),
              ValueFunction.isoelastic(2.5, 0.4), ValueFunction.sshaped(6.0, 0.8, 4.0)]
    lam = 0.3 if config.deficit_mode is DeficitMode.SHADOW_PRICES else 0.0
    cits = [Citizen(f"c{i}", {"g": vf, "h": values[(i + 1) % 4]}, lam=lam)
            for i, vf in enumerate(values)]
    cits += [Citizen(cid, {}) for cid in ("p", "s", "f")]
    return Scenario(cits, GOODS, config)


MYOPIC_RULES = {
    "private": MechanismConfig.private(),
    "linear2": MechanismConfig.linear_match(2.0),
    "qf": QF,
    "cqf0.5": MechanismConfig.cqf(0.5),
    "pm_qf": MechanismConfig.pm_qf(),
    "beta1.5": MechanismConfig.beta_rule(1.5),
    "cqf0.5-shadow": MechanismConfig.cqf(0.5, deficit_mode=DeficitMode.SHADOW_PRICES),
}


class TestPinnedViews:
    @pytest.mark.parametrize("delay", DELAYS)
    def test_stored_views_show_the_state_when_made(self, delay):
        sc = mixed_scenario(MechanismConfig.cqf(0.5))
        log = {"views": [], "events": 0}
        agents = {cid: Logged(a, log) for cid, a in mixed_round_agents(sc, 4).items()
                  if cid != "f"}
        led = run_round(sc, agents, window_end=12, assurance=AssurancePolicy({"g": 1.0}),
                        delay=delay, seed=8)
        assert any(e.kind is EventKind.WITHDRAW for e in led.events)
        assert log["events"] == len(led.events)
        # read only now, after every later event
        for view, n_events in log["views"]:
            want = replay(led.events[:n_events], view.tick - delay)
            assert repr(view.delayed_commitments) == repr(want)

    def test_mutating_a_view_leaves_the_ledger_unchanged(self):
        sc = mixed_scenario(QF)

        class Vandal:
            def __init__(self, agent):
                self.agent = agent

            def propose(self, view):
                action = self.agent.propose(view)
                for held in view.delayed_commitments.values():
                    for cid in held:
                        held[cid] = 1e9
                view.delayed_commitments["zz"] = {"x": 1.0}
                view.own_committed.clear()
                view.own_committed["g"] = -5.0
                return action

        def play(wrap):
            agents = {cid: wrap(a) for cid, a in mixed_round_agents(sc, 2).items()}
            return run_round(sc, agents, window_end=10, assurance=AssurancePolicy({"g": 1.0}),
                             delay=1, seed=3)

        clean, vandal = play(lambda a: a), play(Vandal)
        assert ledger_to_csv(vandal) == ledger_to_csv(clean)
        assert snapshots_to_json(vandal) == snapshots_to_json(clean)
        for as_of in range(-1, 11):
            assert repr(vandal.commitments_by_good(as_of)) == repr(
                clean.commitments_by_good(as_of))

    @pytest.mark.parametrize("config", [
        QF, MechanismConfig.cqf(0.5), MechanismConfig.beta_rule(1.5),
        MechanismConfig.linear_match(2.0), MechanismConfig.private(),
        MechanismConfig.pm_qf()], ids=["qf", "cqf0.5", "beta1.5", "linear2",
                                       "private", "pm_qf"])
    @pytest.mark.parametrize("delay", [0, 1])
    def test_others_aggregates_are_bit_identical(self, config, delay):
        shape = config.shape
        ids = ["a", "b", "c", "d", "e"]
        checked = []

        def check(view):
            delayed = view.delayed_commitments
            for good in GOODS + ["k"]:
                for cid in ids + ["z"]:
                    amounts = [amt for other, amt in delayed.get(good, {}).items()
                               if other != cid]
                    want = (shape.aggregate(amounts, [1] * len(amounts)),
                            math.fsum(amounts))
                    got = view.others_aggregates(good, cid)
                    assert [x.hex() for x in got] == [x.hex() for x in want]
                    checked.append(bool(amounts))

        log = {"views": [], "events": 0}
        agents = {cid: Logged(Scripted(i), log, check) for i, cid in enumerate(ids)}
        sc = Scenario([Citizen(cid, {}) for cid in ids], GOODS, config)
        led = run_round(sc, agents, window_end=40, delay=delay, seed=1)
        assert sum(e.kind is EventKind.WITHDRAW for e in led.events) >= 10
        assert sum(checked) > 1000


class TestAgainstTheEagerLoop:
    @pytest.mark.parametrize("rule", sorted(MYOPIC_RULES))
    @pytest.mark.parametrize("delay", DELAYS)
    def test_outputs_are_bit_identical(self, rule, delay):
        sc = mixed_scenario(MYOPIC_RULES[rule])
        assurance = AssurancePolicy({"g": 2.0, "h": 50.0})
        got = run_round(sc, mixed_round_agents(sc, 5), window_end=16,
                        assurance=assurance, delay=delay, seed=21)
        want = reference_run_round(sc, mixed_round_agents(sc, 5, uncached=True),
                                   window_end=16, assurance=assurance, delay=delay,
                                   seed=21)
        kinds = {(e.citizen_id[0], e.kind) for e in got.events}
        assert {("c", EventKind.CONTRIBUTE), ("p", EventKind.CONTRIBUTE),
                ("s", EventKind.WITHDRAW)} <= kinds
        assert ledger_to_csv(got) == ledger_to_csv(want)
        assert snapshots_to_json(got) == snapshots_to_json(want)

    def test_pledgers_materialise_no_delayed_view(self):
        sc = TestAssuranceCoordination().scenario()
        for delay in (0, 1):
            log = {"views": [], "events": 0}
            agents = {c.id: Logged(ThresholdPledger(c.id, {"g": 1.6}), log)
                      for c in sc.citizens}
            run_round(sc, agents, window_end=15, assurance=AssurancePolicy({"g": 30.0}),
                      delay=delay, seed=3)
            assert len(log["views"]) == 75
            assert all(view._delayed is None for view, _ in log["views"])

    def test_myopic_agents_repeat_no_best_response(self, monkeypatch):
        # criterion 12: every agent sees the same (T_o, A_o) every tick
        calls = []
        core = rounds._best_response_core

        def counted(vf, lam, shape, T_o, A_o):
            calls.append((id(vf), lam, shape, T_o, A_o))
            return core(vf, lam, shape, T_o, A_o)

        monkeypatch.setattr(rounds, "_best_response_core", counted)
        sc = TestAssuranceCoordination().scenario()
        agents = {c.id: MyopicBestResponse(c, sc.goods) for c in sc.citizens}
        led = run_round(sc, agents, window_end=15, delay=0, seed=3)
        assert led.events == []
        assert len(calls) == len(set(calls)) == 5
