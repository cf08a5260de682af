import math
import random

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
from qflab import equilibrium
from conftest import grid_route, sqrt_scenario


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
