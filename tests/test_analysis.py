import math

import numpy as np
import pytest

from qflab import (
    AttackAccounting,
    Citizen,
    ContributionProfile,
    JensenDirection,
    MechanismConfig,
    Scenario,
    Sharing,
    ValueFunction,
    distortion_uniformity,
    cartel_defection,
    fraud_arbitrage,
    jensen_direction,
    influence_identity_check,
    optimal_funding,
    solve_alpha_for_budget,
    solve_equilibrium,
    welfare,
)
from conftest import random_concave_citizens, sqrt_scenario


class TestWelfare:
    def test_arithmetic(self):
        sc = sqrt_scenario([2.0, 4.0])
        rep = welfare(sc, {"g": 9.0})
        assert rep.per_good["g"].gross == pytest.approx(18.0, rel=1e-14)
        assert rep.per_good["g"].net == pytest.approx(9.0, rel=1e-14)
        assert rep.total == pytest.approx(9.0, rel=1e-14)

    def test_zero_funding_zero_welfare(self):
        sc = sqrt_scenario([2.0, 4.0])
        rep = welfare(sc, {"g": 0.0})
        assert rep.total == 0.0

    def test_efficiency_ratio_one_at_optimum(self):
        sc = sqrt_scenario([2.0, 4.0])
        F_star = optimal_funding(sc, "g")
        rep = welfare(sc, {"g": F_star})
        assert rep.efficiency_ratio == pytest.approx(1.0, abs=1e-9)

    def test_ratio_below_one_off_optimum(self):
        sc = sqrt_scenario([2.0, 4.0])
        assert welfare(sc, {"g": 1.0}).efficiency_ratio < 1.0

    def test_zero_optimum_zero_realized(self):
        cits = [Citizen("a", {"g": ValueFunction.log(0.5)})]
        sc = Scenario(cits, ["g"], MechanismConfig.qf())
        rep = welfare(sc, {"g": 0.0})
        assert rep.optimum_total == 0.0
        assert rep.efficiency_ratio == 1.0

    def test_missing_good_rejected(self):
        sc = sqrt_scenario([2.0])
        with pytest.raises(ValueError):
            welfare(sc, {})


class TestAlphaForBudget:
    def test_large_budget_returns_one(self):
        sc = sqrt_scenario([2.0] * 5, MechanismConfig.cqf(0.5))
        r = solve_equilibrium(Scenario(sc.citizens, sc.goods,
                                       MechanismConfig.cqf(1.0)))
        assert solve_alpha_for_budget(sc, r.deficit + 1.0) == 1.0

    def test_zero_budget_returns_minimum_trial(self):
        sc = sqrt_scenario([2.0] * 5, MechanismConfig.cqf(0.5))
        assert solve_alpha_for_budget(sc, 0.0) == pytest.approx(1e-6)

    def test_round_trip(self):
        # budget set to the deficit at alpha=0.5 must give back ~0.5
        citizens = [Citizen(f"c{i}", {"g": ValueFunction.sqrt(2.0)})
                    for i in range(100)]
        goods = ["g"]
        probe = Scenario(citizens, goods, MechanismConfig.cqf(0.5))
        budget = solve_equilibrium(probe).deficit
        sc = Scenario(citizens, goods, MechanismConfig.cqf(0.9))
        got = solve_alpha_for_budget(sc, budget)
        assert got == pytest.approx(0.5, abs=1e-3)
        # deficit at the returned alpha fits the budget
        check = solve_equilibrium(
            Scenario(citizens, goods, MechanismConfig.cqf(got)))
        assert check.deficit <= budget + 1e-9
        assert budget - check.deficit <= 1e-3 * max(budget, 1.0)

    def test_mixed_population_default_kwargs(self):
        # every inner solve must converge, down to alpha_min
        citizens = random_concave_citizens(np.random.default_rng(9), 50)
        at_one = Scenario(citizens, ["g"], MechanismConfig.cqf(1.0))
        budget = 0.3 * solve_equilibrium(at_one).deficit
        sc = Scenario(citizens, ["g"], MechanismConfig.cqf(0.5))
        got = solve_alpha_for_budget(sc, budget)
        assert 1e-6 < got < 1.0
        check = solve_equilibrium(Scenario(citizens, ["g"], MechanismConfig.cqf(got)))
        assert check.deficit <= budget + 1e-9

    def test_requires_cqf(self):
        sc = sqrt_scenario([2.0])
        with pytest.raises(ValueError):
            solve_alpha_for_budget(sc, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"alpha_tol": 0.0}, {"alpha_tol": -1e-4}, {"alpha_tol": math.nan},
        {"alpha_tol": math.inf}, {"alpha_min": 0.0}, {"alpha_min": -0.5},
        {"alpha_min": 1.5}, {"alpha_min": math.nan},
    ])
    def test_bad_bisection_settings_raise_before_any_solve(self, monkeypatch, kwargs):
        # alpha_tol = 0 once bisected forever between adjacent floats, and
        # NaN returned alpha_min without a word
        def no_solve(*args, **kw):
            raise AssertionError("solved before the settings were checked")

        monkeypatch.setattr("qflab.analysis.solve_equilibrium", no_solve)
        sc = sqrt_scenario([1.0, 2.0, 3.0], MechanismConfig.cqf(0.5))
        with pytest.raises(ValueError, match="alpha_tol|alpha_min"):
            solve_alpha_for_budget(sc, 1.0, **kwargs)

    def test_tiny_tolerance_stops_at_adjacent_floats(self):
        sc = sqrt_scenario([1.0, 2.0, 3.0], MechanismConfig.cqf(0.5))
        budget = solve_equilibrium(sc).deficit
        got = solve_alpha_for_budget(sc, budget, alpha_tol=1e-300)
        assert got == pytest.approx(0.5, abs=1e-9)


class TestDistortionUniformity:
    def test_single_good_degenerate_max(self):
        sc = sqrt_scenario([2.0] * 200, MechanismConfig.cqf(0.1))
        r = solve_equilibrium(sc)
        dev = distortion_uniformity(r, 0.1)
        assert dev == abs(r.marginal_report["g"] - 10.0) / 10.0

    def test_two_goods_uniform_distortion(self):
        n = 2000
        cits = [Citizen(f"a{i}", {"g1": ValueFunction.sqrt(2.0)}) for i in range(n)]
        cits += [Citizen(f"b{i}", {"g2": ValueFunction.sqrt(3.0)}) for i in range(n)]
        sc = Scenario(cits, ["g1", "g2"], MechanismConfig.cqf(0.1))
        r = solve_equilibrium(sc)
        assert r.converged
        assert distortion_uniformity(r, 0.1) <= 0.02

    def test_alpha_one_measures_against_unity(self):
        sc = sqrt_scenario([2.0, 3.0])
        r = solve_equilibrium(sc)
        assert distortion_uniformity(r, 1.0) <= 1e-6

    def test_unfunded_goods_excluded(self):
        cits = [Citizen("a", {"g1": ValueFunction.sqrt(2.0),
                              "g2": ValueFunction.log(0.2)})]
        sc = Scenario(cits, ["g1", "g2"], MechanismConfig.cqf(0.5))
        r = solve_equilibrium(sc)
        assert r.funding["g2"] == 0.0
        dev = distortion_uniformity(r, 0.5)
        assert math.isfinite(dev)


class TestInfluenceIdentity:
    def test_interior_profile(self):
        p = ContributionProfile.from_amounts("g", [1.0, 4.0, 9.0])
        chk = influence_identity_check(p)
        assert chk.analytic <= 1e-10
        assert chk.finite_difference <= 1e-8

    def test_single_contributor_exact(self):
        p = ContributionProfile.from_amounts("g", [7.0])
        chk = influence_identity_check(p)
        assert chk.analytic == 0.0

    def test_random_profiles(self, rng):
        worst_fd = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p = ContributionProfile.from_amounts(
                "g", [float(rng.uniform(0.05, 50)) for _ in range(n)])
            chk = influence_identity_check(p)
            assert chk.analytic <= 1e-10
            worst_fd = max(worst_fd, chk.finite_difference)
        assert worst_fd <= 1e-8

    def test_boundary_rejected(self):
        p = ContributionProfile.from_amounts("g", {"a": 0.0, "b": 1.0})
        with pytest.raises(ValueError):
            influence_identity_check(p)


class TestFraudArbitrage:
    def test_doubles_the_money(self):
        r = fraud_arbitrage(0.1, 20, 1.0)
        assert r.received == 40.0
        assert r.paid == 20.0
        assert r.profit == 20.0
        assert r.breakeven_size == 10

    def test_breakeven_exact(self):
        r = fraud_arbitrage(0.1, 10, 1.0)
        assert r.profit == 0.0

    def test_full_accounting_adds_pass_through(self):
        r = fraud_arbitrage(0.1, 20, 1.0, AttackAccounting.FULL)
        assert r.received == pytest.approx(58.0, rel=1e-14)
        assert r.profit == pytest.approx(38.0, rel=1e-13)

    def test_scales_linearly_in_x(self):
        r = fraud_arbitrage(0.1, 20, 7.5)
        assert r.received == pytest.approx(40 * 7.5, rel=1e-14)
        assert r.profit == pytest.approx(20 * 7.5, rel=1e-14)

    def test_profit_positive_iff_k_exceeds_inverse_alpha(self):
        for pct in range(1, 101):
            alpha = pct / 100.0
            for k in range(1, 201):
                r = fraud_arbitrage(alpha, k, 1.0)
                margin = k * alpha - 1.0
                if abs(margin) < 1e-9:
                    assert abs(r.profit) < 1e-9 * max(1.0, r.paid)
                else:
                    assert (r.profit > 0) == (margin > 0)


class TestCartelDefection:
    def test_worked_example(self):
        r = cartel_defection(0.1, 100, 1000.0)
        assert r.pool == 1_000_000.0
        assert r.member_share == 10_000.0
        assert r.complying_net == 9_000.0
        assert r.defector_pool == 980_100.0
        assert r.defector_share == 9_801.0
        assert r.defection_gain == 801.0

    def test_tiny_cartel_defection_unprofitable(self):
        r = cartel_defection(1.0, 2, 1.0)
        assert r.pool == 4.0
        assert r.member_share == 2.0
        assert r.complying_net == 1.0
        assert r.defector_net == 0.5
        assert r.defection_gain == -0.5

    def test_gain_sign_follows_closed_form(self):
        # defection gain = c * (1 - alpha*(2n-1)/n), verified on a grid
        for alpha in (0.05, 0.1, 0.3, 0.7, 1.0):
            for n in (2, 3, 10, 50, 200):
                r = cartel_defection(alpha, n, 13.0)
                margin = 1.0 - alpha * (2 * n - 1) / n
                if abs(margin) > 1e-9:
                    assert (r.defection_gain > 0) == (margin > 0)

    def test_proportional_sharing_starves_defector(self):
        r = cartel_defection(0.1, 100, 1000.0, Sharing.PROPORTIONAL)
        assert r.defector_share == 0.0
        assert r.defection_gain == -9_000.0


class TestJensenDirection:
    def test_classification(self):
        assert jensen_direction(1.5) is JensenDirection.UNDER
        assert jensen_direction(2.0) is JensenDirection.EXACT
        assert jensen_direction(3.0) is JensenDirection.OVER
        assert jensen_direction(1.0) is JensenDirection.UNDER

    def test_cross_validated_against_equilibria(self):
        # heterogeneous weights: sign(V' - 1) must match the classification
        for beta in (1.5, 2.0, 3.0):
            sc = sqrt_scenario([1.0, 4.0], MechanismConfig.beta_rule(beta))
            r = solve_equilibrium(sc)
            assert r.converged
            vp = r.marginal_report["g"]
            d = jensen_direction(beta)
            if d is JensenDirection.UNDER:
                assert vp > 1.0 + 1e-6
            elif d is JensenDirection.OVER:
                assert vp < 1.0 - 1e-6
            else:
                assert vp == pytest.approx(1.0, abs=1e-6)

    def test_differential_underfunding_of_dispersed_goods(self):
        # many small backers vs few large: beta=1.5 leaves the dispersed
        # good more underfunded (higher aggregate marginal value)
        cits = [Citizen(f"s{i}", {"many": ValueFunction.sqrt(0.5)})
                for i in range(16)]
        cits += [Citizen(f"b{i}", {"few": ValueFunction.sqrt(4.0)})
                 for i in range(2)]
        sc = Scenario(cits, ["many", "few"], MechanismConfig.beta_rule(1.5))
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.marginal_report["many"] > r.marginal_report["few"]


@pytest.mark.parametrize("call", [
    lambda: fraud_arbitrage(0.5, 3, math.nan),
    lambda: fraud_arbitrage(0.5, 3, math.inf),
    lambda: cartel_defection(0.5, 4, math.nan),
    lambda: cartel_defection(0.5, 4, math.inf),
    lambda: solve_alpha_for_budget(sqrt_scenario([2.0, 4.0], MechanismConfig.cqf(0.5)),
                                   math.nan),
    lambda: jensen_direction(math.nan),
], ids=["fraud-x-nan", "fraud-x-inf", "cartel-c-nan", "cartel-c-inf", "budget-nan",
        "jensen-beta-nan"])
def test_nan_and_meaningless_inf_inputs_rejected(call):
    # NaN once passed every `x < 0` / `x <= 0` check here: the attack
    # calculators returned nan, the calibration returned alpha_min after
    # about 14 solves and jensen_direction answered OVER
    with pytest.raises(ValueError, match="must be"):
        call()
