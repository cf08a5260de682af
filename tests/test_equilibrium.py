import math

import numpy as np
import pytest

from qflab import (
    Citizen,
    ContributionProfile,
    DeficitMode,
    MechanismConfig,
    Scenario,
    ValueFunction,
    best_response,
    best_response_full,
    closed_form_qf_equilibrium,
    funding_gradient,
    one_p_one_v_outcome,
    optimal_funding,
    solve_equilibrium,
)
from conftest import (
    oracle_best_response,
    oracle_value,
    random_concave_citizens,
    sqrt_scenario,
)


# ---------------------------------------------------------------------------
# optimal funding


class TestOptimalFunding:
    def test_sqrt_closed_form(self):
        # aggregate a/(2 sqrt F) = 1 at F = (sum a / 2)**2
        sc = sqrt_scenario([2.0, 4.0])
        assert optimal_funding(sc, "g") == pytest.approx(9.0, rel=1e-10)

    def test_bounded_marginal_corner(self):
        cits = [Citizen("a", {"g": ValueFunction.log(0.3)}),
                Citizen("b", {"g": ValueFunction.log(0.4)})]
        sc = Scenario(cits, ["g"], MechanismConfig.qf())
        assert optimal_funding(sc, "g") == 0.0

    def test_log_interior(self):
        cits = [Citizen("a", {"g": ValueFunction.log(1.0)}),
                Citizen("b", {"g": ValueFunction.log(2.0)})]
        sc = Scenario(cits, ["g"], MechanismConfig.qf())
        assert optimal_funding(sc, "g") == pytest.approx(2.0, rel=1e-10)

    def test_matches_brute_force_welfare_scan(self, rng):
        for _ in range(10):
            cits = random_concave_citizens(rng, int(rng.integers(2, 12)))
            sc = Scenario(cits, ["g"], MechanismConfig.qf())
            F_star = optimal_funding(sc, "g")
            grid = np.linspace(max(F_star - 1.0, 0.0), F_star + 1.0, 4001)
            W = -grid.copy()
            for c in cits:
                W += oracle_value(c.values["g"], grid)
            assert abs(float(grid[np.argmax(W)]) - F_star) <= 1e-3 * max(1.0, F_star)

    def test_sshaped_routes_to_global_search(self):
        # a lone backer's welfare never beats zero here, so the optimum of
        # the singleton problem sits at an interior hump that a local
        # first-order solve from 0 would miss
        cits = [Citizen(f"c{i}", {"g": ValueFunction.sshaped(20.0, 0.5, 30.0)})
                for i in range(5)]
        sc = Scenario(cits, ["g"], MechanismConfig.qf())
        F = optimal_funding(sc, "g")
        # 5 citizens: aggregate marginal = 1 on the decreasing branch
        vf = cits[0].values["g"]
        assert vf.marginal(F) * 5 == pytest.approx(1.0, rel=1e-6)

    def test_sshaped_worthless_good_stays_zero(self):
        cits = [Citizen("a", {"g": ValueFunction.sshaped(2.0, 0.1, 50.0)})]
        sc = Scenario(cits, ["g"], MechanismConfig.qf())
        assert optimal_funding(sc, "g") == 0.0


# ---------------------------------------------------------------------------
# best response


class TestBestResponse:
    def test_qf_sqrt_is_quarter_weight_squared(self):
        cit = Citizen("i", {"g": ValueFunction.sqrt(2.0)})
        cfg = MechanismConfig.qf()
        empty = ContributionProfile("g", ())
        assert best_response(cit, "g", empty, cfg) == pytest.approx(1.0, rel=1e-9)
        others = ContributionProfile.from_amounts("g", {"o": 4.0})
        assert best_response(cit, "g", others, cfg) == pytest.approx(1.0, rel=1e-9)

    def test_private_corner(self):
        cit = Citizen("i", {"g": ValueFunction.sqrt(2.0)})
        others = ContributionProfile.from_amounts("g", {"o": 9.0})
        assert best_response(cit, "g", others, MechanismConfig.private()) == 0.0

    def test_rejects_self_in_others(self):
        cit = Citizen("i", {"g": ValueFunction.sqrt(2.0)})
        others = ContributionProfile.from_amounts("g", {"i": 1.0})
        with pytest.raises(ValueError):
            best_response(cit, "g", others, MechanismConfig.qf())

    def test_indifference_prefers_zero(self):
        # no value on the good: zero is (weakly) best, flagged or not
        cit = Citizen("i", {})
        empty = ContributionProfile("g", ())
        r = best_response_full(cit, "g", empty, MechanismConfig.qf())
        assert r.amount == 0.0

    def test_grid_oracle_agreement(self, rng):
        configs = [
            MechanismConfig.private(),
            MechanismConfig.linear_match(2.0),
            MechanismConfig.qf(),
            MechanismConfig.cqf(0.3),
            MechanismConfig.pm_qf(),
            MechanismConfig.beta_rule(1.5),
            MechanismConfig.beta_rule(3.0),
        ]
        for cfg in configs:
            for _ in range(8):
                n_others = int(rng.integers(0, 5))
                amounts = {f"o{i}": float(rng.uniform(0.1, 9.0))
                           for i in range(n_others)}
                others = ContributionProfile.from_amounts("g", amounts)
                a = float(rng.uniform(0.5, 6.0))
                cit = Citizen("i", {"g": ValueFunction.sqrt(a)})
                got = best_response(cit, "g", others, cfg)
                want = oracle_best_response(cit, "g", others, cfg, c_max=500.0)
                assert got == pytest.approx(want, rel=1e-5, abs=1e-7)

    def test_sshaped_multi_optimum_flagging(self):
        # tuned so standing alone is just barely worthwhile; with partial
        # support the interior and corner candidates compete
        vf = ValueFunction.sshaped(50.0, 0.5, 30.0)
        cit = Citizen("i", {"g": vf})
        empty = ContributionProfile("g", ())
        r = best_response_full(cit, "g", empty, MechanismConfig.qf())
        assert r.amount > 0  # alone, funding the hump is profitable here
        want = oracle_best_response(cit, "g", empty, MechanismConfig.qf(), 500.0)
        assert r.amount == pytest.approx(want, rel=1e-5)


# ---------------------------------------------------------------------------
# solve_equilibrium


class TestSolveEquilibrium:
    def test_qf_sqrt_two_citizens(self):
        sc = sqrt_scenario([2.0, 4.0])
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.funding["g"] == pytest.approx(9.0, rel=1e-7)
        assert r.marginal_report["g"] == pytest.approx(1.0, abs=1e-8)
        amounts = {e.citizen_id: e.amount for e in r.contributions["g"].entries}
        assert amounts["c0"] == pytest.approx(1.0, rel=1e-6)
        assert amounts["c1"] == pytest.approx(4.0, rel=1e-6)

    def test_matches_closed_form_oracle(self, rng):
        for _ in range(10):
            weights = [float(rng.uniform(0.5, 6.0))
                       for _ in range(int(rng.integers(2, 30)))]
            sc = sqrt_scenario(weights)
            got = solve_equilibrium(sc)
            want = closed_form_qf_equilibrium(sc)
            assert got.converged
            assert got.funding["g"] == pytest.approx(want.funding["g"], rel=1e-6)

    def test_private_top_contributor_only(self):
        # the near-tie took the damped iteration ~2/(damping * gap) sweeps
        for weights in ([2.0, 4.0, 6.0], [2.0, 2.0 * (1 + 1e-9)]):
            sc = sqrt_scenario(weights, MechanismConfig.private())
            r = solve_equilibrium(sc, damping=0.4)
            assert r.converged
            F = (weights[-1] / 2.0) ** 2
            assert r.funding["g"] == pytest.approx(F, rel=1e-6)
            assert r.marginal_report["g"] == pytest.approx(
                sum(weights) / weights[-1], rel=1e-6)
            top = f"c{len(weights) - 1}"
            assert [e.citizen_id for e in r.contributions["g"].entries] == [top]
            assert r.contributions["g"].get(top).amount == pytest.approx(F, rel=1e-6)

    def test_deficit_shadow_prices_small_population(self):
        # homogeneous sqrt with lam = 1/N: aggregate marginal is 2 - 1/N
        N = 10
        cfg = MechanismConfig.pm_qf(deficit_mode=DeficitMode.SHADOW_PRICES)
        sc = sqrt_scenario([2.0] * N, cfg, lam=1.0 / N)
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.marginal_report["g"] == pytest.approx(2.0 - 1.0 / N, rel=1e-7)

    def test_pm_qf_mixed_signs(self):
        # signed closed form: each contributes (|w|/2)**2 with sign(w);
        # funding (sum w / 2)**2, aggregate marginal exactly 1
        cits = [Citizen("a", {"g": ValueFunction.sqrt(6.0)}),
                Citizen("b", {"g": ValueFunction.sqrt(5.0)}),
                Citizen("h", {"g": ValueFunction.sqrt(-3.0)})]
        sc = Scenario(cits, ["g"], MechanismConfig.pm_qf())
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.funding["g"] == pytest.approx(16.0, rel=1e-6)
        assert r.marginal_report["g"] == pytest.approx(1.0, abs=1e-7)
        by_id = {e.citizen_id: e for e in r.contributions["g"].entries}
        assert by_id["h"].sign == -1
        assert by_id["h"].amount == pytest.approx(2.25, rel=1e-5)

    def test_beta_aggregate_identity(self):
        # beta = 1.5 funds SQRT weights at sum(a**2)/4, also for 30 members
        weights = np.random.default_rng(0).uniform(0.5, 5.0, 30)
        cases = ((1.5, [1.0, 4.0], 17.0 / 4), (3.0, [1.0, 4.0], 81.0 / 4),
                 (1.5, list(weights), float(np.sum(weights ** 2)) / 4))
        for beta, weights, expF in cases:
            sc = sqrt_scenario(weights, MechanismConfig.beta_rule(beta))
            r = solve_equilibrium(sc)
            assert r.converged
            assert r.funding["g"] == pytest.approx(expF, rel=1e-6)
            ident = math.fsum(
                c.values["g"].marginal(r.funding["g"]) ** (1.0 / (beta - 1.0))
                for c in sc.citizens)
            assert ident == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [6, 30])
    @pytest.mark.parametrize("cfg", [
        MechanismConfig.qf(),
        MechanismConfig.cqf(0.1),
        MechanismConfig.cqf(1.0),
        MechanismConfig.beta_rule(1.5),
        MechanismConfig.beta_rule(3.0),
        MechanismConfig.pm_qf(),
        MechanismConfig.private(),
        MechanismConfig.linear_match(2.0),
    ], ids=lambda cfg: f"{cfg.variant.value}{cfg.alpha or cfg.beta or cfg.scale or ''}")
    def test_engines_agree(self, cfg, n):
        cits = random_concave_citizens(np.random.default_rng(n), n)
        sc = Scenario(cits, ["g"], cfg)
        rv = solve_equilibrium(sc, engine="vector")
        rs = solve_equilibrium(sc, engine="scalar")
        assert rv.converged and rs.converged
        assert rv.funding["g"] == pytest.approx(rs.funding["g"], rel=1e-6)

    def test_engines_agree_with_shadow_prices(self, rng):
        shadow = DeficitMode.SHADOW_PRICES
        cases = (
            (MechanismConfig.cqf(0.3, deficit_mode=shadow), (0.0, 0.2)),
            (MechanismConfig.beta_rule(1.6, deficit_mode=shadow), (0.0, 0.2)),
            (MechanismConfig.linear_match(2.0, deficit_mode=shadow), (0.0, 0.2)),
            # lam >= 1 is outside the share functions' domain: auto must
            # hand these to the scalar engine
            (MechanismConfig.qf(deficit_mode=shadow), (1.2, 1.2)),
            (MechanismConfig.cqf(0.3, deficit_mode=shadow), (1.2, 1.2)),
        )
        for cfg, (lam_lo, lam_hi) in cases:
            cits = random_concave_citizens(rng, 6)
            for c in cits:
                c.lam = float(rng.uniform(lam_lo, lam_hi))
            sc = Scenario(cits, ["g"], cfg)
            ra = solve_equilibrium(sc)
            rs = solve_equilibrium(sc, engine="scalar")
            assert ra.converged and rs.converged
            assert ra.diagnostics["g"].engine == ("vector" if lam_hi < 1 else "scalar")
            assert ra.funding["g"] == pytest.approx(rs.funding["g"], rel=1e-6)

    def test_deficit_outsiders_short_under_signed_rule(self):
        # a citizen with no stake in the good but a deficit stake pays to
        # shrink the match; with others fixed her first-order condition is
        # z = lam * (others' root sum), here 0.3 * 4
        cfg = MechanismConfig.pm_qf(deficit_mode=DeficitMode.SHADOW_PRICES)
        cits = [Citizen("s1", {"g": ValueFunction.sqrt(4.0)}),
                Citizen("s2", {"g": ValueFunction.sqrt(4.0)}),
                Citizen("out", {}, lam=0.3)]
        sc = Scenario(cits, ["g"], cfg)
        r = solve_equilibrium(sc)
        assert r.converged
        entry = r.contributions["g"].get("out")
        assert entry is not None and entry.sign == -1
        assert entry.amount == pytest.approx(1.44, rel=1e-5)
        assert r.funding["g"] == pytest.approx((4.0 - 1.2) ** 2, rel=1e-5)

    def test_multi_good_independence(self):
        cits = [
            Citizen("a", {"g1": ValueFunction.sqrt(2.0),
                          "g2": ValueFunction.sqrt(4.0)}),
            Citizen("b", {"g1": ValueFunction.sqrt(4.0)}),
        ]
        sc = Scenario(cits, ["g1", "g2"], MechanismConfig.qf())
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.funding["g1"] == pytest.approx(9.0, rel=1e-6)
        assert r.funding["g2"] == pytest.approx(4.0, rel=1e-6)

    def test_nonconvergence_is_diagnostic_not_exception(self):
        # a harmed citizen sends PM_QF to the iterative scalar engine,
        # which needs more than 3 sweeps here
        cits = [Citizen("a", {"g": ValueFunction.sqrt(6.0)}),
                Citizen("b", {"g": ValueFunction.sqrt(5.0)}),
                Citizen("h", {"g": ValueFunction.sqrt(-3.0)})]
        sc = Scenario(cits, ["g"], MechanismConfig.pm_qf())
        r = solve_equilibrium(sc, max_iters=3)
        assert not r.converged
        assert r.residual > 0
        assert r.iterations == 3

    def test_private_exact_tie_splits_equally(self):
        sc = sqrt_scenario([2.0] * 50, MechanismConfig.private())
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.funding["g"] == pytest.approx(1.0, rel=1e-12)
        amounts = [e.amount for e in r.contributions["g"].entries]
        assert len(amounts) == 50
        assert amounts == pytest.approx([r.funding["g"] / 50] * 50, rel=1e-12)

    def test_cqf_individual_rationality(self, rng):
        # interior funding gradient strictly exceeds 1 with >= 2 contributors
        cfg = MechanismConfig.cqf(0.25)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            amounts = {f"c{i}": float(rng.uniform(0.1, 20)) for i in range(n)}
            p = ContributionProfile.from_amounts("g", amounts)
            for cid in amounts:
                assert funding_gradient(p, cfg, cid) > 1.0

    def test_one_p_one_v_variant_routes_to_vote(self):
        cits = [Citizen(f"c{i}", {"g": ValueFunction.sqrt(a)})
                for i, a in enumerate([1.0, 2.0, 9.0])]
        sc = Scenario(cits, ["g"], MechanismConfig.one_p_one_v())
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.funding["g"] == pytest.approx(9.0, rel=1e-10)
        assert len(r.contributions["g"]) == 0

    def test_taxes_cover_deficit(self):
        sc = sqrt_scenario([2.0, 4.0])
        r = solve_equilibrium(sc)
        assert math.fsum(r.taxes.values()) == pytest.approx(r.deficit, abs=1e-8)


class TestSShapedEquilibria:
    def scenario(self):
        cits = [Citizen(f"c{i}", {"g": ValueFunction.sshaped(20.0, 0.5, 30.0)})
                for i in range(5)]
        return Scenario(cits, ["g"], MechanismConfig.qf())

    def test_two_fixed_points_reported(self):
        r = solve_equilibrium(self.scenario())
        assert r.converged
        # the welfare-better interior point wins; zero is the alternate
        assert r.funding["g"] > 30.0
        assert r.alternate is not None
        assert r.alternate.funding["g"] == 0.0

    def test_interior_point_is_mutual_best_response(self):
        sc = self.scenario()
        r = solve_equilibrium(sc)
        profile = r.contributions["g"]
        for cit in sc.citizens:
            others = ContributionProfile(
                "g", tuple(e for e in profile.entries if e.citizen_id != cit.id))
            br = best_response(cit, "g", others, sc.mechanism)
            own = profile.get(cit.id)
            assert br == pytest.approx(own.amount, rel=1e-5, abs=1e-7)

    def test_zero_is_a_fixed_point(self):
        sc = self.scenario()
        empty = ContributionProfile("g", ())
        for cit in sc.citizens:
            assert best_response(cit, "g", empty, sc.mechanism) == 0.0


class TestClosedForm:
    def test_examples(self):
        r = closed_form_qf_equilibrium(sqrt_scenario([2.0]))
        assert r.funding["g"] == 1.0
        assert r.contributions["g"].entries[0].amount == 1.0
        r = closed_form_qf_equilibrium(sqrt_scenario([2.0, 2.0, 2.0, 2.0]))
        assert r.funding["g"] == 16.0
        assert all(e.amount == 1.0 for e in r.contributions["g"].entries)
        assert r.marginal_report["g"] == pytest.approx(1.0, rel=1e-15)

    def test_rejects_wrong_family_or_variant(self):
        cits = [Citizen("a", {"g": ValueFunction.log(2.0)})]
        with pytest.raises(ValueError):
            closed_form_qf_equilibrium(Scenario(cits, ["g"], MechanismConfig.qf()))
        with pytest.raises(ValueError):
            closed_form_qf_equilibrium(sqrt_scenario([2.0], MechanismConfig.private()))


class TestOnePersonOneVote:
    def test_median_vs_optimum(self):
        cits = [Citizen(f"c{i}", {"g": ValueFunction.sqrt(a)})
                for i, a in enumerate([1.0, 2.0, 9.0])]
        sc = Scenario(cits, ["g"], MechanismConfig.one_p_one_v())
        # median weight 2 prefers a/(2 sqrt F) = 1/3 -> F = 9
        assert one_p_one_v_outcome(sc, "g") == pytest.approx(9.0, rel=1e-10)
        assert optimal_funding(sc, "g") == pytest.approx(36.0, rel=1e-10)

    def test_homogeneous_median_is_optimal(self):
        sc = sqrt_scenario([4.0, 4.0, 4.0], MechanismConfig.one_p_one_v())
        assert one_p_one_v_outcome(sc, "g") == pytest.approx(36.0, rel=1e-10)
        assert optimal_funding(sc, "g") == pytest.approx(36.0, rel=1e-10)

    def test_corner_when_median_marginal_below_share(self):
        cits = [Citizen(f"c{i}", {"g": ValueFunction.log(a)})
                for i, a in enumerate([0.1, 0.2, 0.3])]
        sc = Scenario(cits, ["g"], MechanismConfig.one_p_one_v())
        assert one_p_one_v_outcome(sc, "g") == 0.0

    def test_lower_median_for_even_population(self):
        cits = [Citizen(f"c{i}", {"g": ValueFunction.sqrt(a)})
                for i, a in enumerate([1.0, 2.0, 4.0, 9.0])]
        sc = Scenario(cits, ["g"], MechanismConfig.one_p_one_v())
        # preferred levels 4a^2: {4, 16, 64, 324}; lower median is 16
        assert one_p_one_v_outcome(sc, "g") == pytest.approx(16.0, rel=1e-10)

    def test_zero_value_citizens_vote_for_zero(self):
        cits = [Citizen("a", {"g": ValueFunction.sqrt(9.0)}),
                Citizen("b", {}), Citizen("c", {})]
        sc = Scenario(cits, ["g"], MechanismConfig.one_p_one_v())
        assert one_p_one_v_outcome(sc, "g") == 0.0
