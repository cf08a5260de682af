import math

import numpy as np
import pytest

from qflab import equilibrium as eq
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
    golden_refine,
    grid_route,
    oracle_best_response,
    oracle_funding,
    oracle_value,
    random_concave_citizens,
    sqrt_scenario,
)


def harmed_repro():
    """PM_QF with a harmed citizen: no pure equilibrium exists."""
    cits = [Citizen(f"s{i}", {"g": ValueFunction.sqrt(a)})
            for i, a in enumerate([1.0468, 1.8106, 1.4908, 1.0763])]
    return cits + [Citizen("h", {"g": ValueFunction.sqrt(-3.8168)})]


def brute_force_gain(scenario, good, profile, cit):
    """How much ``cit`` gains by deviating from ``profile``: the best utility
    over a 20,000-point geometric grid on each sign branch, refined by
    golden section, less their own. Formulas retyped (conftest)."""
    cfg = scenario.mechanism
    rest = [e for e in profile.nonzero() if e.citizen_id != cit.id]
    s_o = math.fsum(e.sign * math.sqrt(e.amount) for e in rest)
    A_o = math.fsum(e.amount for e in rest)
    Y_o = math.fsum(e.amount ** (1.0 / cfg.beta) for e in rest) if cfg.beta else 0.0
    lam = cit.lam if cfg.deficit_mode is DeficitMode.SHADOW_PRICES else 0.0
    vf = cit.values.get(good)

    def utility(c, sign):
        c = np.asarray(c, dtype=float)
        F = np.maximum(oracle_funding(cfg, s_o, A_o, Y_o, c, sign), 0.0)
        return oracle_value(vf, F) - c - lam * (F - (A_o + c))

    mine = profile.get(cit.id)
    own = float(utility(mine.amount, mine.sign)) if mine else float(utility(0.0, 1))
    c_max = 4.0 * max(100.0, A_o, s_o * s_o, 10.0 * (mine.amount if mine else 0.0))
    grid = np.geomspace(1e-10, c_max, 20_000)
    best = float(utility(0.0, 1))
    for sign in (1, -1) if cfg.shape.signed else (1,):
        u = utility(grid, sign)
        i = int(np.argmax(u))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        c_ref = golden_refine(lambda c: float(utility(c, sign)), float(lo), float(hi))
        best = max(best, float(u[i]), float(utility(c_ref, sign)))
    return best - own, best


def vector_gap(scenario, tolerance=1e-8):
    """The largest gap between a member's exact best response and their
    contribution at the reported state of the regular good "g", which its
    share sum certified."""
    cfg = scenario.mechanism
    members, x, diag, _ = eq._solve_good(scenario, "g", cfg, tolerance)
    assert diag.engine == "vector" and diag.converged
    return eq._gap(members, eq._lams(members, cfg), cfg.shape, x)


def assert_brute_force_equilibrium(scenario, good, profile):
    for cit in scenario.citizens:
        gain, best = brute_force_gain(scenario, good, profile, cit)
        assert gain <= 1e-7 * max(1.0, abs(best)), (cit.id, gain)


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


class TestFirstOrderRoute:
    """Members whose utility is concave in their contribution (a concave
    family with a > 0, no shadow price, any rule but PM_QF) take the
    first-order root; everyone else takes the grid scan."""

    FAMILIES = {
        "SQRT": lambda rng: ValueFunction.sqrt(float(rng.uniform(0.5, 6.0))),
        "LOG": lambda rng: ValueFunction.log(float(rng.uniform(0.5, 6.0))),
        "ISOELASTIC": lambda rng: ValueFunction.isoelastic(
            float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.2, 0.8))),
    }
    RULES = {
        "QF": MechanismConfig.qf(),
        "CQF0.05": MechanismConfig.cqf(0.05),
        "CQF0.5": MechanismConfig.cqf(0.5),
        "CQF0.95": MechanismConfig.cqf(0.95),
        "BETA1.5": MechanismConfig.beta_rule(1.5),
        "BETA3": MechanismConfig.beta_rule(3.0),
        "PRIVATE": MechanismConfig.private(),
        "LINEAR_MATCH2": MechanismConfig.linear_match(2.0),
    }

    @staticmethod
    def both_routes(monkeypatch, cit, others, cfg):
        root = best_response_full(cit, "g", others, cfg)
        with monkeypatch.context() as m:
            m.setattr(eq, "_first_order_response", grid_route)
            grid = best_response_full(cit, "g", others, cfg)
        return root, grid

    @pytest.mark.parametrize("rule", list(RULES))
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_agrees_with_grid_scan_and_oracle(self, family, rule, rng, monkeypatch):
        cfg = self.RULES[rule]
        for draw in range(10):
            n_others = 0 if draw == 0 else int(rng.integers(1, 6))
            others = ContributionProfile.from_amounts(
                "g", {f"o{i}": float(rng.uniform(0.1, 9.0)) for i in range(n_others)})
            cit = Citizen("i", {"g": self.FAMILIES[family](rng)})
            root, grid = self.both_routes(monkeypatch, cit, others, cfg)
            assert root.amount == pytest.approx(grid.amount, rel=1e-9, abs=0.0)
            assert root.utility == pytest.approx(grid.utility, rel=1e-9, abs=1e-12)
            assert root.multi_optimum == grid.multi_optimum
            want = oracle_best_response(cit, "g", others, cfg,
                                        c_max=max(100.0, 10.0 * root.amount))
            assert root.amount == pytest.approx(want, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("cfg", [MechanismConfig.qf(), MechanismConfig.cqf(0.5),
                                     MechanismConfig.beta_rule(1.5)])
    def test_log_alone_below_unit_marginal_contributes_zero(self, cfg, monkeypatch):
        # alone, dF/dc = 1 at 0, so du/dc(0+) = a - 1 < 0
        cit = Citizen("i", {"g": ValueFunction.log(0.7)})
        root, grid = self.both_routes(monkeypatch, cit, ContributionProfile("g", ()), cfg)
        assert root == grid
        assert root.amount == 0.0 and not root.multi_optimum

    @pytest.mark.parametrize("cfg", [MechanismConfig.private(),
                                     MechanismConfig.linear_match(2.0)])
    @pytest.mark.parametrize("a, amounts", [
        (2.0, {"o": 9.0}),  # the others already fund past the target level
        (0.4, {}),          # scale * V'(0) < 1: no target level at all
    ])
    def test_linear_corner_contributes_zero(self, cfg, a, amounts, monkeypatch):
        cit = Citizen("i", {"g": ValueFunction.log(a)})
        others = ContributionProfile.from_amounts("g", amounts)
        root, grid = self.both_routes(monkeypatch, cit, others, cfg)
        assert root == grid
        assert root.amount == 0.0

    def test_near_tie_with_zero_resolves_to_zero(self, monkeypatch):
        # the root sits at c = a - 1 = 1e-5 and gains about 5e-11 over 0,
        # inside the tie tolerance: zero wins and the tie is flagged
        cit = Citizen("i", {"g": ValueFunction.log(1.0 + 1e-5)})
        root, grid = self.both_routes(
            monkeypatch, cit, ContributionProfile("g", ()), MechanismConfig.qf())
        assert root.amount == grid.amount == 0.0
        assert root.multi_optimum and grid.multi_optimum

    def test_qf_sqrt_root_is_closed_form(self):
        cit = Citizen("i", {"g": ValueFunction.sqrt(3.0)})
        others = ContributionProfile.from_amounts("g", {"o": 4.0, "p": 0.5})
        assert best_response(cit, "g", others, MechanismConfig.qf()) == 2.25

    def test_eligible_members_never_reach_the_grid(self, rng, monkeypatch):
        def unreachable(obj):
            raise AssertionError("grid scan reached")

        monkeypatch.setattr(eq, "_maximize_branch", unreachable)
        others = ContributionProfile.from_amounts("g", {"o": 2.0, "p": 5.0})
        for make in self.FAMILIES.values():
            cit = Citizen("i", {"g": make(rng)})
            for cfg in self.RULES.values():
                best_response_full(cit, "g", others, cfg)
        sc = Scenario(random_concave_citizens(rng, 6), ["g"], MechanismConfig.cqf(0.5))
        assert vector_gap(sc) <= 1e-8

    @pytest.mark.parametrize("vf, cfg, lam", [
        (ValueFunction.sshaped(20.0, 0.5, 30.0), MechanismConfig.qf(), 0.0),
        (ValueFunction.log(-2.0), MechanismConfig.cqf(0.5), 0.0),
        (ValueFunction.sqrt(2.0), MechanismConfig.pm_qf(), 0.0),
        (ValueFunction.sqrt(2.0),
         MechanismConfig.qf(deficit_mode=DeficitMode.SHADOW_PRICES), 0.3),
    ], ids=["sshaped", "harmed", "pm_qf", "shadow_price"])
    def test_other_members_take_the_grid(self, vf, cfg, lam, monkeypatch):
        calls = []
        grid_scan = eq._maximize_branch

        def recording(obj):
            calls.append(obj)
            return grid_scan(obj)

        monkeypatch.setattr(eq, "_maximize_branch", recording)
        cit = Citizen("i", {"g": vf}, lam=lam)
        best_response_full(cit, "g", ContributionProfile.from_amounts("g", {"o": 2.0}), cfg)
        assert calls


# ---------------------------------------------------------------------------
# solve_equilibrium


ENGINE_RULES = [
    MechanismConfig.qf(),
    MechanismConfig.cqf(0.1),
    MechanismConfig.cqf(1.0),
    MechanismConfig.beta_rule(1.5),
    MechanismConfig.beta_rule(3.0),
    MechanismConfig.pm_qf(),
    MechanismConfig.private(),
    MechanismConfig.linear_match(2.0),
]


def rule_id(cfg):
    return f"{cfg.variant.value}{cfg.alpha or cfg.beta or cfg.scale or ''}"


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

    @pytest.mark.parametrize("cfg", [
        MechanismConfig.private(), MechanismConfig.linear_match(2.0),
        MechanismConfig.linear_match(2.0, deficit_mode=DeficitMode.SHADOW_PRICES),
    ])
    def test_linear_targets_are_each_members_inverse_marginal(self, rng, cfg):
        scale = cfg.shape.scale
        shadow = cfg.deficit_mode is DeficitMode.SHADOW_PRICES
        for trial in range(20):
            cits = random_concave_citizens(rng, int(rng.integers(1, 12)))
            if shadow:
                for c in cits:
                    c.lam = float(rng.uniform(0.0, 0.6))
            # LOG members with a = t and a < t: V'(0) = a <= t, so their
            # target is 0 (inverse_marginal raises for a < t)
            for j, factor in enumerate((1.0, 0.5, 0.99)):
                lam = float(rng.uniform(0.0, 0.6)) if shadow else 0.0
                t = (1.0 + lam * (scale - 1.0)) / scale
                cits.append(Citizen(f"log{j}", {"g": ValueFunction.log(factor * t)}, lam=lam))
            if trial % 2:
                cits = cits[-3:]  # only those: nobody pays
            sc = Scenario(cits, ["g"], cfg)
            members, x, diag, _ = eq._solve_good(sc, "g", cfg, 1e-8)
            targets = []
            for _, cit, vf in members:
                t = (1.0 + (cit.lam if shadow else 0.0) * (scale - 1.0)) / scale
                targets.append(0.0 if vf.marginal(0.0) <= t else vf.inverse_marginal(t))
            F = max(targets, default=0.0)
            n_top = targets.count(F)
            want = [F / scale / n_top if F > 0.0 and T == F else 0.0 for T in targets]
            assert x.tolist() == want
            assert diag.converged
            if trial % 2:
                assert F == 0.0

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
    @pytest.mark.parametrize("cfg", ENGINE_RULES, ids=rule_id)
    def test_engines_agree(self, cfg, n):
        # the state its share sum certifies passes the best-response check
        cits = random_concave_citizens(np.random.default_rng(n), n)
        assert vector_gap(Scenario(cits, ["g"], cfg)) <= 1e-8

    @pytest.mark.parametrize("n", [6, 30])
    @pytest.mark.parametrize("cfg", ENGINE_RULES, ids=rule_id)
    def test_concave_goods_keep_their_bits(self, cfg, n):
        # a regular good's one piece runs from 0 to inf, so its root and state
        # carry the bits of _unit_root on the share sum, and its optimum those
        # of _unit_root on the marginal sum; both sides are computed here
        sc = Scenario(random_concave_citizens(np.random.default_rng(n), n), ["g"], cfg)
        vfs = [c.values["g"] for c in sc.citizens]
        members, x, diag, _ = eq._solve_good(sc, "g", cfg, 1e-8)
        assert diag.engine == "vector" and diag.converged
        shape = cfg.shape
        if shape.alpha == 0.0:
            targets, _ = eq._linear_targets(vfs, eq._lams(members, cfg), shape.scale)
            want = eq._linear_state(targets, targets.max(), shape.scale)
        else:
            marginals = eq._member_marginals(vfs)
            shares = eq._shares(eq._lams(members, cfg), shape.alpha, shape.beta, shape.signed)
            with np.errstate(over="ignore"):  # shares near F = 0 pass the float range
                F = eq._unit_root(lambda F: float(shares(marginals(F)).sum()))[0]
                found, _ = eq._candidates(members, eq._lams(members, cfg), shape)
            assert [c[0].hex() for c in found] == [F.hex()]
            want = eq._state(shares(marginals(F)), F, shape.alpha, shape.beta)
        assert x.tobytes() == want.tobytes()
        marginals = eq._member_marginals(vfs)
        F = eq._unit_root(lambda F: float(marginals(F).sum()))[0]
        assert optimal_funding(sc, "g").hex() == F.hex()

    def test_engines_agree_with_shadow_prices(self, rng):
        shadow = DeficitMode.SHADOW_PRICES
        cases = (
            (MechanismConfig.cqf(0.3, deficit_mode=shadow), (0.0, 0.2)),
            (MechanismConfig.beta_rule(1.6, deficit_mode=shadow), (0.0, 0.2)),
            (MechanismConfig.linear_match(2.0, deficit_mode=shadow), (0.0, 0.2)),
            # lam >= 1 makes a good irregular: its candidates are certified
            # by best responses
            (MechanismConfig.qf(deficit_mode=shadow), (1.2, 1.2)),
            (MechanismConfig.cqf(0.3, deficit_mode=shadow), (1.2, 1.2)),
        )
        for cfg, (lam_lo, lam_hi) in cases:
            cits = random_concave_citizens(rng, 6)
            for c in cits:
                c.lam = float(rng.uniform(lam_lo, lam_hi))
            sc = Scenario(cits, ["g"], cfg)
            if lam_hi < 1:
                assert vector_gap(sc) <= 1e-8
            else:
                r = solve_equilibrium(sc)
                assert r.converged and r.diagnostics["g"].engine == "scalar"

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
        # the harmed-citizen repro has no pure equilibrium: the solve's
        # result says so without raising, and max_iters has no effect
        sc = Scenario(harmed_repro(), ["g"], MechanismConfig.pm_qf())
        for kw in ({}, {"max_iters": 3}):
            r = solve_equilibrium(sc, **kw)
            assert not r.converged and r.alternate is None
            assert r.residual > 0
            assert r.iterations == r.diagnostics["g"].iterations

    @pytest.mark.parametrize("kw", [{"tolerance": math.nan}, {"tolerance": -1.0},
                                    {"tolerance": 0.0}, {"tolerance": math.inf},
                                    {"max_iters": -5}, {"max_iters": 0},
                                    {"max_iters": math.nan}])
    def test_bad_tolerance_or_max_iters_rejected(self, kw):
        # tolerance NaN or -1 once ran all 10,000 sweeps of an S-shaped
        # solve, and max_iters -5 returned unconverged at 0 sweeps
        cits = [Citizen(f"c{i}", {"g": ValueFunction.sshaped(20.0 + i, 0.5, 30.0)})
                for i in range(3)]
        with pytest.raises(ValueError, match=next(iter(kw))):
            solve_equilibrium(Scenario(cits, ["g"], MechanismConfig.qf()), **kw)

    def test_harmed_citizen_driving_funding_to_zero_does_not_raise(self):
        # the harmed citizen's best response sits on the kink where its sign
        # branch drives F to 0; the derivative is NaN there. The one root of
        # the signed share sum, (sum a / 2)**2, is reported uncertified: the
        # a = 1.8106 supporter's others hold T_o < 0, and it flips sign
        cits = harmed_repro()
        sc = Scenario(cits, ["g"], MechanismConfig.pm_qf())
        r = solve_equilibrium(sc)
        d = r.diagnostics["g"]
        assert d.engine == "scalar" and not d.converged
        half = math.fsum(c.values["g"].a for c in cits) / 2.0
        assert r.funding["g"] == pytest.approx(half ** 2, rel=1e-12)
        assert math.isfinite(r.residual) and r.residual > 1e-8

    @pytest.mark.parametrize("case", ["sqrt3", "random6"])
    def test_diverging_shadow_price_state_is_diagnostic(self, case):
        # lambda > 1 under PM_QF: each citizen offsets the others' deficit
        # by more than it costs; the signed shares w = (V' - 1.2)/(1 - 1.2)
        # have one root and it is no equilibrium
        if case == "sqrt3":
            cits = [Citizen(f"c{a}", {"g": ValueFunction.sqrt(a)}, lam=1.2)
                    for a in (2.0, 3.0, 4.0)]
        else:
            cits = [Citizen(c.id, c.values, lam=1.2)
                    for c in random_concave_citizens(np.random.default_rng(1), 6)]
        cfg = MechanismConfig.pm_qf(deficit_mode=DeficitMode.SHADOW_PRICES)
        r = solve_equilibrium(Scenario(cits, ["g"], cfg))
        assert not r.converged and r.alternate is None
        assert r.diagnostics["g"].engine == "scalar"
        assert r.residual > 1e-8
        if case == "sqrt3":
            # sum w = 18 - 22.5/sqrt(F) = 1; best responses exist there, and
            # the a = 4 citizen's lies 32.47 from its -4.24
            assert r.funding["g"] == pytest.approx((22.5 / 17.0) ** 2, rel=1e-12)
            assert r.residual == pytest.approx(32.4706, rel=1e-5)

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

    @pytest.mark.parametrize("cfg, F", [(MechanismConfig.qf(), 0.8),
                                        (MechanismConfig.cqf(0.5), 0.35),
                                        (MechanismConfig.beta_rule(1.5), 0.27279)])
    def test_regular_good_reports_zero_beside_its_root(self, cfg, F):
        # V'(0) = 0.9 <= 1, so neither pays alone and F = 0 is an
        # equilibrium beside the root of the shares' sum
        cits = [Citizen(f"c{i}", {"g": ValueFunction.log(0.9)}) for i in range(2)]
        sc = Scenario(cits, ["g"], cfg)
        r = solve_equilibrium(sc)
        assert r.converged and r.diagnostics["g"].engine == "vector"
        assert r.funding["g"] == pytest.approx(F, rel=1e-5)
        assert r.alternate is not None and r.alternate.funding["g"] == 0.0
        for state in (r, r.alternate):
            assert_brute_force_equilibrium(sc, "g", state.contributions["g"])
        # a harmed valuer makes F = 0 the welfare-better of the two
        sc = Scenario(cits + [Citizen("h", {"g": ValueFunction.log(-2.0)})], ["g"], cfg)
        r = solve_equilibrium(sc)
        assert r.converged and r.funding["g"] == 0.0
        assert r.alternate.funding["g"] == pytest.approx(F, rel=1e-5)


class TestScalarIteration:
    """Irregular goods: every root of the share sum, certified by every
    member's best response."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sshaped_cqf_converges_quickly(self, seed):
        # the interior equilibrium wins on welfare; zero is the alternate,
        # and the roots take a few dozen root-finder iterations
        rng = np.random.default_rng(seed)
        a, k, m = rng.uniform(16, 24), rng.uniform(0.4, 0.6), rng.uniform(25, 35)
        w = a * (1.0 + 0.05 * rng.uniform(-1, 1, 4))
        cits = [Citizen(f"c{j}", {"g": ValueFunction.sshaped(float(x), float(k), float(m))})
                for j, x in enumerate(w)]
        sc = Scenario(cits, ["g"], MechanismConfig.cqf(0.5))
        r = solve_equilibrium(sc)
        assert r.converged and r.iterations <= 60
        assert r.funding["g"] > m
        assert r.alternate is not None and r.alternate.converged
        assert r.alternate.funding["g"] == 0.0
        for state in (r, r.alternate):
            assert_brute_force_equilibrium(sc, "g", state.contributions["g"])

    def test_pm_qf_with_harmed_citizen_converges_quickly(self):
        # with SQRT values the signed shares are a_i/(2 sqrt F): one root at
        # (sum a / 2)**2, where each pays (a_i/2)**2 with the sign of a_i
        rng = np.random.default_rng(3)
        cits = [Citizen(f"c{j}", {"g": ValueFunction.sqrt(float(a))})
                for j, a in enumerate(rng.uniform(2.0, 6.0, 6))]
        cits.append(Citizen("h", {"g": ValueFunction.sqrt(-1.0)}))
        sc = Scenario(cits, ["g"], MechanismConfig.pm_qf())
        r = solve_equilibrium(sc)
        assert r.diagnostics["g"].engine == "scalar"
        assert r.converged and r.iterations <= 10
        half = math.fsum(c.values["g"].a for c in cits) / 2.0
        assert r.funding["g"] == pytest.approx(half ** 2, rel=1e-12)
        p = r.contributions["g"]
        for c in cits:
            a = c.values["g"].a
            assert p.get(c.id).sign * p.get(c.id).amount == pytest.approx(
                math.copysign((a / 2.0) ** 2, a), rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_diverging_state_still_runs_off(self, seed):
        # lambda = 1.2 under PM_QF: no candidate is certified, and the
        # residual is the welfare-best candidate's gap, measured again here
        cits = [Citizen(c.id, c.values, lam=1.2)
                for c in random_concave_citizens(np.random.default_rng(seed), 6)]
        cfg = MechanismConfig.pm_qf(deficit_mode=DeficitMode.SHADOW_PRICES)
        r = solve_equilibrium(Scenario(cits, ["g"], cfg))
        assert not r.converged and r.alternate is None
        p = r.contributions["g"]
        gap = 0.0
        for cit in cits:
            rest = [e for e in p.entries if e.citizen_id != cit.id]
            others = ContributionProfile.from_columns(
                "g", [e.citizen_id for e in rest], [e.amount for e in rest],
                [e.sign for e in rest])
            own = p.get(cit.id)
            br = best_response_full(cit, "g", others, cfg)
            gap = max(gap, abs(br.sign * br.amount - (own.sign * own.amount if own else 0.0)))
        assert r.residual == pytest.approx(gap, rel=1e-9)
        assert r.residual > 1e-8

    def test_stalled_solve_ends_early(self):
        # the harmed-citizen repro: F = 0 is dropped, as each supporter
        # pays alone there, and the one root fails its certificate, after a
        # few root-finder iterations
        r = solve_equilibrium(Scenario(harmed_repro(), ["g"], MechanismConfig.pm_qf()))
        d = r.diagnostics["g"]
        assert not r.converged and d.engine == "scalar"
        assert r.iterations < 20
        assert math.isfinite(r.residual) and r.residual > 0

    def test_beta_others_aggregate_never_negative(self):
        # each member's others' aggregate is taken from the same roots as
        # the whole; a power computed apart once left it 1 ulp below 0 and
        # the best response NaN, so no candidate survived
        vfs = [ValueFunction.log(4.777086633466709),
               ValueFunction.isoelastic(4.768922512117597, 0.3870988712062913),
               ValueFunction.log(2.341396113661226),
               ValueFunction.sshaped(23.837827716870166, 0.6305146505754227,
                                     16.540610077468227),
               ValueFunction.sqrt(2.5407405026629317)]
        cits = [Citizen(f"c{i}", {"g": vf}) for i, vf in enumerate(vfs)]
        cfg = MechanismConfig.beta_rule(1.5)
        r = solve_equilibrium(Scenario(cits, ["g"], cfg))
        assert r.converged and r.diagnostics["g"].engine == "scalar"
        p = r.contributions["g"]
        for cit in cits:
            rest = [(cid, a) for cid, a in zip(p.citizen_ids, p.amounts) if cid != cit.id]
            others = ContributionProfile.from_columns(
                "g", [cid for cid, _ in rest], [a for _, a in rest])
            own = p.get(cit.id)
            assert best_response(cit, "g", others, cfg) == pytest.approx(
                0.0 if own is None else own.amount, rel=1e-6, abs=1e-8)


class TestCertifiedScan:
    """Repros the fixed-point iteration failed on, and a property check of
    the certified roots against a brute-force deviation scan."""

    def test_shadow_price_outsiders_certified_empty(self):
        # outsiders pay the constant signed share -lam/(1 - lam), so the one
        # root has T = (sum a / 2)/(1 + sum lam/(1 - lam)); no pure
        # equilibrium exists, since sum a = 10.283 < (1 + 1.019) * 5.219:
        # at the root the a = 5.219 supporter's others hold T_o < 0
        a, lams = [1.944, 1.893, 1.227, 5.219], [0.289, 0.380]
        cits = [Citizen(f"s{i}", {"g": ValueFunction.sqrt(x)}) for i, x in enumerate(a)]
        cits += [Citizen(f"o{i}", {}, lam=x) for i, x in enumerate(lams)]
        sc = Scenario(cits, ["g"], MechanismConfig.pm_qf(deficit_mode=DeficitMode.SHADOW_PRICES))
        r = solve_equilibrium(sc)
        assert not r.converged and r.alternate is None
        assert r.diagnostics["g"].engine == "scalar"
        T = math.fsum(a) / 2.0 / (1.0 + math.fsum(x / (1.0 - x) for x in lams))
        assert r.funding["g"] == pytest.approx(T * T, rel=1e-12)
        gain, _ = brute_force_gain(sc, "g", r.contributions["g"], cits[3])
        assert gain > 0.1

    def test_linear_match_sshaped_near_tie(self):
        # the a = 21.84 member's target level V'(F) = 1/2.5 is the highest,
        # and they pay it alone; the others best-respond 0
        a = (19.889825820626644, 21.841922782348426, 20.44578033899531)
        cits = [Citizen(f"c{i}", {"g": ValueFunction.sshaped(x, 0.5015265319784833,
                                                             26.562981762723915)})
                for i, x in enumerate(a)]
        sc = Scenario(cits, ["g"], MechanismConfig.linear_match(2.5))
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.funding["g"] == pytest.approx(33.00857, rel=1e-6)
        p = r.contributions["g"]
        assert p.citizen_ids == ("c1",)
        assert p.amounts[0] == pytest.approx(r.funding["g"] / 2.5, rel=1e-12)
        assert cits[1].values["g"].marginal(r.funding["g"]) == pytest.approx(0.4, rel=1e-9)
        assert_brute_force_equilibrium(sc, "g", p)

    def test_pm_qf_short_seller_does_not_certify_zero(self):
        # the signed shares 3/(1 + F) and (0.1/(1 + F) - 0.9)/0.1 sum below
        # 1 at every F, so no root exists; F = 0 is no equilibrium either,
        # since the a = 3 member alone funds up to V'(F) = 1, F = 2
        cits = [Citizen("a", {"g": ValueFunction.log(3.0)}),
                Citizen("b", {"g": ValueFunction.log(0.1)}, lam=0.9)]
        sc = Scenario(cits, ["g"], MechanismConfig.pm_qf(deficit_mode=DeficitMode.SHADOW_PRICES))
        r = solve_equilibrium(sc)
        assert not r.converged and r.alternate is None
        assert r.diagnostics["g"].engine == "scalar"
        assert r.funding["g"] == 0.0
        assert r.residual == pytest.approx(2.0, rel=1e-9)
        gain, _ = brute_force_gain(sc, "g", r.contributions["g"], cits[0])
        assert gain > 0.1

    def test_pm_qf_root_past_a_flexible_share_of_one(self):
        # the lam = 1.2 member's signed share is 6 - 5/sqrt(F), the
        # outsiders' -1 (four) and -1/2, so the sum 3/2 - 5/sqrt(F) has its
        # root at F = 100, where the flexible share is 5.5
        cits = [Citizen("s", {"g": ValueFunction.sqrt(2.0)}, lam=1.2)]
        cits += [Citizen(f"o{i}", {}, lam=x) for i, x in enumerate([0.5] * 4 + [1.0 / 3.0])]
        sc = Scenario(cits, ["g"], MechanismConfig.pm_qf(deficit_mode=DeficitMode.SHADOW_PRICES))
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.funding["g"] == pytest.approx(100.0, rel=1e-12)
        p = r.contributions["g"]
        assert p.get("s").amount == pytest.approx(55.0 ** 2, rel=1e-12)
        assert p.get("o0").sign == -1 and p.get("o0").amount == pytest.approx(100.0, rel=1e-12)
        assert_brute_force_equilibrium(sc, "g", p)

    @pytest.mark.parametrize("cfg", [MechanismConfig.qf(), MechanismConfig.pm_qf()],
                             ids=["QF", "PM_QF"])
    def test_root_far_below_the_first_scan_level(self, cfg):
        # the SQRT member's share a/(2 sqrt F) falls to 1 near F = (a/2)**2
        # = 1e-40, far below the first scan level past 0 (about 1e-7), and
        # the root finder bisects down to it
        cits = [Citizen("s", {"g": ValueFunction.sshaped(20.0, 0.5, 30.0)}),
                Citizen("q", {"g": ValueFunction.sqrt(2e-20)})]
        r = solve_equilibrium(Scenario(cits, ["g"], cfg))
        assert r.converged
        assert r.funding["g"] == pytest.approx(1e-40, rel=1e-4, abs=0.0)

    @pytest.mark.parametrize("beta, F", [(1.5, 36.0224), (1.2, 34.9212)])
    def test_beta_sshaped_interior_equilibrium(self, beta, F):
        # five S-shaped members share the threshold good at an interior
        # level, and zero is the other equilibrium
        cits = [Citizen(f"c{i}", {"g": ValueFunction.sshaped(20.0, 0.5, 30.0)})
                for i in range(5)]
        sc = Scenario(cits, ["g"], MechanismConfig.beta_rule(beta))
        r = solve_equilibrium(sc)
        assert r.converged
        assert r.funding["g"] == pytest.approx(F, rel=1e-5)
        assert r.alternate is not None and r.alternate.funding["g"] == 0.0
        for state in (r, r.alternate):
            assert_brute_force_equilibrium(sc, "g", state.contributions["g"])

    def test_mixed_goods_are_brute_force_equilibria(self):
        # 1-4 S-shaped and 0-3 concave members; shadow prices up to 0.5 in
        # 30% of the goods. About a quarter of these goods have no pure
        # equilibrium (two S-shaped members under CQF(0.5) whose best
        # responses cycle, say); there the reported candidate must fail
        rng = np.random.default_rng(20261020)
        rules = [MechanismConfig.qf, lambda **kw: MechanismConfig.cqf(0.5, **kw),
                 lambda **kw: MechanismConfig.beta_rule(1.5, **kw), MechanismConfig.private,
                 lambda **kw: MechanismConfig.linear_match(2.0, **kw)]
        converged = 0
        for trial in range(40):
            shadow = rng.uniform() < 0.3
            vfs = [ValueFunction.sshaped(float(rng.uniform(10, 30)), float(rng.uniform(0.3, 0.8)),
                                         float(rng.uniform(10, 40)))
                   for _ in range(int(rng.integers(1, 5)))]
            vfs += [c.values["g"] for c in random_concave_citizens(rng, int(rng.integers(0, 4)))]
            cits = [Citizen(f"c{i}", {"g": vf},
                            lam=float(rng.uniform(0.0, 0.5)) if shadow else 0.0)
                    for i, vf in enumerate(vfs)]
            mode = DeficitMode.SHADOW_PRICES if shadow else DeficitMode.IGNORE
            sc = Scenario(cits, ["g"], rules[trial % len(rules)](deficit_mode=mode))
            r = solve_equilibrium(sc)
            if not r.converged:
                assert max(brute_force_gain(sc, "g", r.contributions["g"], c)[0]
                           for c in cits) > 1e-6
                continue
            converged += 1
            for state in (r, r.alternate) if r.alternate else (r,):
                assert_brute_force_equilibrium(sc, "g", state.contributions["g"])
        assert converged >= 25


class TestRootSearch:
    """``_roots``: the share sum and the marginal sum split at the S-shaped
    inflections, each monotone piece solved by one root-find."""

    # three SSHAPED(3000, 2000, 1000) and two SSHAPED(50, 5000, 40) citizens:
    # humps narrower than one level of a fixed scan, which found no root
    HUMPS = [((3000.0, 2000.0, 1000.0), 3, 999.99165, 1000.00835),
             ((50.0, 5000.0, 40.0), 2, 39.99738, 40.00262)]

    @staticmethod
    def citizens(params, n):
        return [Citizen(f"c{i}", {"g": ValueFunction.sshaped(*params)}) for i in range(n)]

    @pytest.mark.parametrize("params, n, lower, upper", HUMPS, ids=["k2000", "k5000"])
    def test_narrow_hump_candidates(self, params, n, lower, upper):
        sc = Scenario(self.citizens(params, n), ["g"], MechanismConfig.qf())
        members = [(i, c, c.values["g"]) for i, c in enumerate(sc.citizens)]
        lam = eq._lams(members, sc.mechanism)
        with np.errstate(all="ignore"):
            found, _ = eq._candidates(members, lam, sc.mechanism.shape)
        F = [c[0] for c in found]
        assert F[0] == 0.0 and F[1:] == pytest.approx([lower, upper], abs=1e-5)
        for level in F[1:]:
            v = [c.values["g"].marginal(level) for c in sc.citizens]
            assert abs(math.fsum(v) - 1.0) <= 1e-9   # QF: w_i = V_i'(F)
        # the welfare-best candidate is the upper root
        r = solve_equilibrium(sc)
        assert r.funding["g"] == pytest.approx(upper, abs=1e-5)

    @staticmethod
    def brute_force_argmax(vfs, cost, F_max):
        # a 2,000,001-level grid refined by golden section (conftest)
        def W(F):
            return sum(oracle_value(vf, F) for vf in vfs) - cost * F

        grid = np.linspace(0.0, F_max, 2_000_001)
        i = int(np.argmax(W(grid)))
        return golden_refine(lambda F: float(W(np.array(F))),
                             float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)]))

    @pytest.mark.parametrize("params, n, lower, upper", HUMPS, ids=["k2000", "k5000"])
    def test_steep_hump_optimum(self, params, n, lower, upper):
        cits = self.citizens(params, n)
        vfs = [c.values["g"] for c in cits]
        want = self.brute_force_argmax(vfs, 1.0, 2.0 * params[2])
        assert want == pytest.approx(upper, abs=1e-5)
        assert optimal_funding(Scenario(cits, ["g"], MechanismConfig.qf()), "g") == \
            pytest.approx(want, rel=1e-9)

    def test_steep_hump_preferred_level(self):
        # each of three voters prefers the argmax of V(F) - F/3
        params, n, _, upper = self.HUMPS[0]
        cits = self.citizens(params, n)
        want = self.brute_force_argmax([cits[0].values["g"]], 1.0 / n, 2.0 * params[2])
        assert want == pytest.approx(upper, abs=1e-5)
        sc = Scenario(cits, ["g"], MechanismConfig.one_p_one_v())
        assert one_p_one_v_outcome(sc, "g") == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("a", [2e-110, 2e110])
    def test_root_past_the_unit_root_bracket(self, a):
        # two SQRT(a) citizens under QF fund a**2, outside _unit_root's
        # bracket (1e-200 to 1e200); doubling from 1 brackets it instead,
        # where the solve once raised ValueError
        r = solve_equilibrium(sqrt_scenario([a, a]))
        assert r.converged and r.funding["g"] == pytest.approx(a * a, rel=1e-12)

    def test_shared_inflection_runs_no_scan(self, monkeypatch):
        # members sharing k and m give two monotone pieces; the share sum's
        # roots and the optimum need no grid
        def no_scan(*args):
            def levels(lo, hi):
                raise AssertionError(f"[{lo}, {hi}] scanned")
            return levels

        monkeypatch.setattr(eq, "_levels", no_scan)
        sc = Scenario(self.citizens((20.0, 0.5, 30.0), 5), ["g"], MechanismConfig.cqf(0.5))
        r = solve_equilibrium(sc)
        assert r.converged and r.alternate.funding["g"] == 0.0
        assert optimal_funding(sc, "g") > 30.0


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


# ---------------------------------------------------------------------------
# the best-response objective


class TestGridRoute:
    def test_pm_qf_crossing(self):
        # the harmed citizen's best response cancels the others' T_o < 0,
        # the kink where F = 0 and du/dc is NaN
        T_o = -3.1035717570022774
        r = eq._best_response_core(ValueFunction.sqrt(-4.925036681940243),
                                   0.6541239889047219, MechanismConfig.pm_qf().shape,
                                   T_o, 8.683088105749503)
        assert r.sign == 1 and r.amount == pytest.approx(T_o * T_o, rel=1e-12)

    def test_matches_brute_force(self):
        # S-shaped, harmed and outsider members, others of both signs under
        # PM_QF, shadow prices up to 0.9
        rng = np.random.default_rng(20261022)
        shadow = DeficitMode.SHADOW_PRICES
        rules = [MechanismConfig.qf, MechanismConfig.pm_qf, MechanismConfig.private,
                 lambda **kw: MechanismConfig.cqf(0.5, **kw),
                 lambda **kw: MechanismConfig.beta_rule(1.5, **kw),
                 lambda **kw: MechanismConfig.beta_rule(3.0, **kw),
                 lambda **kw: MechanismConfig.linear_match(2.0, **kw)]
        for trial in range(140):
            cfg = rules[trial % len(rules)](deficit_mode=shadow)
            kind = trial % 4
            lam = float(rng.uniform(0.0, 0.9))
            if kind == 0:
                vf = ValueFunction.sshaped(float(rng.uniform(5, 60)), float(rng.uniform(0.1, 1.0)),
                                           float(rng.uniform(5, 50)))
            elif kind == 1:
                vf = ValueFunction.sqrt(-float(rng.uniform(0.5, 5.0)))
            elif kind == 2:
                vf = None
            else:
                vf = random_concave_citizens(rng, 1)[0].values["g"]
            cit = Citizen("i", {} if vf is None else {"g": vf}, lam=lam)
            n = int(rng.integers(0, 5))
            amounts = {f"o{j}": float(rng.uniform(0.01, 30.0)) for j in range(n)}
            signs = [int(rng.choice([1, -1])) if cfg.shape.signed else 1 for _ in range(n)]
            others = ContributionProfile.from_columns("g", amounts, amounts.values(), signs)
            r = best_response_full(cit, "g", others, cfg)
            mine = ContributionProfile.from_columns(
                "g", [*amounts, "i"], [*amounts.values(), r.amount], [*signs, r.sign])
            sc = Scenario([cit] + [Citizen(o, {}) for o in amounts], ["g"], cfg)
            gain, best = brute_force_gain(sc, "g", mine, cit)
            assert gain <= 1e-9 * max(1.0, abs(best)), (trial, gain)


class TestObjective:
    """``_Objective`` on Python floats, against the retyped oracles."""

    RULES = {
        "PRIVATE": MechanismConfig.private(),
        "LINEAR_MATCH2.5": MechanismConfig.linear_match(2.5),
        "QF": MechanismConfig.qf(),
        "CQF0.3": MechanismConfig.cqf(0.3),
        "PM_QF": MechanismConfig.pm_qf(),
        "BETA1": MechanismConfig.beta_rule(1.0),
        "BETA1.7": MechanismConfig.beta_rule(1.7),
        "BETA2": MechanismConfig.beta_rule(2.0),
    }
    FAMILIES = {
        "SQRT": ValueFunction.sqrt(2.3),
        "LOG": ValueFunction.log(3.1),
        "ISOELASTIC": ValueFunction.isoelastic(2.2, 0.4),
        "SSHAPED": ValueFunction.sshaped(20.0, 0.5, 30.0),
        "outsider": None,
    }

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("rule", list(RULES))
    def test_utility_and_slope(self, rule, family, lam):
        cfg, vf = self.RULES[rule], self.FAMILIES[family]
        signed = cfg.variant.value == "PM_QF"
        amounts, signs = [2.0, 5.0, 0.5], [1, -1, 1] if signed else [1, 1, 1]
        others = ContributionProfile.from_columns("g", ["a", "b", "c"], amounts, signs)
        T_o, A_o = eq._aggregates_of(others, cfg.shape)
        s_o = math.fsum(s * math.sqrt(c) for c, s in zip(amounts, signs))
        Y_o = math.fsum(c ** (1.0 / cfg.beta) for c in amounts) if cfg.beta else 0.0

        def want(c, sign):
            F = float(oracle_funding(cfg, s_o, A_o, Y_o, c, sign))
            return float(oracle_value(vf, F)) - c - lam * (F - (A_o + c))

        def rounding_scale(c, sign):
            # the largest term of u, or how far one part in 1e15 of F moves V
            F = float(oracle_funding(cfg, s_o, A_o, Y_o, c, sign))
            moved = 0.0 if vf is None else abs(F * vf.marginal(F))
            return max(1.0, abs(float(oracle_value(vf, F))), c, lam * F, moved)

        for sign in (1, -1) if signed else (1,):
            obj = eq._Objective(vf, lam, cfg.shape, sign, T_o, A_o)
            assert obj.u0() == pytest.approx(want(0.0, sign), rel=1e-12, abs=1e-12)
            for c in (0.3, 4.0, 17.0):
                u = obj.u(c)
                assert type(u) is float
                assert u == pytest.approx(want(c, sign), rel=1e-12, abs=1e-12)
                # numpy's array powers may differ from Python's in the last
                # bit, so the two paths agree to the rounding of F and of u
                assert abs(u - float(obj.u(np.array([c]))[0])) \
                    <= 1e-15 * rounding_scale(c, sign)
                h = 1e-5 * c
                fd = (obj.u(c + h) - obj.u(c - h)) / (2.0 * h)
                assert obj.du(c) == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_geomspace_has_numpys_bits():
    rng = np.random.default_rng(20261019)
    for hi in np.concatenate([2.0 ** np.arange(0, 330, 7), 10.0 ** rng.uniform(0, 250, 60)]):
        for lo, num in ((1e-9, 256), (1e-9 * hi, 3000)):
            assert eq._geomspace(lo, float(hi), num).tobytes() == \
                np.geomspace(lo, float(hi), num).tobytes(), (lo, hi, num)
