import math

import pytest

from qflab import (
    Contribution,
    ContributionProfile,
    DivergentGradientError,
    FundingOutcome,
    MechanismConfig,
    PolicyError,
    Variant,
    evaluate_outcome,
    fund,
    fund_beta,
    fund_cqf,
    fund_linear_match,
    fund_pm_qf,
    fund_private,
    fund_qf,
    funding_gradient,
    settle_deficit,
)
from qflab.scenario_io import parse_contributions_csv


def profile(amounts, signs=None, good="g"):
    return ContributionProfile.from_amounts(good, amounts, signs)


def fd_gradient(fund_fn, amounts, cid, h=1e-6):
    """Central finite-difference oracle for dF/dc."""
    up = dict(amounts)
    dn = dict(amounts)
    step = h * max(amounts[cid], 1.0)
    up[cid] += step
    dn[cid] -= step
    return (fund_fn(profile(up)) - fund_fn(profile(dn))) / (2 * step)


class TestRuleValues:
    def test_private(self):
        assert fund_private(profile([1, 2, 3])) == 6
        assert fund_private(profile([])) == 0
        assert fund_private(profile([5])) == 5

    def test_linear_match(self):
        assert fund_linear_match(profile([1, 2, 3]), 2) == 12
        assert fund_linear_match(profile([4]), 1) == 4
        assert fund_linear_match(profile([]), 3) == 0

    def test_qf(self):
        # single contributor funds at exactly the contribution
        assert fund_qf(profile([7.3])) == 7.3
        # N equal unit contributions fund at N**2
        assert fund_qf(profile([1.0] * 12)) == 144
        assert fund_qf(profile([1, 4])) == 9

    def test_cqf(self):
        assert fund_cqf(profile([1, 4]), 1.0) == 9
        with pytest.raises(ValueError, match="alpha in"):
            fund_cqf(profile([1, 4]), 0.0)  # as MechanismConfig.cqf(0.0)
        # 100 identities of 1000: 0.1*(100*sqrt(1000))**2 + 0.9*100000
        got = fund_cqf(profile([1000.0] * 100), 0.1)
        assert got == pytest.approx(1_090_000.0, rel=1e-12)

    def test_pm_qf(self):
        assert fund_pm_qf(profile({"a": 4, "b": 4}, {"b": -1})) == 0
        assert fund_pm_qf(profile({"a": 9, "b": 1}, {"b": -1})) == 4
        assert fund_pm_qf(profile([1, 4])) == fund_qf(profile([1, 4]))

    def test_beta(self):
        assert fund_beta(profile([1, 8]), 3) == pytest.approx(27, rel=1e-12)
        assert fund_beta(profile([1, 4]), 2) == pytest.approx(9, rel=1e-12)
        assert fund_beta(profile([1, 2, 3]), 1) == 6

    def test_zero_entries_dropped(self):
        with_zero = profile({"a": 1.0, "b": 0.0, "c": 4.0})
        without = profile({"a": 1.0, "c": 4.0})
        for fn in (fund_private, fund_qf, fund_pm_qf):
            assert fn(with_zero) == fn(without)
        assert fund_cqf(with_zero, 0.3) == fund_cqf(without, 0.3)
        assert fund_beta(with_zero, 1.7) == fund_beta(without, 1.7)


class TestPolicyAndValidation:
    def test_negative_sign_rejected_outside_pm(self):
        p = profile({"a": 1, "b": 4}, {"b": -1})
        for fn in (fund_private, fund_qf):
            with pytest.raises(PolicyError):
                fn(p)
        with pytest.raises(PolicyError):
            fund_cqf(p, 0.5)
        with pytest.raises(PolicyError):
            fund_beta(p, 2)
        with pytest.raises(PolicyError):
            fund_linear_match(p, 2)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            fund_linear_match(profile([1]), 0.5)
        with pytest.raises(ValueError):
            fund_cqf(profile([1]), 1.5)
        with pytest.raises(ValueError):
            fund_cqf(profile([1]), -0.1)
        with pytest.raises(ValueError):
            fund_beta(profile([1]), 0.9)

    def test_profile_invariants(self):
        with pytest.raises(ValueError):
            Contribution("a", -1.0)
        with pytest.raises(ValueError):
            Contribution("a", 1.0, sign=2)
        with pytest.raises(ValueError):
            ContributionProfile("g", (Contribution("a", 1), Contribution("a", 2)))

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            MechanismConfig.cqf(0.0)  # config range is strict
        # choosing PM_QF is the opt-in to negative-sign contributions
        signed = profile({"a": 9, "b": 1}, {"b": -1})
        assert fund(signed, MechanismConfig(Variant.PM_QF)) == 4
        with pytest.raises(ValueError):
            MechanismConfig(Variant.QF, alpha=0.5)
        with pytest.raises(PolicyError):
            fund(profile([1]), MechanismConfig.one_p_one_v())
        # an infinite beta or scale once passed, and funded 1 and 4 at inf
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite beta"):
                MechanismConfig.beta_rule(bad)
            with pytest.raises(ValueError, match="finite scale"):
                MechanismConfig.linear_match(bad)


class TestProfileContract:
    """Every way of building a profile ends in the same columns and the same
    validation, and ``entries`` is the same data as Contribution objects."""

    AMOUNTS = {"b": 4.0, "a": 1.0, "c": 0.0, "d": 2.25}
    SIGNS = {"a": -1}

    def test_every_constructor_gives_the_same_profile(self):
        entries = tuple(Contribution(cid, x, self.SIGNS.get(cid, 1))
                        for cid, x in self.AMOUNTS.items())
        from_entries = ContributionProfile("g", entries)
        from_amounts = ContributionProfile.from_amounts("g", self.AMOUNTS, self.SIGNS)
        from_columns = ContributionProfile.from_columns(
            "g", list(self.AMOUNTS), list(self.AMOUNTS.values()), [1, -1, 1, 1])
        parsed, = parse_contributions_csv(
            "citizen_id,good_id,amount,sign\nb,g,4,+1\na,g,1,-1\nc,g,0,\nd,g,2.25\n")
        for other in (from_amounts, from_columns, parsed):
            assert other == from_entries
            assert hash(other) == hash(from_entries)
            assert repr(other) == repr(from_entries)
            assert other.entries == entries
        assert from_entries.citizen_ids == ("b", "a", "c", "d")
        assert from_entries.amounts == (4.0, 1.0, 0.0, 2.25)
        assert from_entries.signs == (1, -1, 1, 1)
        assert from_entries != ContributionProfile.from_amounts("g", self.AMOUNTS)
        assert from_entries != ContributionProfile.from_amounts("h", self.AMOUNTS, self.SIGNS)

    def test_get_finds_present_zero_and_absent_ids(self):
        p = ContributionProfile.from_columns("g", ["z", "a", "m"], [3.0, 0.0, 2.0], [1, -1, 1])
        assert p.total() == 5.0 and len(p.entries) == 3
        assert "_index" not in p.__dict__
        assert p.get("z") == Contribution("z", 3.0)
        assert p.get("a") == Contribution("a", 0.0, -1)
        assert p.get("absent") is None
        assert p.get("m") == Contribution("m", 2.0)

    def test_entries_keep_input_order_as_contributions(self):
        p = ContributionProfile.from_columns("g", ["z", "a", "m"], [3.0, 1.0, 2.0], [1, -1, 1])
        assert all(type(e) is Contribution for e in p.entries)
        assert [(e.citizen_id, e.amount, e.sign) for e in p.entries] == [
            ("z", 3.0, 1), ("a", 1.0, -1), ("m", 2.0, 1)]
        assert p.entries is p.entries  # built once, then cached
        assert p.nonzero() == p.entries
        assert len(p) == 3

    def test_get_uses_the_index(self):
        n = 10_000
        p = ContributionProfile.from_amounts("g", [1.0 + i for i in range(n)])
        assert "_index" not in p.__dict__  # built on the first get(), not kept before
        assert p.get(f"c{n - 1}") == Contribution(f"c{n - 1}", float(n))
        assert "_index" in p.__dict__
        assert p.get("c0") == Contribution("c0", 1.0)
        assert p.get("absent") is None
        assert p.get(f"c{n}") is None

    @pytest.mark.parametrize("build, message", [
        (lambda: ContributionProfile("g", (Contribution("a", 1), Contribution("a", 2))),
         "duplicate contribution by citizen 'a'"),
        (lambda: ContributionProfile.from_amounts("g", {1: 1.0, "1": 2.0}),
         "duplicate contribution by citizen '1'"),
        (lambda: ContributionProfile.from_columns("g", ["a", "b", "a"], [1.0, 2.0, 3.0]),
         "duplicate contribution by citizen 'a'"),
        (lambda: ContributionProfile.from_amounts("g", [1.0, math.nan]),
         "amount must be a finite nonnegative real, got nan"),
        (lambda: ContributionProfile.from_amounts("g", [1.0, -2.0, math.nan]),
         "amount must be a finite nonnegative real, got -2.0"),
        (lambda: ContributionProfile.from_amounts("g", [math.inf]),
         "amount must be a finite nonnegative real, got inf"),
        (lambda: ContributionProfile.from_amounts("g", {"a": 1.0, "b": 2.0}, {"b": 0}),
         "sign must be +1 or -1, got 0"),
        (lambda: Contribution("a", math.nan), "amount must be a finite nonnegative real, got nan"),
        (lambda: Contribution("a", -1.0), "amount must be a finite nonnegative real, got -1.0"),
        (lambda: Contribution("a", 1.0, 0), "sign must be +1 or -1, got 0"),
        (lambda: ContributionProfile.from_columns("g", ["a"], [1.0, 2.0]),
         "citizen_ids, amounts and signs differ in length"),
    ])
    def test_invalid_entries_rejected_with_the_same_messages(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_entry_errors_come_before_duplicates(self):
        with pytest.raises(ValueError, match="got -1.0"):
            ContributionProfile.from_columns("g", ["a", "a", "b"], [1.0, 1.0, -1.0])

    def test_rules_equal_a_loop_over_the_nonzero_entries(self, rng):
        """Bit-identical to each rule written as a loop over the nonzero
        entries, as the rules read before they ran on the columns."""
        def nonzero(p):
            return [e for e in p.entries if e.amount > 0]

        def qf(p, signed=False):
            es = nonzero(p)
            if len(es) == 1:
                return es[0].amount
            s = math.fsum((e.sign if signed else 1) * math.sqrt(e.amount) for e in es)
            return s * s

        def beta(p, b):
            es = nonzero(p)
            if len(es) == 1:
                return es[0].amount
            return math.fsum(e.amount ** (1.0 / b) for e in es) ** b

        for _ in range(200):
            n = int(rng.integers(0, 12))
            amounts = rng.uniform(0.0, 50.0, n) * (rng.uniform(size=n) < 0.7)
            signs = rng.choice([-1, 1], n).tolist()
            p = ContributionProfile.from_columns("g", [f"c{i}" for i in range(n)],
                                                 amounts.tolist())
            signed = ContributionProfile.from_columns("g", p.citizen_ids, p.amounts, signs)
            private = math.fsum(e.amount for e in nonzero(p))
            assert fund_private(p) == private
            assert fund_linear_match(p, 2.5) == 2.5 * private
            assert fund_qf(p) == qf(p)
            assert fund_pm_qf(signed) == qf(signed, signed=True)
            assert fund_beta(p, 1.7) == beta(p, 1.7)
            cqf = nonzero(p)[0].amount if len(nonzero(p)) == 1 else \
                0.3 * qf(p) + (1.0 - 0.3) * private
            assert fund_cqf(p, 0.3) == cqf

    def test_finite_amounts_whose_sum_overflows_are_rejected(self):
        # every rule sums the amounts, in A or in the deficit, so no rule can
        # fund such a profile
        for build in (lambda: ContributionProfile.from_amounts("g", [1e308, 1e308]),
                      lambda: ContributionProfile("g", [Contribution("a", 1e308),
                                                        Contribution("b", 1e308)])):
            with pytest.raises(ValueError, match="amounts sum past the float range"):
                build()
        assert profile([1e308, 7.9e307]).total() < math.inf

    @pytest.mark.parametrize("config", [
        MechanismConfig.qf(), MechanismConfig.cqf(0.5), MechanismConfig.linear_match(2.0),
        MechanismConfig.beta_rule(1.5), MechanismConfig.pm_qf(),
    ], ids=lambda c: c.variant.value)
    def test_funding_past_the_float_range_raises(self, config):
        # the amounts sum to 1e308, inside the range; the funding does not
        with pytest.raises(ValueError, match=f"{config.variant.value} funding overflows"):
            fund(profile([1e307] * 10), config)

    def test_private_funding_of_a_finite_sum_is_finite(self):
        assert fund(profile([1e307] * 10), MechanismConfig.private()) == \
            math.fsum([1e307] * 10)


class TestGradient:
    def test_qf_examples(self):
        cfg = MechanismConfig.qf()
        p = profile([1.0] * 4)
        assert funding_gradient(p, cfg, "c0") == 4.0
        # {1,4}, citizen with c=4: (1+2)/2 = 1.5, checked against FD oracle
        p2 = profile({"a": 1.0, "b": 4.0})
        assert funding_gradient(p2, cfg, "b") == 1.5
        assert fd_gradient(fund_qf, {"a": 1.0, "b": 4.0}, "b") == pytest.approx(1.5, rel=1e-6)

    def test_cqf_single_contributor(self):
        got = funding_gradient(profile({"a": 3.0}), MechanismConfig.cqf(0.1), "a")
        assert got == pytest.approx(1.0, rel=1e-15)

    def test_divergence_at_zero(self):
        p = profile({"a": 0.0, "b": 4.0})
        for cfg in (MechanismConfig.qf(), MechanismConfig.cqf(0.5),
                    MechanismConfig.beta_rule(2.5), MechanismConfig.pm_qf()):
            with pytest.raises(DivergentGradientError):
                funding_gradient(p, cfg, "a")
        # linear rules stay finite at zero
        assert funding_gradient(p, MechanismConfig.private(), "a") == 1.0
        assert funding_gradient(p, MechanismConfig.linear_match(3), "a") == 3.0
        assert funding_gradient(p, MechanismConfig.beta_rule(1.0), "a") == 1.0

    def test_missing_citizen(self):
        with pytest.raises(ValueError):
            funding_gradient(profile({"a": 1.0}), MechanismConfig.qf(), "nobody")

    def test_all_variants_match_finite_differences(self, rng):
        fns = {
            Variant.PRIVATE: (MechanismConfig.private(), fund_private),
            Variant.LINEAR_MATCH: (MechanismConfig.linear_match(2.5),
                                   lambda p: fund_linear_match(p, 2.5)),
            Variant.QF: (MechanismConfig.qf(), fund_qf),
            Variant.CQF: (MechanismConfig.cqf(0.3), lambda p: fund_cqf(p, 0.3)),
            Variant.BETA: (MechanismConfig.beta_rule(1.6),
                           lambda p: fund_beta(p, 1.6)),
        }
        for _ in range(25):
            n = int(rng.integers(1, 7))
            amounts = {f"c{i}": float(rng.uniform(0.1, 50)) for i in range(n)}
            target = f"c{int(rng.integers(0, n))}"
            for cfg, fn in fns.values():
                grad = funding_gradient(profile(amounts), cfg, target)
                assert grad == pytest.approx(fd_gradient(fn, amounts, target),
                                             rel=1e-6)

    def test_pm_gradient_matches_finite_differences(self, rng):
        cfg = MechanismConfig.pm_qf()
        for _ in range(25):
            n = int(rng.integers(2, 7))
            amounts = {f"c{i}": float(rng.uniform(0.5, 20)) for i in range(n)}
            signs = {f"c{i}": int(rng.choice([-1, 1])) for i in range(n)}

            def fpm(amts, signs=signs):
                return fund_pm_qf(profile(amts, signs))

            target = f"c{int(rng.integers(0, n))}"
            up, dn = dict(amounts), dict(amounts)
            h = 1e-6 * max(amounts[target], 1.0)
            up[target] += h
            dn[target] -= h
            fd = (fpm(up) - fpm(dn)) / (2 * h)
            got = funding_gradient(profile(amounts, signs), cfg, target)
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestStructuralIdentities:
    def test_homogeneity_degree_one(self, rng):
        evaluators = [
            fund_private,
            lambda p: fund_linear_match(p, 3.0),
            fund_qf,
            lambda p: fund_cqf(p, 0.37),
            fund_pm_qf,
            lambda p: fund_beta(p, 2.6),
        ]
        for _ in range(40):
            n = int(rng.integers(1, 9))
            amounts = {f"c{i}": float(rng.uniform(0.01, 100)) for i in range(n)}
            signs = {f"c{i}": int(rng.choice([-1, 1])) for i in range(n)}
            k = float(rng.uniform(0.01, 50))
            for fn in evaluators:
                base = fn(profile(amounts, signs)) if fn is fund_pm_qf \
                    else fn(profile(amounts))
                scaled_amounts = {c: k * a for c, a in amounts.items()}
                scaled = fn(profile(scaled_amounts, signs)) if fn is fund_pm_qf \
                    else fn(profile(scaled_amounts))
                assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_community_size_squared_exact(self):
        # exact for amounts with exactly representable square roots
        for x in (1.0, 4.0, 2.25, 0.0625):
            for n in (1, 2, 3, 7, 25, 50):
                assert fund_qf(profile([x] * n)) == n * n * x

    def test_splitting_quarter_rule_exact(self):
        for x in (1.0, 2.0, 3.7, 10.0):
            for m in (2, 5, 9):
                joint = fund_qf(profile([x] * (2 * m)))
                half = fund_qf(profile([x] * m))
                assert 4 * half == joint
        # m=1 halves are singletons, which fund at exactly x; the quarter
        # relation is then exact only for exactly representable roots
        for x in (1.0, 4.0, 2.25):
            assert 4 * fund_qf(profile([x])) == fund_qf(profile([x, x]))
        assert 4 * fund_qf(profile([3.7])) == pytest.approx(
            fund_qf(profile([3.7, 3.7])), rel=1e-12)

    def test_family_nesting(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 8))
            amounts = [float(rng.uniform(0.01, 80)) for _ in range(n)]
            p = profile(amounts)
            assert fund_beta(p, 2.0) == pytest.approx(fund_qf(p), rel=1e-12)
            assert fund_beta(p, 1.0) == pytest.approx(fund_private(p), rel=1e-12)
            assert fund_cqf(p, 1.0) == fund_qf(p)  # identical arithmetic path

    def test_funding_nonnegative_under_every_variant(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 8))
            amounts = {f"c{i}": float(rng.uniform(0, 30)) for i in range(n)}
            signs = {f"c{i}": int(rng.choice([-1, 1])) for i in range(n)}
            assert fund_pm_qf(profile(amounts, signs)) >= 0.0
            assert fund_qf(profile(amounts)) >= 0.0


class TestOutcomeAndTaxes:
    def test_qf_outcome(self):
        out = evaluate_outcome([profile([1.0, 1.0])], MechanismConfig.qf(), 4)
        assert out.funding["g"] == 4.0
        assert out.deficit == 2.0
        assert out.per_capita_tax == 0.5
        assert settle_deficit(out, 4) == [0.5, 0.5, 0.5, 0.5]

    def test_zero_contributions(self):
        out = evaluate_outcome([profile([])], MechanismConfig.qf(), 3)
        assert out.deficit == 0.0
        assert settle_deficit(out, 3) == [0.0, 0.0, 0.0]

    def test_cqf_outcome(self):
        out = evaluate_outcome([profile([100.0, 100.0])],
                               MechanismConfig.cqf(0.1), 10)
        assert out.funding["g"] == pytest.approx(220.0, rel=1e-14)
        assert out.deficit == pytest.approx(20.0, rel=1e-13)
        taxes = settle_deficit(out, 10)
        assert taxes == pytest.approx([2.0] * 10, rel=1e-12)

    def test_deficit_identity_exact(self, rng):
        for _ in range(20):
            profs = [profile([float(rng.uniform(0, 9))
                              for _ in range(int(rng.integers(1, 6)))], good=f"g{j}")
                     for j in range(int(rng.integers(1, 4)))]
            out = evaluate_outcome(profs, MechanismConfig.qf(), 5)
            recomputed = math.fsum(out.funding.values()) - math.fsum(
                p.total() for p in profs)
            assert out.deficit == recomputed

    def test_largest_remainder_sums_exactly(self):
        out = FundingOutcome({"g": 1.0}, 1.0, 1.0 / 3)
        taxes = settle_deficit(out, 3, minor_unit=0.01)
        assert taxes == [0.34, 0.33, 0.33]
        units = [round(t / 0.01) for t in taxes]
        assert sum(units) == 100

    def test_largest_remainder_negative_deficit(self):
        # PM_QF can rebate; the split still sums to the quantized deficit
        out = FundingOutcome({"g": 0.0}, -1.0, -0.25)
        taxes = settle_deficit(out, 4, minor_unit=0.01)
        assert sum(round(t / 0.01) for t in taxes) == -100
        assert all(t <= 0 for t in taxes)

    def test_settle_rejects_empty_population(self):
        out = FundingOutcome({"g": 1.0}, 1.0, 1.0)
        with pytest.raises(ValueError):
            settle_deficit(out, 0)
        with pytest.raises(ValueError):
            evaluate_outcome([profile([1])], MechanismConfig.qf(), 0)

    def test_funding_summed_over_goods_past_the_float_range_raises(self):
        profs = [profile([1e308], good="g"), profile([1e308], good="h")]
        with pytest.raises(ValueError, match="overflows the float range"):
            evaluate_outcome(profs, MechanismConfig.private(), 2)

    def test_settle_rejects_a_deficit_past_the_range_in_minor_units(self):
        # 9e300 / 1e-9 is inf; rounding it once raised OverflowError
        out = evaluate_outcome([profile([1e299] * 10)], MechanismConfig.qf(), 10)
        with pytest.raises(ValueError, match="overflows the float range"):
            settle_deficit(out, 10)
