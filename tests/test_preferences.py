import math

import numpy as np
import pytest

from qflab import (
    Citizen,
    Family,
    NoSolutionError,
    ValueFunction,
    aggregate_marginal,
    concavity_audit,
)


def fd_marginal(vf, F, h=None):
    h = h or 1e-5 * max(F, 1.0)
    return (vf.value(F + h) - vf.value(F - h)) / (2 * h)


def random_family(rng):
    fam = rng.integers(0, 4)
    a = float(rng.uniform(0.3, 8.0))
    if fam == 0:
        return ValueFunction.sqrt(a)
    if fam == 1:
        return ValueFunction.log(a)
    if fam == 2:
        return ValueFunction.isoelastic(a, float(rng.uniform(0.1, 0.9)))
    return ValueFunction.sshaped(a, float(rng.uniform(0.2, 3.0)),
                                 float(rng.uniform(1.0, 40.0)))


class TestValue:
    def test_examples(self):
        assert ValueFunction.sqrt(2).value(9) == 6
        assert ValueFunction.log(3).value(0) == 0
        assert ValueFunction.isoelastic(1, 0.5).value(4) == pytest.approx(2, rel=1e-15)

    def test_value_zero_normalization(self, rng):
        for _ in range(30):
            assert random_family(rng).value(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_increasing(self, rng):
        for _ in range(40):
            vf = random_family(rng)
            # logistic values saturate in float64 past ~30/k above the
            # inflection; sample where the increase is resolvable
            hi = min(100.0, vf.m + 25.0 / vf.k) if vf.family is Family.SSHAPED else 100.0
            f1, f2 = sorted(rng.uniform(0, hi, size=2))
            if f1 != f2:
                assert vf.value(f1) < vf.value(f2)

    def test_negative_funding_rejected(self):
        with pytest.raises(ValueError):
            ValueFunction.sqrt(1).value(-1)
        with pytest.raises(ValueError):
            ValueFunction.log(1).marginal(-0.5)

    def test_aversion_weight(self):
        # negative weight: decreasing value, still anchored at V(0)=0
        vf = ValueFunction.sqrt(-3)
        assert vf.value(0) == 0
        assert vf.value(4) == -6
        assert vf.marginal(4) == -0.75
        assert not vf.concave

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ValueFunction.sqrt(0)
        with pytest.raises(ValueError):
            ValueFunction.isoelastic(1, 1.0)
        with pytest.raises(ValueError):
            ValueFunction.sshaped(-1, 1, 5)
        with pytest.raises(ValueError):
            ValueFunction.sshaped(1, 0, 5)
        with pytest.raises(ValueError, match="rho only applies to ISOELASTIC"):
            ValueFunction(Family.SQRT, 1.0, rho=0.5)
        with pytest.raises(ValueError, match="k only applies to SSHAPED"):
            ValueFunction(Family.LOG, 1.0, k=0.5)
        with pytest.raises(ValueError, match="m only applies to SSHAPED"):
            ValueFunction(Family.ISOELASTIC, 1.0, rho=0.5, m=0.5)
        with pytest.raises(ValueError, match="ISOELASTIC requires rho"):
            ValueFunction(Family.ISOELASTIC, 1.0)


    @pytest.mark.parametrize("k, m", [(math.nan, 30.0), (0.5, math.nan), (math.inf, 30.0),
                                      (0.5, math.inf), (-0.5, 30.0), (0.5, 0.0)])
    def test_sshaped_k_and_m_must_be_positive_finite(self, k, m):
        # NaN once passed the k <= 0 and m <= 0 checks, and solving a good
        # with such a member raised IndexError
        with pytest.raises(ValueError, match="SSHAPED requires finite k > 0 and m > 0"):
            ValueFunction.sshaped(20.0, k, m)


class TestMarginal:
    def test_examples(self):
        assert ValueFunction.sqrt(2).marginal(9) == pytest.approx(1 / 3, rel=1e-15)
        assert ValueFunction.log(3).marginal(2) == 1.0
        # logistic derivative at the inflection is a*k/4
        assert ValueFunction.sshaped(1, 1, 5).marginal(5) == pytest.approx(0.25, rel=1e-12)

    def test_divergence_sentinel(self):
        assert ValueFunction.sqrt(2).marginal(0) == math.inf
        assert ValueFunction.isoelastic(2, 0.4).marginal(0) == math.inf
        assert ValueFunction.sqrt(-2).marginal(0) == -math.inf
        assert ValueFunction.log(3).marginal(0) == 3.0

    def test_matches_finite_differences(self, rng):
        for _ in range(60):
            vf = random_family(rng)
            F = float(rng.uniform(0.01, 120))
            assert vf.marginal(F) == pytest.approx(fd_marginal(vf, F), rel=1e-6)

    def test_array_evaluation(self):
        vf = ValueFunction.log(2)
        F = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(vf.marginal(F), [2.0, 1.0, 0.5])
        np.testing.assert_allclose(vf.value(F), 2 * np.log1p(F))


def same_bits(x, y):
    """Equal as IEEE doubles, sign of zero included; any NaN equals any NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def signed_families(rng):
    """Every family, with a negative weight on each concave one, and the
    ISOELASTIC exponent 0.5 that numpy takes to sqrt."""
    a = float(rng.uniform(0.3, 8.0))
    rho = float(rng.uniform(0.1, 0.9))
    vfs = [ValueFunction.sshaped(a, float(rng.uniform(0.2, 3.0)), float(rng.uniform(1.0, 40.0)))]
    for w in (a, -a):
        vfs += [ValueFunction.sqrt(w), ValueFunction.log(w),
                ValueFunction.isoelastic(w, rho), ValueFunction.isoelastic(w, 0.5)]
    return vfs


class TestFloatPath:
    """A float or int F is evaluated on Python floats; the results must be
    the bits the array path gives for np.asarray(F)."""

    EDGES = (0.0, -0.0, 5e-324, 1e-310, 1e-300, 1.0, math.inf, math.nan)

    def assert_matches_array_path(self, vf, F):
        for method in ("value", "marginal"):
            got = getattr(vf, method)(F)
            want = getattr(vf, method)(np.asarray(F, dtype=float))
            assert type(got) is float
            assert same_bits(got, want), (vf, method, F, got, want)

    def test_seeded_draws(self, rng):
        for _ in range(60):
            Fs = np.concatenate([np.exp(rng.uniform(-40.0, 40.0, 20)),
                                 rng.uniform(0.0, 100.0, 20)])
            for vf in signed_families(rng):
                for F in Fs.tolist():
                    self.assert_matches_array_path(vf, F)
                    self.assert_matches_array_path(vf, np.float64(F))

    def test_edge_cases(self, rng):
        for _ in range(5):
            for vf in signed_families(rng):
                for F in self.EDGES:
                    self.assert_matches_array_path(vf, F)
        for vf in (ValueFunction.sqrt(2.0), ValueFunction.isoelastic(-3.0, 0.3)):
            self.assert_matches_array_path(vf, 0)
            self.assert_matches_array_path(vf, 7)

    def test_sshaped_past_exp_range(self):
        # k*(F - m) runs from -1000 at F = 0 to +1000 at F = 200; the
        # logistic switches formula at k*(F - m) = -709, which F = 29.1 and
        # the float below it hit exactly and the float above it passes
        vf = ValueFunction.sshaped(3.0, 10.0, 100.0)
        Fs = (0.0, 1.0, 25.4, 25.5, 27.0, 29.0, 29.09, 29.099999999999998, 29.1,
              29.100000000000005, 29.11, 29.2, 29.3, 29.45, 29.5, 29.65, 29.7, 29.85,
              29.9, 30.0, 170.8, 170.9, 171.0, 200.0)
        for F in Fs:
            self.assert_matches_array_path(vf, F)
        for method in ("value", "marginal"):
            whole = getattr(vf, method)(np.array(Fs)).tolist()
            assert all(same_bits(getattr(vf, method)(F), w) for F, w in zip(Fs, whole))

    def test_expit_bits_do_not_depend_on_array_position(self, rng):
        # numpy's exp runs SIMD blocks and a masked tail: each element of
        # any length and alignment must carry the float path's bits
        from qflab.preferences import _expit, _expit_array
        special = np.array([-709.0, np.nextafter(-709.0, 0.0), np.nextafter(-709.0, -1e3),
                            -745.2, -1e3, 0.0, -0.0, 709.0, 1e3,
                            math.inf, -math.inf, math.nan])
        for n in range(1, 18):
            for offset in (0, 1, 3, 7):
                x = np.concatenate([rng.uniform(-40.0, 40.0, n), rng.uniform(-760.0, -660.0, n),
                                    rng.choice(special, n)])
                rng.shuffle(x)
                buf = np.zeros(offset + n)
                buf[offset:] = x[:n]
                for view in (buf[offset:], x[::3], x):
                    got = _expit_array(view).tolist()
                    assert all(same_bits(g, _expit(v)) for g, v in zip(got, view.tolist())), \
                        (n, offset, view)

    @pytest.mark.parametrize("F", [-1.0, -1, np.float64(-1.0), -5e-324])
    def test_negative_rejected_as_on_arrays(self, F):
        for vf in (ValueFunction.sqrt(1.0), ValueFunction.log(-1.0),
                   ValueFunction.isoelastic(1.0, 0.4), ValueFunction.sshaped(1.0, 1.0, 5.0)):
            for method in ("value", "marginal"):
                with pytest.raises(ValueError, match="funding level must be nonnegative"):
                    getattr(vf, method)(F)
                with pytest.raises(ValueError, match="funding level must be nonnegative"):
                    getattr(vf, method)(np.asarray(F, dtype=float))

    def test_member_marginals(self, rng):
        from qflab.equilibrium import _member_marginals

        def array_reference(vfs, F):
            # the per-member array evaluation, gathered on each call
            n = len(vfs)
            F = np.broadcast_to(np.asarray(F, dtype=float), (n,))
            out = np.empty(n)
            a = np.array([vf.a for vf in vfs])
            rho = np.array([vf.rho or 0.5 for vf in vfs])
            fam = [vf.family.value for vf in vfs]
            i = np.array([j for j in range(n) if fam[j] == "SQRT"], dtype=int)
            out[i] = a[i] / (2.0 * np.sqrt(np.maximum(F[i], 1e-300)))
            i = np.array([j for j in range(n) if fam[j] == "LOG"], dtype=int)
            out[i] = a[i] / (1.0 + F[i])
            i = np.array([j for j in range(n) if fam[j] == "ISOELASTIC"], dtype=int)
            out[i] = a[i] * rho[i] * np.maximum(F[i], 1e-300) ** (rho[i] - 1.0)
            return out

        for n in (1, 5, 40):
            vfs = [vf for _ in range(n) for vf in signed_families(rng)]
            sshaped = [j for j, vf in enumerate(vfs) if vf.family is Family.SSHAPED]
            marginals = _member_marginals(vfs)
            Fs = np.concatenate([self.EDGES, np.exp(rng.uniform(-40.0, 40.0, 30))])
            for F in Fs.tolist():
                got = marginals(F)
                want = array_reference(vfs, F)
                # the float path, which has the array path's bits
                want[sshaped] = [vfs[j].marginal(F) for j in sshaped]
                assert got.shape == want.shape == (len(vfs),)
                assert all(same_bits(x, y) for x, y in zip(got.tolist(), want.tolist())), F

    def test_member_marginals_by_level(self, rng):
        # the scan's (members, levels) array: column j is the float path at
        # level j. ISOELASTIC is left out: numpy may take another power loop
        # for a row of levels than for one level
        from qflab.equilibrium import _member_marginals

        for _ in range(5):
            vfs = [vf for _ in range(3) for vf in signed_families(rng)
                   if vf.family is not Family.ISOELASTIC]
            vfs.append(ValueFunction.sshaped(3.0, 10.0, 100.0))  # past exp's range
            marginals = _member_marginals(vfs)
            grid = np.concatenate([[0.0, -0.0, 5e-324, 1e-310, 1e-300, math.inf, math.nan],
                                   np.exp(rng.uniform(-40.0, 40.0, 200)),
                                   rng.uniform(0.0, 200.0, 200)])
            got = marginals(grid)
            assert got.shape == (len(vfs), len(grid))
            for j, F in enumerate(grid.tolist()):
                assert all(same_bits(x, y) for x, y in
                           zip(got[:, j].tolist(), marginals(F).tolist())), F


class TestInverseMarginal:
    def test_examples(self):
        assert ValueFunction.sqrt(2).inverse_marginal(1 / 3) == pytest.approx(9, rel=1e-12)
        assert ValueFunction.log(3).inverse_marginal(1) == pytest.approx(2, rel=1e-15)
        with pytest.raises(NoSolutionError):
            ValueFunction.log(3).inverse_marginal(4)

    def test_round_trip(self, rng):
        for _ in range(60):
            vf = random_family(rng)
            if vf.family is Family.SSHAPED:
                peak = vf.a * vf.k / 4
                m = float(rng.uniform(0.05, 0.999)) * peak
            elif vf.family is Family.LOG:
                m = float(rng.uniform(0.01, 0.999)) * vf.a
            else:
                m = float(rng.uniform(0.01, 5.0))
            F = vf.inverse_marginal(m)
            assert vf.marginal(F) == pytest.approx(m, rel=1e-8)

    def test_marginal_then_inverse(self, rng):
        # identity on the decreasing branch for concave families
        for _ in range(40):
            vf = random_family(rng)
            if vf.family is Family.SSHAPED:
                continue
            F = float(rng.uniform(0.05, 90))
            assert vf.inverse_marginal(vf.marginal(F)) == pytest.approx(F, rel=1e-8)

    def test_sshaped_inverts_decreasing_branch_only(self):
        vf = ValueFunction.sshaped(4, 1, 10)
        F = vf.inverse_marginal(0.3)
        assert F >= vf.m
        with pytest.raises(NoSolutionError):
            vf.inverse_marginal(vf.a * vf.k / 4 + 0.01)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            ValueFunction.sqrt(2).inverse_marginal(0.0)
        with pytest.raises(NoSolutionError):
            ValueFunction.sqrt(-2).inverse_marginal(1.0)


class TestAggregateMarginal:
    def test_examples(self):
        cits = [Citizen("a", {"g": ValueFunction.sqrt(2)}),
                Citizen("b", {"g": ValueFunction.sqrt(4)})]
        assert aggregate_marginal(cits, "g", 9) == pytest.approx(1.0, rel=1e-15)
        assert aggregate_marginal(cits, "g", 36) == pytest.approx(0.5, rel=1e-15)
        assert aggregate_marginal(cits[:1], "g", 9) == cits[0].values["g"].marginal(9)

    def test_sentinel_propagation(self):
        cits = [Citizen("a", {"g": ValueFunction.sqrt(2)}),
                Citizen("b", {"g": ValueFunction.log(1)})]
        assert aggregate_marginal(cits, "g", 0.0) == math.inf
        mixed = cits + [Citizen("h", {"g": ValueFunction.sqrt(-1)})]
        assert math.isnan(aggregate_marginal(mixed, "g", 0.0))

    def test_citizens_without_the_good_are_skipped(self):
        cits = [Citizen("a", {"g": ValueFunction.log(2)}), Citizen("b", {})]
        assert aggregate_marginal(cits, "g", 1.0) == 1.0


class TestConcavityAudit:
    def test_concave_families_never_flagged(self):
        grid = list(range(1, 101))
        assert concavity_audit(ValueFunction.sqrt(1), grid).concave_on_grid
        assert concavity_audit(ValueFunction.log(5), grid).concave_on_grid
        assert concavity_audit(ValueFunction.isoelastic(2, 0.7), grid).concave_on_grid

    def test_sshaped_flagged_below_inflection_only(self):
        vf = ValueFunction.sshaped(10, 1, 50)
        report = concavity_audit(vf, list(range(1, 101)))
        assert report.violations
        assert all(mid < 50 for _, mid, _ in report.violations)

    def test_degenerate_grid_rejected(self):
        vf = ValueFunction.sqrt(1)
        with pytest.raises(ValueError):
            concavity_audit(vf, [1, 2])
        with pytest.raises(ValueError):
            concavity_audit(vf, [1, 1, 2])

    def test_nonuniform_grid(self):
        vf = ValueFunction.sshaped(5, 0.5, 20)
        report = concavity_audit(vf, [0.5, 1, 3, 9, 15, 19, 26, 40, 80])
        assert all(mid < 20 for _, mid, _ in report.violations)
        assert report.violations  # convex region is visible on this grid


class TestCitizen:
    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            Citizen("a", {}, lam=-0.1)

    def test_value_lookup(self):
        vf = ValueFunction.sqrt(1)
        c = Citizen("a", {"g": vf})
        assert c.values.get("g") is vf
        assert c.values.get("other") is None
