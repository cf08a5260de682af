"""Brent's root finder (qflab._brent) against the results SciPy 1.17.1
gives for the same calls (``optimize.brentq`` with ``full_output=True``),
and the refined grid maximum (qflab.equilibrium._refine) against SciPy's
bounded minimiser (``minimize_scalar(method="bounded")``) on the same
functions, recorded as ``float.hex`` strings since SciPy is not a
dependency.

The test functions use only +, -, *, / and sqrt, which IEEE arithmetic
rounds correctly, so the recorded bits hold on any conforming platform.
"""

import math
import random

import numpy as np
import pytest

from qflab._brent import RTOL_MIN, brentq
from qflab.equilibrium import _refine

UNIT_ROOT_TOLS = (1e-300, 8.9e-16)   # the tolerances of equilibrium._unit_root


def _function(kind, p):
    """One seeded test function; p is a tuple of four uniforms in [0, 1)."""
    r = 8.0 * p[0] - 4.0            # a point of interest in [-4, 4)
    c = 0.05 + 2.0 * p[1]
    s = 0.1 + 10.0 * p[2]
    if kind == "linear":
        return lambda x: s * (x - r)
    if kind == "cubic":
        return lambda x: s * (x - r) * ((x - r) * (x - r) + c)
    if kind == "rational":
        return lambda x: s * (x - r) / (1.0 + c * x * x)
    if kind == "sqrt":
        # falls in x > 0, as the shares sum that _unit_root solves does
        return lambda x: s / math.sqrt(x) + c / (1.0 + x) - (s + c) / (1.0 + 4.0 * p[3])
    if kind == "tiny":
        return lambda x: 1e-200 * s * (x - r) * ((x - r) * (x - r) + c)
    if kind == "huge":
        return lambda x: 1e200 * s * (x - r) / (1.0 + c * x * x)
    if kind == "quartic":
        return lambda x: (x - r) * (x - r) * (1.0 + c * (x - r) * (x - r)) - s * x
    if kind == "kink":
        return lambda x: abs(x - r) + c * (x - r) * (x - r)
    if kind == "bumpy":
        # two wells; a bounded search can settle in either
        return lambda x: (x * x - c) * (x * x - c) + s * 0.1 * x
    raise AssertionError(kind)


def _slope(kind, p):
    """The derivative of _function(kind, p), for the kinds in MIN_KINDS."""
    r = 8.0 * p[0] - 4.0
    c = 0.05 + 2.0 * p[1]
    s = 0.1 + 10.0 * p[2]
    if kind == "cubic":
        return lambda x: s * (3.0 * (x - r) * (x - r) + c)
    if kind == "rational":
        return lambda x: s * (1.0 + c * x * x - 2.0 * c * x * (x - r)) / (
            (1.0 + c * x * x) * (1.0 + c * x * x))
    if kind == "quartic":
        return lambda x: 2.0 * (x - r) + 4.0 * c * (x - r) * (x - r) * (x - r) - s
    if kind == "kink":
        return lambda x: (0.0 if x == r else math.copysign(1.0, x - r)) + 2.0 * c * (x - r)
    if kind == "bumpy":
        return lambda x: 4.0 * x * (x * x - c) + s * 0.1
    raise AssertionError(kind)


ROOT_KINDS = ("linear", "cubic", "rational", "sqrt", "tiny", "huge")
MIN_KINDS = ("quartic", "kink", "bumpy", "rational", "cubic")


def root_cases():
    rng = random.Random(20261019)
    cases = []
    for i in range(48):
        kind = ROOT_KINDS[i % len(ROOT_KINDS)]
        p = tuple(rng.random() for _ in range(4))
        r = 8.0 * p[0] - 4.0
        if kind == "sqrt":
            # bracket as _unit_root does, between a power of two and its
            # double
            lo = 2.0 ** rng.randint(-2, 5)
            a, b = lo, 2.0 * lo
            while _function(kind, p)(b) > 0.0:
                a, b = b, 2.0 * b
            while _function(kind, p)(a) <= 0.0:
                a, b = a / 16.0, a
        else:
            a, b = r - 5.0 * rng.random() - 0.01, r + 5.0 * rng.random() + 0.01
            if rng.random() < 0.5:
                a, b = b, a
        xtol, rtol = UNIT_ROOT_TOLS if i % 2 == 0 else (
            rng.choice([2e-12, 1e-8, 5e-324]), rng.choice([RTOL_MIN, 1e-10]))
        cases.append((kind, p, a, b, xtol, rtol))
    return cases


def min_cases():
    rng = random.Random(20261020)
    cases = []
    for i in range(45):
        kind = MIN_KINDS[i % len(MIN_KINDS)]
        p = tuple(rng.random() for _ in range(4))
        lo = -6.0 + 5.0 * rng.random()
        hi = lo + 0.5 + 9.0 * rng.random()
        xatol = (1e-5, 1e-12, 1e-13 * max(1.0, hi))[i % 3]
        cases.append((kind, p, lo, hi, xatol, 500 if i % 9 else 6))
    return cases


def test_case_tables_are_complete():
    assert len(root_cases()) >= 40 and len(min_cases()) >= 40
    assert len(ROOTS) == len(root_cases())
    assert len(MINIMA) == len(min_cases())


@pytest.mark.parametrize("i", range(len(root_cases())))
def test_root_matches_recorded(i):
    kind, p, a, b, xtol, rtol = root_cases()[i]
    x, iterations = brentq(_function(kind, p), a, b, xtol, rtol)
    assert (x.hex(), iterations) == (float.fromhex(ROOTS[i][0]).hex(), ROOTS[i][1])


@pytest.mark.parametrize("i", range(len(min_cases())))
def test_minimum_matches_recorded(i):
    # the best of a 257-point grid, moved to the root of the slope beside
    # it, is no worse than the bounded search's minimum; it is better where
    # that search stopped early (maxiter 6, xatol 1e-5), settled in the
    # higher of bumpy's wells or stopped short of the end a cubic falls to
    kind, p, lo, hi, xatol, maxiter = min_cases()[i]
    f = _function(kind, p)
    slope = _slope(kind, p)
    grid = np.linspace(lo, hi, 257)
    x = _refine(lambda x: -slope(x), grid, int(np.argmax([-f(x) for x in grid])))
    f_recorded = float.fromhex(MINIMA[i][1])
    assert lo <= x <= hi
    assert f(x) <= f_recorded + 1e-15 * max(1.0, abs(f_recorded))


def test_an_end_at_a_root_takes_no_iteration():
    assert brentq(lambda x: x - 1.0, 1.0, 2.0, 2e-12, RTOL_MIN) == (1.0, 0)
    assert brentq(lambda x: x - 2.0, 1.0, 2.0, 2e-12, RTOL_MIN) == (2.0, 0)


class TestRootErrors:
    def test_nan_at_an_end(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x < 0 else x, -1.0, 1.0, 2e-12, RTOL_MIN)

    def test_nan_inside_the_bracket(self):
        # finite at both ends, NaN at the first interior step
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: x - 0.3 if x in (-1.0, 1.0) else math.nan,
                   -1.0, 1.0, 2e-12, RTOL_MIN)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_same_sign(self, sign):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: sign * (x * x + 1.0), -1.0, 2.0, 2e-12, RTOL_MIN)

    @pytest.mark.parametrize("xtol, rtol", [(0.0, RTOL_MIN), (-1.0, RTOL_MIN),
                                            (math.nan, RTOL_MIN), (2e-12, 1e-16),
                                            (2e-12, math.nan)])
    def test_tolerance_too_small(self, xtol, rtol):
        with pytest.raises(ValueError, match="too small"):
            brentq(lambda x: x, -1.0, 2.0, xtol, rtol)

    def test_negative_maxiter(self):
        with pytest.raises(ValueError, match="maxiter"):
            brentq(lambda x: x, -1.0, 2.0, 2e-12, RTOL_MIN, maxiter=-1)

    @pytest.mark.parametrize("maxiter", [0, 3])
    def test_maxiter_reached(self, maxiter):
        with pytest.raises(RuntimeError, match=f"after {maxiter} iterations"):
            brentq(lambda x: x * x * x - 2.0, 0.0, 4.0, 1e-300, RTOL_MIN, maxiter=maxiter)


# (root, iterations) per root_cases() entry
ROOTS = [
    ("0x1.6c194aa53da50p-1", 2), ("-0x1.72e8f87f4a824p+1", 8), ("-0x1.14c4bc4630518p+1", 7),
    ("0x1.da20a263224adp+3", 7), ("0x1.bd5205caac5ffp+1", 20), ("0x1.68c22d36d73a0p-2", 21),
    ("-0x1.f9fd2be710168p-1", 2), ("0x1.826dd5f924e7fp+1", 7), ("0x1.576e3715efd20p-3", 8),
    ("0x1.078f4761cd8c6p+3", 6), ("-0x1.fa0a6c24eeb88p+0", 18), ("-0x1.67353c2798becp+1", 17),
    ("-0x1.295cf5c97c094p+0", 2), ("-0x1.1dd13cec15b40p+1", 11), ("-0x1.403c98c997860p-2", 10),
    ("0x1.117f6e33ae533p-1", 6), ("-0x1.8d9cf9c88aab8p+1", 18), ("-0x1.4d7022ca8b386p-1", 19),
    ("-0x1.4e71cfc517480p+1", 2), ("-0x1.9d91d072cbdecp+1", 11), ("-0x1.b7d22505c2df8p-1", 9),
    ("0x1.8381df31de337p+2", 7), ("0x1.b139e960cef70p-1", 18), ("0x1.c3f988a6f4501p+1", 20),
    ("0x1.630f58901b958p+0", 3), ("0x1.cbf24f58e8934p+0", 11), ("-0x1.487ca2068b484p+0", 9),
    ("0x1.ea8f1f8b15f3dp+3", 7), ("0x1.aca9fb56f088cp+1", 18), ("-0x1.a9c71bf7c7e60p+0", 22),
    ("0x1.12d0a4077abb8p-1", 2), ("-0x1.e6fc77a111b84p+0", 7), ("0x1.786f7f5e05576p+1", 7),
    ("0x1.03f9dd0d8ef5bp+3", 7), ("0x1.1a52124b5dfb0p-2", 20), ("-0x1.f9f69ffb1cb27p+1", 16),
    ("0x1.25c06826e32d2p+1", 2), ("-0x1.3992bf3df0ad8p+1", 11), ("0x1.9a9c5a4b3bd00p-1", 8),
    ("0x1.37e855d7d0a98p+3", 7), ("0x1.676447fd366b4p+0", 18), ("0x1.5655c4eab4c58p-1", 16),
    ("-0x1.abbada93ce684p+1", 2), ("-0x1.62b135ea764b6p+1", 7), ("-0x1.0539670e9d310p+1", 11),
    ("0x1.db910c3432c50p+2", 6), ("0x1.ba2ecc0083434p+1", 16), ("-0x1.79eed8652fa8ap-3", 19),
]

# (x, f(x)) per min_cases() entry
MINIMA = [
    ("0x1.9bb21aa1a2708p+0", "-0x1.9957d85313855p+3"), ("-0x1.ba6e4b6ca5240p+1", "0x1.dd86506198d56p+2"),
    ("-0x1.32fce89ed2d45p+0", "-0x1.106d9b9641c18p-2"), ("-0x1.968f82bc1e5e3p-2", "-0x1.1d646376f16c2p+3"),
    ("-0x1.0189bd85c0990p+1", "-0x1.6c52c2efa87a2p+8"), ("-0x1.057f4a1ecd23fp+0", "0x1.1e086477981abp+5"),
    ("-0x1.27c26a75255f1p+2", "0x1.16eb8d074f0a7p+5"), ("-0x1.5f408c4a72b1fp-1", "-0x1.18821ca94e159p-4"),
    ("-0x1.00f368d414754p+1", "-0x1.225e4888ee592p+0"), ("-0x1.aec712d3cd52ep+1", "-0x1.d8ae0291fb5d3p+2"),
    ("0x1.ffe43c47a6ffap-1", "-0x1.20b6e26870bc1p+2"), ("0x1.7ab6f555949d7p+0", "0x1.b2cf9cea13f2ep-27"),
    ("-0x1.92c6340fb7efdp+0", "0x1.3117e5e1f2769p-1"), ("0x1.f7f85c2523227p+1", "0x1.0021ed8c6e26bp+1"),
    ("-0x1.6de2d2092dc4bp+1", "-0x1.48949e8a56ce0p+7"), ("0x1.791517c595df2p-1", "0x1.da19aec679e80p+1"),
    ("0x1.5f8610d8532ccp-1", "0x1.15f36400eb30dp-29"), ("-0x1.7b02a7dd862a0p+1", "0x1.ae6077cd90412p+5"),
    ("-0x1.2015bd7298ae6p+0", "-0x1.d7741c7a142fbp+1"), ("-0x1.e8d2c8df781a0p+0", "0x1.09542d237924bp+2"),
    ("-0x1.ff81b5fde3eebp-1", "0x1.3191beb7fcabap+3"), ("-0x1.e4151c5ded7cdp-3", "0x1.2d9a86fb3e95ep+0"),
    ("-0x1.62aa011cfe690p+0", "-0x1.4ccadf7427e12p+0"), ("-0x1.1dac2d140e0cap+1", "-0x1.2a89565ba9a11p+1"),
    ("-0x1.45c126d1bedb5p+0", "-0x1.bbcc671545b0fp+3"), ("-0x1.5f66a1916612ap+0", "0x1.3e0c6d90b7292p+3"),
    ("-0x1.0c3c4b44d515ap+1", "0x1.743370425c8d6p-4"), ("0x1.4789997146bdap+0", "0x1.31c91b2f1545dp+0"),
    ("0x1.f7aeb91128925p+1", "0x1.f9eabada7c687p+1"), ("-0x1.318a83cd7fca7p+2", "-0x1.0cb8ef217d2f1p+11"),
    ("-0x1.2adaa316fc15dp+1", "0x1.47ad58b4a2406p+1"), ("-0x1.f1d0d71128115p+1", "0x1.a61348dc7cd36p+5"),
    ("-0x1.2b0ed24c3c458p+0", "-0x1.6d7a55ba416efp-2"), ("-0x1.6be87dc0c037cp+2", "-0x1.285258e6c07f1p-1"),
    ("-0x1.676ec2936eb74p+2", "-0x1.3b46d9bdbc4e7p+11"), ("-0x1.0160dfa798abep+1", "0x1.d25755f01281ep+3"),
    ("-0x1.26dd2d1e0593ap+0", "0x1.541a9bdcb1ff1p-1"), ("0x1.43276e9b3068fp+0", "0x1.b85ca35dd5f87p-1"),
    ("-0x1.64d741e756214p-1", "-0x1.51863b4f53304p+3"), ("-0x1.5e5d3aa06a37cp+1", "-0x1.d8039268add62p+9"),
    ("0x1.548b5a0eb7c52p-3", "0x1.bbf7afda472cdp+4"), ("-0x1.826375006affap+0", "0x1.fa6d843174331p-29"),
    ("-0x1.a4e16f649dd86p-1", "-0x1.3bfbbdcdc683fp-2"), ("-0x1.0387fe03acefdp-1", "-0x1.2cb92d99ec8d5p+3"),
    ("-0x1.29077be4e9804p+1", "0x1.4ca0c63a6a48fp+3"),
]
