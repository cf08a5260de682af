"""Brent's root finder and bounded minimiser on Python floats.

Both follow Brent, *Algorithms for Minimization without Derivatives*
(Prentice-Hall, 1973): ``brentq`` is the zero finder of chapter 4 as
SciPy's ``optimize.brentq`` (its C ``brentq``) writes it, and
``fminbound`` is the bounded minimiser of chapter 5 as SciPy's
``minimize_scalar(method="bounded")`` writes it. Each keeps that code's
arithmetic in the same order, so every iterate carries the same bits, and
each keeps its failure behaviour; tests/test_brent.py pins both to SciPy's
results.
"""

from __future__ import annotations

import math

# the smallest relative tolerance brentq accepts: 4 ulps at 1
RTOL_MIN = 4.0 * 2.220446049250313e-16

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def brentq(f, a, b, xtol, rtol, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, and the
    number of iterations taken.

    Stops when half the bracket is below (xtol + rtol*|x|)/2. Raises
    ValueError on a NaN value of f, on ends of the same sign and on
    xtol <= 0, rtol < RTOL_MIN or maxiter < 0; RuntimeError when maxiter
    iterations do not converge.
    """
    if not xtol > 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if not rtol >= RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    if not maxiter >= 0:
        raise ValueError("maxiter must be >= 0")

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"the function value at x={x} is NaN; the solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    # an end at a root takes no iteration (SciPy leaves its count unset)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for i in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's division gives inf or nan here, which then bisects
                pass
            else:
                if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                    # good short step
                    spre, scur = scur, stry
                    bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations")


def fminbound(func, lo, hi, xatol, maxiter=500):
    """(x, func(x)) at a local minimum of func on [lo, hi].

    Golden-section search with parabolic steps, stopping when x is known to
    within 2*(sqrt(2.2e-16)*|x| + xatol/3). Raises ValueError on non-finite
    or reversed bounds. A search cut off at maxiter evaluations returns its
    best point so far, as SciPy's does.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("optimization bounds must be finite scalars")
    if lo > hi:
        raise ValueError("the lower bound exceeds the upper bound")
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e

        step = abs(rat)
        if step < tol1:
            step = tol1
        x = xf + step if rat >= 0.0 else xf - step
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            break
    return xf, fx
