"""Brent's root finder on Python floats.

``brentq`` is the zero finder of Brent, *Algorithms for Minimization
without Derivatives* (Prentice-Hall, 1973), chapter 4, as SciPy's
``optimize.brentq`` (its C ``brentq``) writes it. It keeps that code's
arithmetic in the same order, so every iterate carries the same bits, and
its failure behaviour; tests/test_brent.py pins it to SciPy's results.
qflab finds every level, root and maximum with it: a maximum is a root of
the derivative (``equilibrium._refine``).
"""

from __future__ import annotations

import math

# the smallest relative tolerance brentq accepts: 4 ulps at 1
RTOL_MIN = 4.0 * 2.220446049250313e-16


def brentq(f, a, b, xtol, rtol, maxiter=100, fa=None, fb=None):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, and the
    number of iterations taken. ``fa`` and ``fb``, where given, are f(a)
    and f(b), which a caller that has them need not have evaluated again.

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

    def value(x, fx=None):
        fx = float(f(x) if fx is None else fx)
        if fx != fx:
            raise ValueError(f"the function value at x={x} is NaN; the solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre, fa)
    fcur = value(xcur, fb)
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
