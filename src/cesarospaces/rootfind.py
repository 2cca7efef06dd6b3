"""Root isolation for sums c * t**alpha * (ln t)**k on subintervals of (0, inf).

Everything runs in u = ln t coordinates where each piece becomes an
exponential polynomial h(u) = sum c * exp(alpha*u) * u**k.  Roots are found
by recursive Rolle bracketing: the derivative's roots cut the axis into
monotone segments, each holding at most one sign change.  The recursion
terminates because factoring out exp(alpha_min*u) turns the lowest block
into a plain polynomial whose degree drops with every differentiation.

u-space precision 1e-12 equals relative t-space precision 1e-12.
Sign changes are refined by ``brentq``, Brent's method in plain Python.
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Mapping

_XTOL = 1e-12
_U_CAP = 700.0  # |u| beyond this is out of float range for t = e**u
_BIG = math.exp(_U_CAP)  # a sum beyond this is out of float range
_BRENT_RTOL = 4 * math.ulp(1.0)  # the smallest rtol brentq accepts

TermMap = Mapping[tuple[float, int], float]


def _clean(terms: TermMap) -> dict[tuple[float, int], float]:
    return {key: c for key, c in terms.items() if c != 0.0}


def _log_mag(c: float, alpha: float, k: int, u: float) -> float:
    # log |c * e^{alpha u} * u^k|, -inf when the term vanishes at u
    if c == 0.0 or (k > 0 and u == 0.0):
        return -math.inf
    return math.log(abs(c)) + alpha * u + (k * math.log(abs(u)) if k else 0.0)


def eval_exp_poly(terms: TermMap, u: float) -> float:
    return eval_exp_pairs(terms.items(), u)


def eval_exp_pairs(pairs: Collection[tuple[tuple[float, int], float]],
                   u: float) -> float:
    """eval_exp_poly on ((alpha, k), c) pairs, summed in the given order.

    A sum beyond the float range (or with a term that overflows) is +-inf
    with the sign of its largest term.
    """
    total = 0.0
    for (alpha, k), c in pairs:
        x = alpha * u
        if x > _U_CAP:  # exp(x) would overflow
            total = math.nan
            break
        val = c * math.exp(x)
        if k:
            val *= u ** k
        total += val
    if -_BIG <= total <= _BIG:
        return total
    (alpha, k), c = max(pairs, key=lambda p: _log_mag(p[1], *p[0], u))
    return math.copysign(math.inf, c * u ** k)


def derivative_terms(terms: TermMap) -> dict[tuple[float, int], float]:
    """d/du of the exponential polynomial, merged by (alpha, k)."""
    out: dict[tuple[float, int], float] = {}
    for (alpha, k), c in terms.items():
        if alpha != 0.0:
            out[(alpha, k)] = out.get((alpha, k), 0.0) + c * alpha
        if k > 0:
            out[(alpha, k - 1)] = out.get((alpha, k - 1), 0.0) + c * k
    return _clean(out)


def dominant_key(terms: TermMap, toward_plus: bool) -> tuple[float, int]:
    """Key (alpha, k) of the summand dominating as u -> +inf (t -> inf:
    largest alpha, then k) or u -> -inf (t -> 0: smallest alpha, largest k)."""
    keys = terms.keys()
    if toward_plus:
        return max(keys, key=lambda ak: (ak[0], ak[1]))
    return min(keys, key=lambda ak: (ak[0], -ak[1]))


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4), step for step as in the widely used C
    routine ``Zeros/brentq.c``, so that both return the same float (the
    tests pin it against that routine).  Raises
    ``ValueError`` for ends of one sign or a NaN value of f, and
    ``RuntimeError`` after ``maxiter`` iterations without convergence.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C gets an infinite or NaN step here, which fails the
                # test below and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _end_sign(terms: TermMap, toward_plus: bool) -> float:
    # sign of the sum as u -> +inf or -inf, read off its dominant term
    alpha, k = dominant_key(terms, toward_plus)
    flip = 1 if toward_plus else (-1) ** k
    return math.copysign(1.0, terms[(alpha, k)] * flip)


def _single_term_roots(k: int, ulo: float, uhi: float) -> list[float]:
    # c * e^{alpha u} * u^k vanishes only at u = 0 (when k > 0)
    return [0.0] if k > 0 and ulo < 0.0 < uhi else []


def roots_u(terms: TermMap, ulo: float, uhi: float) -> list[float]:
    """All roots of the exponential polynomial in the open interval (ulo, uhi).

    Bounds may be ``-inf`` / ``+inf``.  Roots with |u| > ``_U_CAP`` are no
    float t = e**u and are not returned; where an infinite end hides an odd
    number of them, the cap stands in for them.  Raises ``ValueError`` for
    the identically zero sum.
    """
    work = _clean(terms)
    if not work:
        raise ValueError("identically zero on the piece")
    if len(work) == 1:
        (_, k), = work.keys()
        return _single_term_roots(k, ulo, uhi)
    # factor out the lowest exponential; roots are unchanged and the
    # recursion over derivatives now terminates.  Exponents that round to
    # one after the shift add up as one term.
    alpha0 = min(alpha for alpha, _ in work)
    shifted: dict[tuple[float, int], float] = {}
    for (alpha, k), c in work.items():
        key = (alpha - alpha0, k)
        shifted[key] = shifted.get(key, 0.0) + c
    if len(shifted) < len(work):
        shifted = _clean(shifted)
        return roots_u(shifted, ulo, uhi) if shifted else []
    k0 = min(k for _, k in shifted)
    if k0:
        # a common factor u**k0 is a root at u = 0 of that multiplicity,
        # which no sign-change bracket resolves; divide it out
        reduced = {(alpha, k - k0): c for (alpha, k), c in shifted.items()}
        return sorted(roots_u(reduced, ulo, uhi)
                      + _single_term_roots(k0, ulo, uhi))
    open_lo, open_hi = math.isinf(ulo), math.isinf(uhi)
    ulo, uhi = max(ulo, -_U_CAP), min(uhi, _U_CAP)
    if ulo >= uhi:
        return []

    # a derivative whose coefficients all underflow is flat to working
    # precision
    deriv = derivative_terms(shifted)
    crit = roots_u(deriv, ulo, uhi) if deriv else []

    knots = [ulo] + crit + [uhi]
    found: list[float] = []
    pairs = tuple(shifted.items())
    fvals = [eval_exp_pairs(pairs, u) for u in knots]
    for i in range(len(knots) - 1):
        a, b = knots[i], knots[i + 1]
        fa, fb = fvals[i], fvals[i + 1]
        if fa == 0.0 and i > 0:
            found.append(a)
        if fa == 0.0 or fb == 0.0:
            continue
        if (fa > 0) != (fb > 0):
            found.append(brentq(lambda u: eval_exp_pairs(pairs, u), a, b,
                                xtol=_XTOL, rtol=_BRENT_RTOL))
    out: list[float] = []
    for r in sorted(found):
        if ulo < r < uhi and (not out or r - out[-1] > _XTOL):
            out.append(r)
    if open_lo and fvals[0] * _end_sign(shifted, False) < 0.0:
        out.insert(0, ulo)
    if open_hi and fvals[-1] * _end_sign(shifted, True) < 0.0:
        out.append(uhi)
    return out


def roots_t(terms: TermMap, tlo: float, thi: float) -> list[float]:
    """Roots in t-space on the open interval (tlo, thi) c (0, inf)."""
    ulo = math.log(tlo) if tlo > 0.0 else -math.inf
    uhi = math.log(thi) if not math.isinf(thi) else math.inf
    return [math.exp(u) for u in roots_u(terms, ulo, uhi)]


def stationary_points_t(terms: TermMap, tlo: float, thi: float) -> list[float]:
    """Interior zeros of d/dt of the sum, i.e. monotonicity breakpoints:
    d/dt = e^{-u} d/du in u coordinates, with the zero set of d/du."""
    deriv = derivative_terms(terms)
    return roots_t(deriv, tlo, thi) if deriv else []
