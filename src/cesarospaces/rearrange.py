"""Distribution functions, decreasing rearrangements, maximal functions.

Everything here reads one table: the monotone segments of |f|
(``piecewise.segment_table``), split once and kept on the object |f|
itself, for as long as it lives; ``piecewise.absolute`` keeps |f| on f.
Each segment is one record (``piecewise.MonotoneSegment``) with its ends,
end values and terms and, built at first use, its antiderivative data.

One rule (``_part_above``) cuts a segment at a level: the segment
contributes nothing, all of itself, or the part on one side of the unique
crossing.  A crossing |f| = lam is solved from the segment's terms when a
level cuts it: pure-power and a + b/t segments have closed forms, and
everything else falls back to a Brent solve in u at precision 1e-12.
The distribution d_f(lam) = m({|f| > lam}), the superlevel set
{|f| > lam} and ``_level_mass`` all read that rule, so they agree at
every level.

The rearrangement f*(s) = inf{lam > 0 : d_f(lam) <= s} is returned as an
exact function whenever f is a step function or |f| is already
nonincreasing (then f* = |f|); otherwise it is an evaluation procedure
driven by bisection over lam.

``_level_mass`` returns d_f(lam) together with the mass of |f| above lam,
which by the layer-cake identity is the integral of f* over [0, d_f(lam)].
The Marcinkiewicz sup search of ``norms`` samples f** that way, in level
form, with no bisection.  Where f* has no exact form, f**(t) and the
L1 + Linf norm (the integral of f* over [0, 1]) take one bisection for
lam = f*(t) and one mass pass (``_head_integral``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from . import cesaro as _cesaro_mod
from . import piecewise as pw
from .errors import EvaluationDomainError, NotRearrangeableError
from .rootfind import _U_CAP, brentq, eval_exp_pairs
from .piecewise import INF, PPL, DomainSpec, TermMap

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200
# Next to a stationary end of a segment, |f| - lam is flat down to rounding
# noise over a short stretch of u, and a level a few ulps off the end value
# sends Brent's interpolation steps crawling through that noise (one such
# solve took 105 steps); a solve that converges takes the same steps under
# any cap.
CROSSING_MAX_ITER = 1000


def _crossing(seg: pw.MonotoneSegment, lam: float) -> float:
    """Unique t in (lo, hi) with value lam on a monotone positive segment
    whose end values lie on both sides of lam; inf when that t lies past
    the float range.

    A lone c*t**alpha and b/t + a have closed forms.  Otherwise Brent
    solves the terms minus lam in u = ln t, between the ends (0 and inf
    taken as u = -700 and 700), with the terms added up in the order
    ``eval_exp_poly`` adds up the piece's term map and a missing constant
    term last.
    """
    terms = seg.terms
    keys = list(terms)  # a piece's term map: already in sorted key order
    if len(keys) == 1:
        (alpha, k), = keys
        if k == 0 and alpha != 0.0:
            ratio = lam / terms[keys[0]]
            if ratio == 0.0:  # lam underflowed against the coefficient
                return 0.0 if alpha > 0.0 else INF
            try:
                return ratio ** (1.0 / alpha)
            except OverflowError:
                return INF
    elif keys == [(-1.0, 0), (0.0, 0)]:
        b, a = terms[(-1.0, 0)], terms[(0.0, 0)]
        if lam != a:
            t = b / (lam - a)
            if seg.lo < t < seg.hi:
                return t
    ulo = math.log(seg.lo) if seg.lo > 0.0 else -_U_CAP
    uhi = math.log(seg.hi) if not math.isinf(seg.hi) else _U_CAP
    const = terms.get((0.0, 0), 0.0) - lam
    shifted = [(key, const if key == (0.0, 0) else c)
               for key, c in terms.items()]
    if (0.0, 0) not in terms:
        shifted.append(((0.0, 0), const))
    clipped = lambda x: min(max(eval_exp_pairs(shifted, x), -1e300), 1e300)
    flo, fhi = clipped(ulo), clipped(uhi)
    if flo == 0.0:
        return math.exp(ulo)
    if fhi == 0.0:
        return math.exp(uhi)
    if (flo > 0.0) == (fhi > 0.0):
        # the level touches an endpoint value within rounding; snap to the
        # endpoint that sits closer to the level
        return math.exp(uhi if abs(fhi) < abs(flo) else ulo)
    u = brentq(clipped, ulo, uhi, xtol=BISECT_TOL, rtol=4 * math.ulp(1.0),
               maxiter=CROSSING_MAX_ITER)
    return math.exp(u)


def distribution(f, lam: float) -> float:
    """m({|f| > lam}); accepts a piecewise function or a rearrangement."""
    if isinstance(f, RearrangedFunction):
        return distribution(f.source, lam)
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    return _measure_above(pw.segment_table(f), lam)


def _part_above(seg: pw.MonotoneSegment,
                lam: float) -> tuple[float, float, float | None] | None:
    """(a, b, x): [a, b) is the part of a segment of |f| where |f| > lam,
    and x the crossing |f| = lam that bounds it, None when the part is the
    whole segment; None when the part is empty.

    A segment whose values stay >= lam and exceed it somewhere lies above
    lam up to a null set, so a level that |f| only tends to at 0 or at
    infinity, or that it meets at an end, cuts nothing off there.  A
    crossing past the float range is inf, and the part is then unbounded:
    b = inf.
    """
    if not (seg.vlo > lam or seg.vhi > lam):
        return None
    if seg.vlo >= lam and seg.vhi >= lam:
        return seg.lo, seg.hi, None
    x = _crossing(seg, lam)
    return (seg.lo, x, x) if seg.vlo > lam else (x, seg.hi, x)


def _measure_above(segs: tuple[pw.MonotoneSegment, ...], lam: float) -> float:
    """m({|f| > lam}) from the segments of |f|, for lam >= 0."""
    total = 0.0
    for seg in segs:
        part = _part_above(seg, lam)
        if part is not None:
            a, b, _x = part
            if math.isinf(b):
                return INF
            total += b - a
    return total


def _level_mass(segs: tuple[pw.MonotoneSegment, ...],
                lam: float) -> tuple[float, float]:
    """(d_f(lam), integral of |f| over {|f| > lam}) in one pass over the
    segments of |f| (``piecewise.segment_table``), each cut by
    ``_part_above``: each crossing is solved once and serves both the
    measure and the integral.
    """
    d = 0.0
    parts = []
    for seg in segs:
        part = _part_above(seg, lam)
        if part is None:
            continue
        a, b, x = part
        anti, alo, ahi, whole = seg.mass()
        if x is None:
            d += b - a
            parts.append(whole)
        elif math.isinf(x):
            # past the float range: the set above lam is unbounded; a
            # falling power of finite mass loses a tail that no float x
            # can place but that has a closed form
            d = INF
            if seg.vlo > lam and math.isfinite(whole):
                parts.append(whole - _power_tail(seg, lam))
            else:
                parts.append(whole)
        else:
            # a closed-form crossing can underflow to t = 0, where the
            # antiderivative has only its limit
            ax = alo if x == 0.0 else pw.eval_term_map(anti, x)
            d += b - a
            parts.append(pw._between(ax - alo, b - a, lam, seg.vlo)
                         if seg.vlo > lam else
                         pw._between(ahi - ax, b - a, lam, seg.vhi))
    return d, math.fsum(parts)


def _power_tail(seg: pw.MonotoneSegment, lam: float) -> float:
    """Integral of c*t**alpha, alpha < -1, from its crossing x with lam to
    infinity, for an x past the float range: c*x**(alpha + 1)/-(alpha + 1),
    with x**(alpha + 1) taken in log space."""
    ((alpha, _k), coeff), = seg.terms.items()
    log_ratio = math.log(lam) - math.log(coeff)
    return coeff * math.exp((alpha + 1.0) * (1.0 / alpha) * log_ratio) \
        / -(alpha + 1.0)


def critical_values(f: PPL) -> list[float]:
    """Finite segment-endpoint values of |f|, sorted ascending."""
    vals = set()
    for seg in pw.segment_table(f):
        for v in (seg.vlo, seg.vhi):
            if math.isfinite(v):
                vals.add(v)
    return sorted(vals)


def _tail_limit(f: PPL) -> float:
    """lim of |f| at the right end of an unbounded support (0 otherwise)."""
    segs = pw.segment_table(f)
    if segs and math.isinf(segs[-1].hi):
        return segs[-1].vhi
    return 0.0


@dataclass(frozen=True)
class RearrangedFunction:
    """The decreasing rearrangement f* of a piecewise function.

    ``exact`` is populated when f* stays in the representation family
    (step functions; functions whose modulus is already nonincreasing).
    ``evaluate`` always works, via exact evaluation or lam-bisection on the
    distribution.
    """

    source: PPL
    domain: DomainSpec
    exact: PPL | None
    sup_value: float
    value_at_infinity: float

    def evaluate(self, s: float) -> float:
        if s < 0.0:
            raise EvaluationDomainError("rearrangement argument must be >= 0")
        if self.domain.is_unit and s > 1.0:
            raise EvaluationDomainError("argument outside the unit interval")
        if s == 0.0:
            return self.sup_value
        if self.exact is not None:
            return pw.evaluate(self.exact, min(s, self.exact.domain.end))
        measure = partial(_measure_above, pw.segment_table(self.source))
        if s >= measure(0.0):
            return 0.0
        lo = self.value_at_infinity
        if lo > 0.0 and measure(lo) <= s:
            return lo
        hi = self.sup_value if math.isfinite(self.sup_value) else 1.0
        while measure(hi) > s:
            hi *= 2.0
        for _ in range(BISECT_MAX_ITER):
            if hi - lo <= BISECT_TOL * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            if measure(mid) <= s:
                hi = mid
            else:
                lo = mid
        return hi

    __call__ = evaluate

    def support_measure(self) -> float:
        return distribution(self.source, 0.0)


def decreasing_rearrangement(f: PPL) -> RearrangedFunction:
    sup = pw.essential_sup_abs(f)
    tail = _tail_limit(f)
    if math.isinf(tail):
        raise NotRearrangeableError(
            "every super-level set has infinite measure")
    if f.is_zero:
        return RearrangedFunction(f, f.domain, f, 0.0, 0.0)
    if f.is_step:
        steps = sorted(((abs(p.term_map()[(0.0, 0)]), p.hi - p.lo)
                        for p in f.pieces), reverse=True)
        out = []
        pos = 0.0
        for value, length in steps:
            if math.isinf(pos):
                break
            out.append((pos, pos + length, {(0.0, 0): value}))
            pos += length
        return RearrangedFunction(
            f, f.domain, pw.make_ppl(f.domain, out), sup, tail)
    g = pw.absolute(f)
    exact = g if pw.is_nonincreasing(g) else None
    return RearrangedFunction(f, f.domain, exact, sup, tail)


@dataclass(frozen=True)
class MaximalFunction:
    """f**(t) = (1/t) * integral of f* over [0, t]."""

    rearranged: RearrangedFunction
    exact: PPL | None

    def evaluate(self, t: float) -> float:
        if self.exact is not None:
            return pw.evaluate(self.exact, t)
        return second_maximal(self.rearranged, t)

    __call__ = evaluate


def maximal_function(f: PPL) -> MaximalFunction:
    r = decreasing_rearrangement(f)
    exact = _cesaro_mod.cesaro_transform(r.exact) if r.exact is not None else None
    return MaximalFunction(r, exact)


def dilation(f: PPL, s: float) -> PPL:
    """(D_s f)(t) = f(t/s), clipped to the domain."""
    if s <= 0.0:
        raise ValueError("dilation factor must be positive")
    log_s = math.log(s)
    pieces = []
    for p in f.pieces:
        lo, hi = p.lo * s, p.hi * s
        lo, hi = min(lo, f.domain.end), min(hi, f.domain.end)
        if lo >= hi:
            continue
        tm: TermMap = {}
        for (alpha, k), c in p.term_map().items():
            base = c * s ** (-alpha)
            for j in range(k + 1):
                coef = (base * math.comb(k, j) * (-log_s) ** (k - j))
                key = (alpha, j)
                tm[key] = tm.get(key, 0.0) + coef
        pieces.append((lo, hi, tm))
    return pw.make_ppl(f.domain, pieces)


def equimeasurable(f, g, tol: float = 1e-10) -> bool:
    """Same distribution function, probed at critical values, midpoints and
    a geometric refinement grid.  Exact for step functions."""
    vals = set()
    for h in (f, g):
        src = h.source if isinstance(h, RearrangedFunction) else h
        vals.update(critical_values(src))
    vals.discard(0.0)
    probes = {0.0}
    ordered = sorted(vals)
    probes.update(ordered)
    for a, b in zip(ordered, ordered[1:]):
        probes.add(0.5 * (a + b))
    if ordered:
        vmin, vmax = ordered[0], ordered[-1]
        lo = vmin / 4.0 if vmin > 0 else 1e-6
        hi = vmax * 2.0 if vmax > 0 else 1.0
        if lo > 0 and hi > lo:
            ratio = (hi / lo) ** (1.0 / 63)
            probes.update(lo * ratio ** i for i in range(64))
    for lam in sorted(probes):
        d1, d2 = distribution(f, lam), distribution(g, lam)
        if math.isinf(d1) or math.isinf(d2):
            if d1 != d2:
                return False
            continue
        if abs(d1 - d2) > tol * (1.0 + abs(d1)):
            return False
    return True


def superlevel_set(f, lam: float) -> pw.MeasurableSet:
    """The set where |f| exceeds lam, as an exact union of intervals.

    A rising segment that crosses lam past the float range keeps its part
    from e**700 on, the point where the Brent fallback of ``_crossing``
    snaps, so the set is unbounded wherever ``distribution`` is inf.
    """
    src = f.source if isinstance(f, RearrangedFunction) else f
    intervals = []
    for seg in pw.segment_table(src):
        part = _part_above(seg, lam)
        if part is not None:
            a, b, _x = part
            if math.isinf(a):
                a = max(seg.lo, math.exp(_U_CAP))
            intervals.append((a, b))
    return pw.MeasurableSet(src.domain, tuple(intervals))


def _head_integral(r: RearrangedFunction, t: float) -> tuple[float, float]:
    """(lam, integral of f* over [0, t]) at lam = f*(t), for an f* with
    no exact form.

    The layer-cake identity: the integral is the mass of |f| above lam
    (``_level_mass``) plus lam times the length t - d_f(lam) on which
    f* = lam.  One height bisection and one pass over the segments.
    """
    lam = r.evaluate(t)
    d, mass = _level_mass(pw.segment_table(r.source), lam)
    return lam, mass + lam * (t - d)


def second_maximal(f, t: float) -> float:
    """Average of the decreasing rearrangement over [0, t] (``_head_integral``
    where f* has no exact form)."""
    if t <= 0.0:
        raise ValueError("the averaging window must have positive length")
    r = f if isinstance(f, RearrangedFunction) else decreasing_rearrangement(f)
    if r.exact is not None:
        return pw.integrate(r.exact, 0.0, min(t, r.domain.end)) / t
    return _head_integral(r, t)[1] / t
