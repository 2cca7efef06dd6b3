"""Distribution functions, decreasing rearrangements, maximal functions.

The distribution d_f(lam) = m({|f| > lam}) is computed exactly per monotone
segment: each segment contributes nothing, its full length, or a length cut
at the unique crossing |f| = lam.  Crossings have closed forms for constant,
pure-power and a + b/t segments; everything else falls back to a Brent
solve in u = ln t at precision 1e-12.  What a crossing needs besides the
level (which closed form applies, the ends in u, the terms in summation
order) is built once per segment that is not flat.  The segments of |f| are
kept on the object |f| itself (``piecewise._memo``), for as long as it
lives, not in a global cache; ``piecewise.absolute`` keeps |f| on f.

The rearrangement f*(s) = inf{lam > 0 : d_f(lam) <= s} is returned as an
exact function whenever f is a step function or |f| is already
nonincreasing (then f* = |f|); otherwise it is an evaluation procedure
driven by bisection over lam.  That bisection starts from the same
bracket [f*(inf), sup|f|] for every s, so a sweep over many s shares its
first midpoints; such a sweep keeps one level memo (``_level_memo``) for
its own duration and measures each shared level once, with the same
midpoints and comparisons as without it.

A search that can choose its points in level form needs no bisection:
``_level_mass`` returns d_f(lam) together with the mass of |f| above lam,
which by the layer-cake identity is the integral of f* over [0, d_f(lam)].
The Marcinkiewicz sup search of ``norms`` samples f** that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

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


@dataclass(frozen=True, eq=False)
class _Crossing:
    """What ``_crossing`` needs of a segment besides the level, built once.

    ``power`` is (c, 1/alpha) for a lone c*t**alpha and ``hyperbola`` is
    (b, a) for b/t + a, the two closed forms.  The rest feeds the Brent
    fallback: the ends in u = ln t (with 0 and inf taken as u = -700 and
    700), and the piece's terms split around its constant term ``const``
    (0.0 when it has none, and then it comes last) into the pairs
    ``below`` and ``above``, so that the sum shifted by a level is added
    up in the order ``eval_exp_poly`` adds up the piece's term map.
    """

    power: tuple[float, float] | None
    hyperbola: tuple[float, float] | None
    ulo: float
    uhi: float
    below: pw.TermPairs
    const: float
    above: pw.TermPairs


def _crossing_data(lo: float, hi: float, tm: pw.TermView) -> _Crossing:
    keys = list(tm)  # a piece's term map: already in sorted key order
    power = None
    if len(keys) == 1:
        (alpha, k), = keys
        if k == 0 and alpha != 0.0:
            power = (tm[(alpha, k)], 1.0 / alpha)
    hyperbola = None
    if keys == [(-1.0, 0), (0.0, 0)]:
        hyperbola = (tm[(-1.0, 0)], tm[(0.0, 0)])
    ulo = math.log(lo) if lo > 0.0 else -_U_CAP
    uhi = math.log(hi) if not math.isinf(hi) else _U_CAP
    pairs = tuple(tm.items())
    slot = keys.index((0.0, 0)) if (0.0, 0) in tm else len(keys)
    return _Crossing(power, hyperbola, ulo, uhi, pairs[:slot],
                     tm.get((0.0, 0), 0.0), pairs[slot + 1:])


@dataclass(frozen=True, eq=False)
class _Segment:
    lo: float
    hi: float
    vlo: float
    vhi: float
    cross: _Crossing | None  # None on a flat segment: no level cuts it
    terms: pw.TermView


def _abs_segments(f: PPL) -> tuple[_Segment, ...]:
    """The monotone segments of |f|, kept on |f| (see ``piecewise._memo``)."""
    return pw._memo(pw.absolute(f), "_segments", _segments_of)


def _segments_of(g: PPL) -> tuple[_Segment, ...]:
    segs = []
    for lo, hi, tm in pw.monotone_segments(g):
        vlo, vhi = pw.segment_end_values(tm, lo, hi)
        cross = _crossing_data(lo, hi, tm) if vlo != vhi else None
        segs.append(_Segment(lo, hi, vlo, vhi, cross, tm))
    return tuple(segs)


def _crossing(seg: _Segment, lam: float) -> float:
    """Unique t in (lo, hi) with value lam on a monotone positive segment
    whose end values lie on both sides of lam; inf when that t lies past
    the float range."""
    c = seg.cross
    if c.power is not None:
        coeff, inv_alpha = c.power
        ratio = lam / coeff
        if ratio == 0.0:  # lam underflowed against the coefficient
            return 0.0 if inv_alpha > 0.0 else INF
        try:
            return ratio ** inv_alpha
        except OverflowError:
            return INF
    if c.hyperbola is not None:
        b, a = c.hyperbola
        if lam != a:
            t = b / (lam - a)
            if seg.lo < t < seg.hi:
                return t
    ulo, uhi = c.ulo, c.uhi
    shifted = c.below + (((0.0, 0), c.const - lam),) + c.above
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
    return _measure_above(_abs_segments(f), lam)


def _measure_above(segs: tuple[_Segment, ...], lam: float) -> float:
    """m({|f| > lam}) from the segments of |f|, for lam >= 0.

    As in ``_level_mass``, a segment whose values stay >= lam and exceed it
    somewhere lies above lam up to a null set.
    """
    total = 0.0
    for seg in segs:
        above_lo = seg.vlo > lam
        if not (above_lo or seg.vhi > lam):
            continue
        if seg.vlo >= lam and seg.vhi >= lam:
            total += seg.hi - seg.lo
        else:
            x = _crossing(seg, lam)
            if math.isinf(x):  # past the float range, on either side
                return INF
            total += (x - seg.lo) if above_lo else (seg.hi - x)
        if math.isinf(total):
            return INF
    return total


def _level_memo(f: PPL) -> Callable[[float], float]:
    """lam -> d_f(lam) for lam >= 0, each level measured once.

    The memo lives as long as the returned function: one sweep keeps it
    while it inverts the distribution at many points.
    """
    segs = _abs_segments(f)
    memo: dict[float, float] = {}

    def measure(lam: float) -> float:
        d = memo.get(lam)
        if d is None:
            d = memo[lam] = _measure_above(segs, lam)
        return d

    return measure


@dataclass(frozen=True, eq=False)
class _MassSegment:
    """A segment of |f| with what its mass above a level needs, built once:
    the antiderivative of its terms and that antiderivative at the two ends
    (limits at 0 and inf), so a cut at x integrates by one evaluation."""

    seg: _Segment
    anti: TermMap
    alo: float
    ahi: float
    whole: float  # the integral over the segment, inf when it diverges


def _mass_segments(f: PPL) -> tuple[_MassSegment, ...]:
    """``_abs_segments`` with their masses, kept on |f| as well."""
    return pw._memo(pw.absolute(f), "_mass_segments", _mass_segments_of)


def _mass_segments_of(g: PPL) -> tuple[_MassSegment, ...]:
    out = []
    for seg in _abs_segments(g):
        anti = pw.antiderivative_map(seg.terms)
        alo, ahi = pw.segment_end_values(anti, seg.lo, seg.hi)
        whole = _between(pw._piece_integral(seg.terms, seg.lo, seg.hi),
                         seg.hi - seg.lo, seg.vlo, seg.vhi)
        out.append(_MassSegment(seg, anti, alo, ahi, whole))
    return tuple(out)


def _between(mass: float, width: float, v1: float, v2: float) -> float:
    """mass clamped to width times the range [v1, v2] of the integrand.

    An antiderivative difference over a thin cut cancels to a few ulps of
    the antiderivative, which can dwarf the cut's own mass; the integrand
    of a monotone segment stays between its end values, and so does its
    mean.
    """
    if not math.isfinite(width):
        return mass
    lo, hi = (v1, v2) if v1 <= v2 else (v2, v1)
    return min(max(mass, lo * width), hi * width)


def _level_mass(msegs: tuple[_MassSegment, ...],
                lam: float) -> tuple[float, float]:
    """(d_f(lam), integral of |f| over {|f| > lam}) in one pass over the
    segments of |f| (``_mass_segments``): each crossing is solved once and
    serves both the measure and the integral.

    A segment whose values stay >= lam and exceed it somewhere lies above
    lam up to a null set, so a level that |f| only tends to at 0 or at
    infinity cuts nothing off there.
    """
    d = 0.0
    parts = []
    for m in msegs:
        seg = m.seg
        if max(seg.vlo, seg.vhi) <= lam:
            continue
        if min(seg.vlo, seg.vhi) >= lam:
            d += seg.hi - seg.lo
            parts.append(m.whole)
            continue
        x = _crossing(seg, lam)
        if math.isinf(x):
            # past the float range: the set above lam is unbounded; a
            # falling power of finite mass loses a tail that no float x
            # can place but that has a closed form
            d = INF
            if seg.vlo > lam and math.isfinite(m.whole):
                parts.append(m.whole - _power_tail(seg, lam))
            else:
                parts.append(m.whole)
            continue
        # a closed-form crossing can underflow to t = 0, where the
        # antiderivative has only its limit
        ax = m.alo if x == 0.0 else pw.eval_term_map(m.anti, x)
        if seg.vlo > lam:
            d += x - seg.lo
            parts.append(_between(ax - m.alo, x - seg.lo, lam, seg.vlo))
        else:
            d += seg.hi - x
            parts.append(_between(m.ahi - ax, seg.hi - x, lam, seg.vhi))
    return d, math.fsum(parts)


def _power_tail(seg: _Segment, lam: float) -> float:
    """Integral of c*t**alpha, alpha < -1, from its crossing x with lam to
    infinity, for an x past the float range: c*x**(alpha + 1)/-(alpha + 1),
    with x**(alpha + 1) taken in log space."""
    coeff, inv_alpha = seg.cross.power
    (alpha, _k), = seg.terms
    log_ratio = math.log(lam) - math.log(coeff)
    return coeff * math.exp((alpha + 1.0) * inv_alpha * log_ratio) \
        / -(alpha + 1.0)


def critical_values(f: PPL) -> list[float]:
    """Finite segment-endpoint values of |f|, sorted ascending."""
    vals = set()
    for seg in _abs_segments(f):
        for v in (seg.vlo, seg.vhi):
            if math.isfinite(v):
                vals.add(v)
    return sorted(vals)


def _tail_limit(f: PPL) -> float:
    """lim of |f| at the right end of an unbounded support (0 otherwise)."""
    segs = _abs_segments(f)
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
        return self._evaluate(s, None)

    def _evaluate(self, s: float,
                  levels: Callable[[float], float] | None) -> float:
        """evaluate(s), reading d_f through ``levels`` when given.

        The bisection starts from the same bracket for every s, so the
        points of one sweep share their first midpoints; a sweep passes
        one ``_level_memo`` here to measure each shared level once.
        """
        if s < 0.0:
            raise EvaluationDomainError("rearrangement argument must be >= 0")
        if self.domain.is_unit and s > 1.0:
            raise EvaluationDomainError("argument outside the unit interval")
        if s == 0.0:
            return self.sup_value
        if self.exact is not None:
            return pw.evaluate(self.exact, min(s, self.exact.domain.end))
        measure = levels if levels is not None \
            else partial(_measure_above, _abs_segments(self.source))
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

    def breakpoints(self) -> list[float]:
        """s-points where f* can kink (images of critical values)."""
        if self.exact is not None:
            return self.exact.breakpoints()
        segs = _abs_segments(self.source)
        pts = {0.0}
        for v in critical_values(self.source):
            if v > 0.0:
                d = _measure_above(segs, v)
                if math.isfinite(d):
                    pts.add(d)
        return sorted(pts)


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
        val, _ = _cesaro_mod.cesaro_numeric(
            self.rearranged.evaluate, t,
            breakpoints=self.rearranged.breakpoints())
        return val

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
    """The set where |f| exceeds lam, as an exact union of intervals."""
    src = f.source if isinstance(f, RearrangedFunction) else f
    ivs: list[tuple[float, float]] = []
    for seg in _abs_segments(src):
        above_lo = seg.vlo > lam
        above_hi = seg.vhi > lam
        if above_lo and above_hi:
            ivs.append((seg.lo, seg.hi))
        elif above_lo or above_hi:
            cut = _crossing(seg, lam)
            if above_lo:
                ivs.append((seg.lo, cut))
            else:
                ivs.append((cut, seg.hi))
    return pw.MeasurableSet.from_intervals(src.domain, ivs)


def second_maximal(f, t: float) -> float:
    """Average of the decreasing rearrangement over [0, t].

    Uses the layer-cake identity: the integral of f* up to t equals the
    integral of |f| over the superlevel set at the height f*(t), plus that
    height times the leftover length.  One height bisection per call; the
    rest is exact interval arithmetic.
    """
    if t <= 0.0:
        raise ValueError("the averaging window must have positive length")
    r = f if isinstance(f, RearrangedFunction) else decreasing_rearrangement(f)
    if r.exact is not None:
        return pw.integrate(r.exact, 0.0, min(t, r.domain.end)) / t
    return _layer_cake_average(r, pw.absolute(r.source), t,
                               _level_memo(r.source))


def _layer_cake_average(r: RearrangedFunction, src: PPL, t: float,
                        levels: Callable[[float], float]) -> float:
    """second_maximal(r, t) for t > 0 and r without an exact form.

    src must be |r.source| and levels a ``_level_memo(r.source)``; a
    caller that sweeps t builds both once.
    """
    lam = r._evaluate(t, levels)
    if not math.isfinite(lam):
        return INF
    E = superlevel_set(src, lam)
    mass = pw.integrate(pw.restrict(src, E))
    if not math.isfinite(mass):
        return INF
    m_e = E.measure()
    if m_e > t:
        # flat level overshoot: trim the sliver at the cut height
        return (mass - lam * (m_e - t)) / t
    return (mass + lam * (t - m_e)) / t
