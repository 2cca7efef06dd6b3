"""Norm evaluation for the whole space catalog.

Membership comes before magnitude: ``in_space`` decides from the germs of
f and of the space's parameter at 0 and at infinity whether the norm is
finite, and ``norm`` returns an exact +inf from that rule before any
closed form or quadrature runs.  Finite norms of step functions and
transform images stay on exact closed-form paths; other inputs fall back to
adaptive quadrature with tracked error bounds, and a Marcinkiewicz sup
without an exact rearrangement to a search over levels whose error bound
brackets the sup.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from . import cesaro as cz
from . import piecewise as pw
from . import rearrange as rr
from .errors import (MethodInapplicableError, RepresentationError,
                     TransformUndefinedError)
from .piecewise import INF, PPL, TermMap, TermPairs
from .spaces import OrliczFunctionSpec, QuasiConcaveSpec, SpaceDescriptor

LUXEMBURG_REL_TOL = 1e-10
QUAD_TOL = 1e-10
SUP_SEARCH_TOL = 1e-10
SUP_SEARCH_MAX_LEVELS = 256
SUP_SEARCH_FAR = 2.0 ** 40


@dataclass(frozen=True)
class NormResult:
    value: float
    # "exact" (closed form, possibly bisection-bracketed) | "quadrature"
    # | "sup-search" (a Marcinkiewicz sup bracketed over sampled levels)
    method: str
    error_bound: float

    def __repr__(self) -> str:  # keeps test output readable
        return f"NormResult({self.value!r}, {self.method}, err<={self.error_bound:g})"


def _map_times(tm1: TermMap, tm2: TermMap) -> TermMap:
    out: TermMap = {}
    for (a1, k1), c1 in tm1.items():
        for (a2, k2), c2 in tm2.items():
            key = (a1 + a2, k1 + k2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _map_pow_int(tm: TermMap, n: int) -> TermMap | None:
    out: TermMap = {(0.0, 0): 1.0}
    for _ in range(n):
        nxt = _map_times(out, tm)
        if len(nxt) > pw.MAX_TERMS_PER_PIECE:
            return None
        out = nxt
    return out


def _abs_power_map(tm: TermMap, p: float) -> TermMap | None:
    """Exact term map of (nonnegative piece)**p, or None if unavailable."""
    if p == 1.0:
        return dict(tm)
    if len(tm) == 1:
        ((alpha, k), c), = tm.items()
        scaled_k = k * p
        if k == 0 or scaled_k == int(scaled_k):
            return {(alpha * p, int(round(scaled_k))): abs(c) ** p}
        return None
    if p == int(p) and p >= 2:
        return _map_pow_int(tm, int(p))
    return None


@functools.lru_cache(maxsize=256)
def _generator_power_bands(
        spec: OrliczFunctionSpec) -> tuple[tuple[float, float, TermPairs], ...] | None:
    """Generator pieces as (ulo, uhi, terms) bands, or None.

    Available only when every exponent of the generator is a nonnegative
    integer and no logarithm appears, so that composing with a power-log
    function stays inside the representation.
    """
    bands = []
    for p in spec.phi.pieces:
        for alpha, k in p.term_map():
            if k != 0 or alpha < 0.0 or alpha != int(alpha):
                return None
        bands.append((p.lo, p.hi, p.pairs))
    return tuple(bands)


def _power_generator(spec: OrliczFunctionSpec) -> tuple[float, int] | None:
    """(c, n) when Phi(u) = c*u**n below the finite bound and zero bound 0.

    Such a generator has the closed-form Luxemburg norm of
    ``_orlicz_power_norm``; every other one returns None.
    """
    bands = _generator_power_bands(spec)
    if spec.zero_bound != 0.0 or bands is None or len(bands) != 1:
        return None
    (ulo, uhi, terms), = bands
    if ulo != 0.0 or uhi != spec.finite_bound or len(terms) != 1:
        return None
    ((alpha, _k), c), = terms
    if alpha < 1.0:
        return None
    return c, int(alpha)


@functools.lru_cache(maxsize=8192)
def _piece_pow_map(piece: pw.Piece, n: int) -> TermPairs | None:
    pm = _map_pow_int(piece.term_map(), n)
    return pw.canonical_pairs(pm) if pm is not None else None


def _interval_difference(A: pw.MeasurableSet,
                         B: pw.MeasurableSet) -> pw.MeasurableSet:
    """A minus B as interval unions; exact up to null boundary sets."""
    out = []
    for lo, hi in A.intervals:
        cur = lo
        for c, d in B.intervals:
            if d <= cur or c >= hi:
                continue
            if c > cur:
                out.append((cur, c))
            cur = max(cur, d)
        if cur < hi:
            out.append((cur, hi))
    return pw.MeasurableSet.from_intervals(A.domain, out)


def _compose_band(piece: pw.Piece, terms: TermPairs,
                  lam: float) -> TermMap | None:
    """Term map of the generator band applied to piece/lam, or None."""
    out: TermMap = {}
    for (au, _k), cu in terms:
        powed = _piece_pow_map(piece, int(au))
        if powed is None:
            return None
        scale = cu / lam ** int(au)
        for key, cc in powed:
            out[key] = out.get(key, 0.0) + scale * cc
    return {k: c for k, c in out.items() if c != 0.0}


def _orlicz_modular_exact(g: PPL, spec: OrliczFunctionSpec,
                          lam: float) -> float | None:
    """Exact modular of a nonnegative g for integer-power generators.

    The caller must already have returned +inf when g/lam exceeds the
    finite bound on a set of positive measure; bands only cover the
    region where the generator is finite.  Each generator piece then
    contributes only where g/lam crosses its value band; those sets are
    exact interval unions from level-set cuts, and on them the composed
    integrand is again a power-log function.  Values of g at the band
    edges land in the lower band, which agrees with the pointwise
    generator because a finite convex generator has no interior jumps,
    and the cap value is read from the closure of the last piece on
    both paths.
    """
    bands = _generator_power_bands(spec)
    if bands is None:
        return None
    total = 0.0
    for ulo, uhi, terms in bands:
        level = lam * ulo
        if level > 0.0:
            A = rr.superlevel_set(g, level)
        else:
            # {g > 0} up to the null set of interior roots, which cannot
            # move the integral
            A = pw.MeasurableSet.from_intervals(
                g.domain, [(p.lo, p.hi) for p in g.pieces if p.term_map()])
        if A.is_empty:
            continue
        if math.isfinite(uhi):
            E = _interval_difference(A, rr.superlevel_set(g, lam * uhi))
        else:
            E = A
        if E.is_empty:
            continue
        for piece in g.pieces:
            pm: TermMap | None = None
            for lo, hi in E.intervals:
                a, b = max(piece.lo, lo), min(piece.hi, hi)
                if a >= b:
                    continue
                if pm is None:
                    pm = _compose_band(piece, terms, lam)
                    if pm is None:
                        return None
                total += pw._piece_integral(pm, a, b) if pm else 0.0
    return total


def _orlicz_exact_ready(f: PPL, spec: OrliczFunctionSpec) -> bool:
    """Will the exact modular path apply to every piece of |f|?"""
    bands = _generator_power_bands(spec)
    if bands is None:
        return False
    nmax = max((int(a) for _, _, tms in bands for (a, _k), _c in tms),
               default=0)
    return all(_map_pow_int(p.term_map(), nmax) is not None
               for p in f.pieces)


# ---------------------------------------------------------------------------
# individual norms on exact piecewise inputs


def _antiderivative_magnitude(tm: TermMap, lo: float, hi: float) -> float:
    """Sum of the absolute monomials of the antiderivative of tm at lo and hi.

    The exact integral over [lo, hi) is the difference of the two monomial
    sums, so its rounding error is a few ulps of this magnitude.
    """
    F = pw.antiderivative_map(tm)
    total = 0.0
    for t, at in ((lo, "zero"), (hi, "inf")):
        if t == 0.0 or math.isinf(t):
            total += abs(pw.limit_term_map(F, at))
        else:
            total += sum(abs(pw.eval_term_map({key: c}, t))
                         for key, c in F.items())
    return total


def _lp_ppl(f: PPL, p: float) -> NormResult:
    """The Lp norm of an f that ``in_space`` admits to Lp."""
    g = pw.absolute(f)
    if g.is_zero:
        return NormResult(0.0, "exact", 0.0)
    total = 0.0
    err = 0.0
    exact = True
    exact_parts = []
    for piece in g.pieces:
        tm = piece.term_map()
        pm = _abs_power_map(tm, p)
        if pm is not None:
            val = pw._piece_integral(pm, piece.lo, piece.hi)
            exact_parts.append((pm, piece.lo, piece.hi))
        else:
            exact = False
            fn = lambda t: abs(pw.eval_term_map(tm, t)) ** p
            val, e = cz._quad(fn, piece.lo, piece.hi, (), QUAD_TOL)
            err += e
        total += val
    if total < 0.0:
        # an exact piece integral is a difference of antiderivative values
        # and can cancel to a few ulps below zero
        slack = 64.0 * math.ulp(1.0) * sum(
            _antiderivative_magnitude(pm, lo, hi) for pm, lo, hi in exact_parts)
        if -total > slack:
            raise RepresentationError(
                f"integral of |f|**{p:g} came out negative ({total:g}), "
                f"beyond its rounding bound {slack:g}")
        return NormResult(0.0, "exact" if exact else "quadrature",
                          (slack + err) ** (1.0 / p))
    value = total ** (1.0 / p)
    if not exact and total > 0.0:
        err = err * value / (p * total)
    return NormResult(value, "exact" if exact else "quadrature",
                      0.0 if exact else err)


def _sum_space_ppl(f: PPL) -> NormResult:
    """Norm in the sum space: integral of f* over [0, 1]."""
    r = rr.decreasing_rearrangement(f)
    if r.exact is not None:
        val = pw.integrate(r.exact, 0.0, 1.0)
        return NormResult(val, "exact", 0.0)
    # layer-cake split: f*(1) + integral of (|f| - f*(1))_+ stays exact
    lam1 = r.evaluate(1.0)
    excess = pw.excess_over(f, lam1, f.domain.end) if lam1 > 0.0 \
        else pw.absolute(f)
    tail = pw.integrate(excess)
    value = lam1 + tail
    return NormResult(value, "exact", 1e-10 * (1.0 + abs(lam1)))


def _orlicz_modular(f: PPL, spec: OrliczFunctionSpec
                    ) -> Callable[[float], tuple[float, float]]:
    """lam -> (integral of Phi(|f|/lam), error), for an f in the space.

    Everything that does not depend on lam is worked out once here.  The
    tail limit of |f| is taken only when some lam gets past the sup test,
    so a modular that is +inf by the sup test never needs the tail.  A
    divergence at 0 does not depend on lam, so membership rules it out.
    """
    if f.is_step:
        steps = [(abs(piece.term_map()[(0.0, 0)]), piece.hi - piece.lo)
                 for piece in f.pieces]

        def step_modular(lam: float) -> tuple[float, float]:
            total = 0.0
            for height, length in steps:
                v = spec.value(height / lam)
                if math.isinf(length):
                    if v > 0.0:
                        return INF, 0.0
                    continue
                if math.isinf(v):
                    return INF, 0.0
                total += v * length
            return total, 0.0

        return step_modular
    g = pw.absolute(f)
    sup = pw.essential_sup_abs(g)
    tail: float | None = None
    lo = g.pieces[0].lo
    hi = g.support_bound()
    breaks = g.breakpoints()

    def modular(lam: float) -> tuple[float, float]:
        nonlocal tail
        if sup > spec.finite_bound * lam:
            return INF, 0.0
        if not f.domain.is_unit:
            if tail is None:
                tail = rr._tail_limit(g)
            if tail / lam > spec.zero_bound:
                return INF, 0.0
        exact = _orlicz_modular_exact(g, spec, lam)
        if exact is not None:
            return exact, 0.0
        fn = lambda t: spec.value(abs(pw.evaluate(g, t)) / lam)
        return cz._quad(fn, lo, hi, breaks, QUAD_TOL)

    return modular


def _luxemburg(modular: Callable[[float], tuple[float, float]],
               exact_modular: bool) -> NormResult:
    """Bisect lam over the whole float range for modular(lam) = 1.

    Doubling stops at the first lam with modular(lam) <= 1 (inf when even
    the largest float fails) and halving at the first with modular > 1;
    a norm below the least subnormal is reported as [0, that subnormal].
    """
    method = "exact" if exact_modular else "quadrature"
    hi = 1.0
    max_err = 0.0
    while True:
        val, e = modular(hi)
        max_err = max(max_err, e)
        if val <= 1.0:
            break
        if hi == sys.float_info.max:
            return NormResult(INF, method, 0.0)
        hi = min(2.0 * hi, sys.float_info.max)
    lo = hi / 2.0
    while lo > 0.0:
        val, e = modular(lo)
        max_err = max(max_err, e)
        if val > 1.0:
            break
        hi = lo
        lo /= 2.0
    else:
        return NormResult(hi, method, hi + max_err)
    for _ in range(200):
        if hi - lo <= LUXEMBURG_REL_TOL * hi:
            break
        mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        val, e = modular(mid)
        max_err = max(max_err, e)
        if val <= 1.0:
            hi = mid
        else:
            lo = mid
    return NormResult(hi, method, (hi - lo) + max_err)


def _orlicz_power_norm(f: PPL, spec: OrliczFunctionSpec, c: float,
                       n: int) -> NormResult:
    """Luxemburg norm for Phi(u) = c*u**n up to the finite bound b.

    The modular c*||f||_n**n / lam**n is finite exactly when
    ess sup|f| <= b*lam, so the norm is max(ess sup|f|/b, c**(1/n)*||f||_n);
    the first term drops out when b is infinite.
    """
    lp = _lp_ppl(f, float(n))
    scale = c ** (1.0 / n)
    value = scale * lp.value
    if math.isfinite(spec.finite_bound):
        cap = pw.essential_sup_abs(f) / spec.finite_bound
        if cap > value:
            return NormResult(cap, "exact", 0.0)
    return NormResult(value, lp.method, scale * lp.error_bound)


def _lorentz_ppl(f: PPL, X: SpaceDescriptor) -> NormResult:
    """atom*sup|f| plus the integral of f* dphi, for an f in the space."""
    spec = X.quasi
    atom = spec.atom_at_zero
    r = rr.decreasing_rearrangement(f)
    # an f in the space is bounded wherever phi jumps at zero
    atom_part = atom * r.sup_value if atom > 0.0 else 0.0
    density = spec.density()
    if r.exact is not None:
        integral = pw.integrate(pw.product(r.exact, density))
        return NormResult(atom_part + integral, "exact", 0.0)
    # level form of the same integral: each integrand point needs one exact
    # distribution evaluation instead of a rearrangement bisection; the
    # jump of the parameter at zero is already inside phi(d), so the atom
    # term must not be added again here
    end_val = spec.value_at_end
    segs = rr._abs_segments(f)

    def level(lam: float) -> float:
        d = rr._measure_above(segs, lam)
        if math.isinf(d):
            return end_val
        return spec.value(d) if d > 0.0 else 0.0

    hi = r.sup_value if math.isfinite(r.sup_value) else INF
    val, err = cz._quad(level, 0.0, hi, rr.critical_values(f), QUAD_TOL)
    return NormResult(val, "quadrature", err)


@functools.lru_cache(maxsize=64)
def _line_breaks(spec: QuasiConcaveSpec) -> tuple[float, ...] | None:
    """phi's breakpoints when sup phi(t)*(c + K/t), c, K >= 0, over an
    interval sits at its ends and those breakpoints; None otherwise.

    It does when every piece of phi is a sum of c_j*t**a_j with c_j > 0 and
    0 <= a_j <= 1: the derivative times t**2 is then a sum whose negative
    terms all come before its positive ones in exponent order, so it
    changes sign at most once, from - to + (Descartes' rule of signs).
    """
    if all(k == 0 and c > 0.0 and 0.0 <= a <= 1.0
           for p in spec.phi.pieces for (a, k), c in p.pairs):
        return tuple(spec.phi.breakpoints())
    return None


def _weighted_sup(spec: QuasiConcaveSpec, extra: TermMap, a: float,
                  b: float, breaks: tuple[float, ...] | None) -> float:
    """sup of phi(t)*extra(t) over t in [a, b], limits at 0 and inf included.

    ``breaks`` is ``_line_breaks(spec)`` when extra is c + K/t with c, K >= 0
    (the keys (0, 0) and (-1, 0)); unless it is None, the ends and those
    breakpoints stand for the whole interval.  Otherwise the product is
    split at its stationary points.
    """
    extra = {key: c for key, c in extra.items() if c != 0.0}
    if not extra or b < a:
        return 0.0
    if breaks is None:
        h = pw.product(spec.phi, pw.make_ppl(spec.domain, [(a, b, extra)]))
        return max((v for lo, hi, tm in pw.monotone_segments(h)
                    for v in pw.segment_end_values(tm, lo, hi)), default=0.0)
    c, K = extra.get((0.0, 0), 0.0), extra.get((-1.0, 0), 0.0)
    best = 0.0
    for t in (a, b, *(x for x in breaks if a < x < b)):
        if 0.0 < t < INF:
            v = spec.value(t) * (c + K / t)
        else:
            end = spec.phi.pieces[0 if t == 0.0 else -1].term_map()
            v = pw.limit_term_map(_map_times(end, extra),
                                  "zero" if t == 0.0 else "inf")
        best = max(best, v)
    return best


def _peak_limit_at_infinity(spec: QuasiConcaveSpec, tail: TermMap,
                            mass: float) -> float:
    """lim of phi(t)*f**(t) at infinity when |f| > 0 tends to 0 along its
    last piece, whose terms are ``tail``, and mass is the integral of |f|.

    f* has the germ of that piece at infinity, because the tail is only
    shifted by a finite measure.  An integrable f gives f** ~ mass/t;
    otherwise the integral of f* grows like the integral of the germ.
    """
    phi = pw.germ(spec.phi.pieces[-1].term_map(), "inf")
    inv_t = (1.0, -1.0, 0)
    if math.isfinite(mass):
        return mass * pw.germ_limit(pw.germ_product(phi, inv_t), "inf")
    grown = pw.germ_product(pw.germ_integral(pw.germ(tail, "inf")), inv_t)
    return pw.germ_limit(pw.germ_product(phi, grown), "inf")


def _split_level(hi: float, lo: float) -> float:
    """A level between lo and hi: geometric across more than a factor of 4."""
    return math.sqrt(hi * lo) if lo > 0.0 and hi > 4.0 * lo else 0.5 * (hi + lo)


def _marcinkiewicz_ppl(f: PPL, X: SpaceDescriptor) -> NormResult:
    """sup of phi*f**, for an f in the space."""
    spec = X.quasi
    r = rr.decreasing_rearrangement(f)
    if r.exact is not None:
        w = pw.product(spec.phi, cz.cesaro_transform(r.exact))
        return NormResult(pw.essential_sup_abs(w), "exact", 0.0)
    return _marcinkiewicz_levels(f, spec, r.sup_value, r.value_at_infinity)


def _marcinkiewicz_levels(f: PPL, spec: QuasiConcaveSpec, sup: float,
                          low: float) -> NormResult:
    """sup over t of phi(t)*f**(t), searched over levels lam of |f|, for
    an f in the space (so every limit below is finite).

    At t = d(lam) the layer-cake identity has no leftover term: the
    integral G of f* over [0, t] is the mass M(lam) of |f| above lam, so
    one pass over the segments of |f| (``rearrange._level_mass``) gives a
    sample phi(d)*M/d with no bisection.  The samples are points
    (lam, t, G, value), in decreasing lam and so increasing t:

    - the critical values of |f| between low = f*(inf) and sup are
      sampled first; between two of them d and M are smooth.
    - a level c that |f| takes on a set of length L > 0 (a flat piece, a
      flat top, the level low on [d(low), end]) makes f* = c on
      [d(c), d(c) + L], where G = M + c*(t - d); the sup of phi*G/t there
      is taken in closed form (``_weighted_sup``) without any distribution
      evaluation.
    - an unbounded |f| is |f|'s first segment near 0, so below t = d(top
      level) phi*f** is phi times the running average of that segment: an
      exact power-log sup, its limit at 0 read off the germs.
    - when |f| > 0 runs to infinity with low = 0, the limit of phi*f** at
      infinity comes from the germs (``_peak_limit_at_infinity``), and a
      sample at the level of |f|'s last piece at 2**40*(1 + its start)
      fixes the last finite point, far past every other part of |f|.

    G is concave with slope lam at d(lam), so on [t_i, t_j] it lies under
    both tangent lines G_i + lam_i*(t - t_i) and G_j + lam_j*(t - t_j),
    and the sup of phi times either line over t is in closed form.  That
    envelope bounds phi*f** on the stretch from above, to second order in
    its width.  The stretch with the largest envelope is split at a new
    level until no envelope exceeds the best value by more than
    ``SUP_SEARCH_TOL`` of it (or ``SUP_SEARCH_MAX_LEVELS`` samples are
    spent), and the error bound is the largest envelope minus the value.
    Past the last finite point of an open tail under an unbounded phi no
    line bounds the sup; there the germ is trusted to run monotonically
    from that point to its limit.
    """
    msegs = rr._mass_segments(f)
    flat: dict[float, float] = {}
    for m in msegs:
        if m.seg.cross is None and m.seg.vlo > low:
            flat[m.seg.vlo] = flat.get(m.seg.vlo, 0.0) + (m.seg.hi - m.seg.lo)
    knots = [v for v in reversed(rr.critical_values(f)) if low < v < sup]
    last = msegs[-1].seg
    if low == 0.0 and math.isinf(last.hi):
        far = pw.eval_term_map(last.terms, SUP_SEARCH_FAR * (1.0 + last.lo))
        if 0.0 < far < (knots[-1] if knots else sup):
            knots.append(far)
    knots = ([sup] if math.isfinite(sup) else []) + knots + [low]
    breaks = _line_breaks(spec)

    def line(lam: float, t: float, G: float) -> TermMap:
        # G + lam*(s - t) = lam*s + K, as c + K/s once divided by s
        return {(0.0, 0): lam, (-1.0, 0): max(G - lam * t, 0.0)}

    def point(lam: float, t: float, G: float) -> tuple[float, ...]:
        # at t = 0, phi*f** tends to phi(0+)*sup
        value = spec.value(t) * G / t if t > 0.0 else spec.atom_at_zero * lam
        return lam, t, G, value

    points = []
    closed: list[float] = []  # sups of flat stretches and of the head
    for lam in knots:
        d, G = (0.0, 0.0) if lam == sup else rr._level_mass(msegs, lam)
        if math.isinf(d):
            # only an open tail or a tail above low reaches here
            limit = _peak_limit_at_infinity(spec, last.terms, G) \
                if low == 0.0 else low * spec.value_at_end
            points.append((lam, INF, INF, limit))
            break
        points.append(point(lam, d, G))
        length = flat.get(lam, 0.0) if lam > low else f.domain.end - d
        if length > 0.0:
            closed.append(_weighted_sup(spec, line(lam, d, G), d, d + length,
                                        breaks))
            if lam > low:
                points.append(point(lam, d + length, G + lam * length))
    if math.isinf(sup):
        head = msegs[0]
        average = {(a - 1.0, k): c for (a, k), c in head.anti.items()}
        average[(-1.0, 0)] = average.get((-1.0, 0), 0.0) - head.alo
        closed.append(_weighted_sup(spec, average, 0.0, points[0][1], None))
    best = max([p[3] for p in points] + closed)

    def envelope(A, B) -> float:
        la, ta, Ga, _ = A
        lb, tb, Gb, _ = B
        if math.isinf(tb):
            return _weighted_sup(spec, line(la, ta, Ga), ta, INF, breaks)
        ka, kb = line(la, ta, Ga), line(lb, tb, Gb)
        tc = min(max((kb[(-1.0, 0)] - ka[(-1.0, 0)]) / (la - lb), ta), tb)
        return max(_weighted_sup(spec, ka, ta, tc, breaks),
                   _weighted_sup(spec, kb, tc, tb, breaks))

    heap: list = []
    settled = list(closed)  # envelopes no split can lower
    order = itertools.count()

    def push(A, B) -> None:
        top = envelope(A, B)
        if math.isinf(top) and math.isinf(B[1]):
            # an open tail under an unbounded phi: trust the germ
            settled.append(max(A[3], B[3]))
        else:
            heapq.heappush(heap, (-top, next(order), A, B))

    for A, B in zip(points, points[1:]):
        if A[0] != B[0]:
            push(A, B)
    for _ in range(SUP_SEARCH_MAX_LEVELS):
        if not heap or -heap[0][0] <= best * (1.0 + SUP_SEARCH_TOL):
            break
        top, _, A, B = heapq.heappop(heap)
        lam = _split_level(A[0], B[0])
        if not B[0] < lam < A[0]:
            settled.append(-top)  # no float left between the two levels
            continue
        P = point(lam, *rr._level_mass(msegs, lam))
        best = max(best, P[3])
        push(A, P)
        push(P, B)
    upper = max(settled + [best] + ([-heap[0][0]] if heap else []))
    return NormResult(best, "sup-search", upper - best)


# ---------------------------------------------------------------------------
# membership


def _lp_member(head: pw.Germ | None, tail: pw.Germ | None, p: float) -> bool:
    """Is |f|**p integrable at both ends?  It has the germ exponents a*p."""
    return not ((head is not None and pw.integral_diverges(head[1] * p, "zero"))
                or (tail is not None and pw.integral_diverges(tail[1] * p, "inf")))


def _orlicz_member(head: pw.Germ | None, blows_up: bool,
                   tail: pw.Germ | None, at_inf: float,
                   spec: OrliczFunctionSpec) -> bool:
    """Is the modular of f/lam finite for some lam?

    Large values read Phi at its finite bound or its germ u**b at infinity,
    where Phi(|f|/lam) ~ t**(a_f*b) near 0; values on the infinite tail read
    Phi's zero bound or its germ u**c at 0, where Phi(|f|/lam) ~ t**(a_f*c).
    """
    gen = spec.phi.pieces
    if blows_up:
        if math.isfinite(spec.finite_bound):
            return False
        b = pw.germ(gen[-1].term_map(), "inf")[1]
        if pw.integral_diverges(head[1] * b, "zero"):
            return False
    if tail is None or spec.zero_bound > 0.0:
        return True
    if at_inf > 0.0:
        return False
    c = pw.germ(gen[0].term_map(), "zero")[1]
    return not pw.integral_diverges(tail[1] * c, "inf")


def _quasi_member(head: pw.Germ | None, blows_up: bool, last: pw.Piece,
                  tail: pw.Germ | None, at_inf: float,
                  X: SpaceDescriptor) -> bool:
    """Is the Lorentz integral or the Marcinkiewicz sup of f finite?

    Where |f| blows up at 0, f* has f's germ t**a there, and phi's first
    piece has a germ t**b with b > 0 unless phi jumps at zero (then
    atom*sup|f| is infinite).  The Lorentz integrand f*phi' ~ t**(a+b-1)
    converges iff a + b > 0; phi*f** ~ t**(a+b) needs a > -1 and a finite
    germ limit.  At infinity f* tends to f*(inf): a positive limit is
    finite exactly under a bounded phi, and a vanishing one keeps f's
    germ.  The Lorentz integrand then converges iff a + b < 0 or phi is
    bounded, and phi*f** has the limit of ``_peak_limit_at_infinity``.
    A validated phi has 0 <= b <= 1 and a finite limit at 0, so it jumps
    at zero, or is bounded at infinity, exactly where its germ there is a
    constant.
    """
    spec = X.quasi
    lorentz = X.tag == "lorentz"
    if blows_up:
        phi = pw.germ(spec.phi.pieces[0].term_map(), "zero")
        if phi[1:] == (0.0, 0):
            return False
        if lorentz:
            if head[1] + phi[1] <= 0.0:
                return False
        elif pw.integral_diverges(head[1], "zero"):
            return False
        else:
            average = pw.germ_product(pw.germ_integral(head), (1.0, -1.0, 0))
            if math.isinf(pw.germ_limit(pw.germ_product(phi, average), "zero")):
                return False
    if tail is None:
        return True
    phi = pw.germ(spec.phi.pieces[-1].term_map(), "inf")
    bounded_phi = phi[1:] == (0.0, 0)
    if at_inf > 0.0 or bounded_phi:
        return bounded_phi
    if lorentz:
        return tail[1] + phi[1] < 0.0
    # any finite mass gives the limit the same finiteness
    mass = INF if pw.integral_diverges(tail[1], "inf") else 1.0
    return math.isfinite(_peak_limit_at_infinity(spec, last.term_map(), mass))


def in_space(f: PPL, X: SpaceDescriptor) -> bool:
    """Is the norm of f in X finite?  Exact, and no norm is computed.

    f lives on X's domain.  A piecewise power-log function is bounded
    between its ends, so the germs of its first piece at 0 and of its last
    piece at infinity, the limit of |f| at infinity and the germs of phi or
    Phi at their ends decide: integrals converge by
    ``piecewise.integral_diverges`` and sups are finite by
    ``piecewise.germ_limit``.  A limit of |f| at infinity that is infinite
    leaves f outside every space.  An averaged space holds f exactly when
    the running average of |f| is defined and lies in the base space.
    """
    if X.tag == "cesaro":
        try:
            g = cz.cesaro_transform(pw.absolute(f))
        except TransformUndefinedError:
            return False
        return in_space(g, X.inner)
    if f.is_zero:
        return True
    first, last = f.pieces[0], f.pieces[-1]
    head = pw.germ(first.term_map(), "zero") if first.lo == 0.0 else None
    tail = pw.germ(last.term_map(), "inf") if math.isinf(last.hi) else None
    blows_up = head is not None and math.isinf(pw.germ_limit(head, "zero"))
    at_inf = 0.0 if tail is None else abs(pw.germ_limit(tail, "inf"))
    if math.isinf(at_inf):
        return False
    if X.tag == "Lp":
        return not blows_up if math.isinf(X.p) else _lp_member(head, tail, X.p)
    if X.tag == "L1capLinf":
        return not blows_up and _lp_member(head, tail, 1.0)
    if X.tag == "L1plusLinf":
        # the integral of f* over [0, 1]: f* is bounded past the head
        return _lp_member(head, None, 1.0)
    if X.tag == "orlicz":
        return _orlicz_member(head, blows_up, tail, at_inf, X.orlicz)
    if X.tag in ("lorentz", "marcinkiewicz"):
        return _quasi_member(head, blows_up, last, tail, at_inf, X)
    raise MethodInapplicableError(f"unknown space tag {X.tag!r}")


# ---------------------------------------------------------------------------
# dispatcher


def norm(f, X: SpaceDescriptor) -> NormResult:
    """Norm of f in X.

    f is an exact piecewise function or a rearrangement.  Exact inputs use
    closed forms wherever the space's defining formula stays inside the
    representation family.  A rearrangement is measured through its exact
    form; without one, a symmetric X gives the norm of the source (there
    ||f*|| = ||f||) and any other X raises MethodInapplicableError.  An f
    outside X (``in_space``) has the exact norm +inf.
    """
    if isinstance(f, rr.RearrangedFunction):
        if f.exact is not None:
            return norm(f.exact, X)
        if not X.is_symmetric:
            raise MethodInapplicableError(
                "an inexact rearrangement has a norm only in symmetric spaces")
        return norm(f.source, X)
    if not isinstance(f, PPL):
        raise TypeError(f"cannot take a norm of {type(f).__name__}")
    if f.domain != X.domain:
        raise MethodInapplicableError("function and space domains differ")
    if f.is_zero:
        return NormResult(0.0, "exact", 0.0)
    if X.tag == "cesaro":
        try:
            transformed = cz.cesaro_transform(pw.absolute(f))
        except TransformUndefinedError:
            return NormResult(INF, "exact", 0.0)
        return norm(transformed, X.inner)
    if not in_space(f, X):
        return NormResult(INF, "exact", 0.0)

    if X.tag == "Lp":
        if math.isinf(X.p):
            return NormResult(pw.essential_sup_abs(f), "exact", 0.0)
        return _lp_ppl(f, X.p)
    if X.tag == "L1capLinf":
        one = _lp_ppl(f, 1.0)
        sup = pw.essential_sup_abs(f)
        if one.value >= sup:
            return one
        return NormResult(sup, "exact", 0.0)
    if X.tag == "L1plusLinf":
        return _sum_space_ppl(f)
    if X.tag == "orlicz":
        spec = X.orlicz
        power = _power_generator(spec)
        if power is not None:
            return _orlicz_power_norm(f, spec, *power)
        exact_modular = f.is_step or _orlicz_exact_ready(f, spec)
        return _luxemburg(_orlicz_modular(f, spec), exact_modular)
    if X.tag == "lorentz":
        return _lorentz_ppl(f, X)
    return _marcinkiewicz_ppl(f, X)


def fundamental_function(X: SpaceDescriptor, t: float) -> float:
    """Norm of the indicator of [0, t]."""
    if t <= 0.0:
        return 0.0
    t = min(t, X.domain.end)
    return norm(pw.indicator(X.domain, 0.0, t), X).value


# ---------------------------------------------------------------------------
# dilation structure


@dataclass(frozen=True)
class BoydIndices:
    lower: float
    upper: float
    method: str  # "closed-form"


@dataclass(frozen=True)
class BoundednessVerdict:
    bounded: bool
    lower_index: float
    method: str


def _reciprocal(a: float) -> float:
    return 1.0 / a if a > 0.0 else INF


def _end_indices(X: SpaceDescriptor) -> tuple[float, float]:
    """(index on small sets, index on large sets) of a symmetric space.

    A Lorentz or Marcinkiewicz parameter phi ~ t**a (log factors aside)
    gives the index 1/a: phi's first piece at 0 rules small sets and its
    last piece at infinity large ones.  An Orlicz generator Phi ~ u**b
    gives the index b: large values (small sets) read Phi at infinity,
    where a finite bound makes it inf, and small values (large sets) read
    Phi at 0, where a zero bound > 0 makes it inf.
    """
    if X.tag == "Lp":
        return X.p, X.p
    if X.tag == "L1capLinf":
        return INF, 1.0
    if X.tag == "L1plusLinf":
        return 1.0, INF
    if X.tag in ("lorentz", "marcinkiewicz"):
        pieces = X.quasi.phi.pieces
        return (_reciprocal(pw.germ(pieces[0].term_map(), "zero")[1]),
                _reciprocal(pw.germ(pieces[-1].term_map(), "inf")[1]))
    if X.tag == "orlicz":
        spec = X.orlicz
        pieces = spec.phi.pieces
        small = INF if math.isfinite(spec.finite_bound) \
            else pw.germ(pieces[-1].term_map(), "inf")[1]
        large = INF if spec.zero_bound > 0.0 \
            else pw.germ(pieces[0].term_map(), "zero")[1]
        return small, large
    if X.tag == "cesaro":
        raise MethodInapplicableError(
            "dilation indices are computed for the symmetric base space")
    raise MethodInapplicableError(f"unknown space tag {X.tag!r}")


def boyd_indices(X: SpaceDescriptor) -> BoydIndices:
    """Lower and upper dilation (Boyd) indices in p-units, so Lp has (p, p).

    On the half-line they are the smaller and the larger of the indices on
    small and on large sets; the unit interval has only small sets.
    """
    small, large = _end_indices(X)
    if X.domain.is_unit:
        return BoydIndices(small, small, "closed-form")
    return BoydIndices(min(small, large), max(small, large), "closed-form")


def cesaro_bounded(X: SpaceDescriptor) -> BoundednessVerdict:
    """Is the averaging operator bounded on X (lower dilation index > 1)?"""
    idx = boyd_indices(X)
    return BoundednessVerdict(idx.lower > 1.0, idx.lower, idx.method)


def cx_nontrivial(X: SpaceDescriptor) -> bool:
    """Is the averaged space over X nonzero?

    Always true on the unit interval; on the half-line it holds exactly when
    the decaying tail 1/x beyond 1 belongs to X (``in_space``).  For Lorentz
    and Marcinkiewicz spaces that is when phi(t) ~ c*t**a*(ln t)**k at
    infinity has a < 1.
    """
    base = X.inner if X.tag == "cesaro" else X
    return base.domain.is_unit or in_space(
        pw.power_piece(base.domain, 1.0, INF, 1.0, -1.0), base)
