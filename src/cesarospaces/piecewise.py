"""Exact piecewise functions built from terms c * t**alpha * (ln t)**logpow.

The family is closed under addition, scalar multiplication, pointwise
product, restriction, absolute value (after splitting pieces at sign
changes), antidifferentiation, and division by t.  That closure is what lets
the averaging transform and every norm of a step function stay exact.

A function is a finite list of disjoint half-open pieces [lo, hi) on the
unit interval [0, 1] or the half-line [0, inf); off the pieces the function
is zero.  Improper behavior at the endpoints 0 and inf is decided
analytically from the dominant monomial, never by sampling.  The germ
helpers (:func:`germ`, :func:`germ_limit`, :func:`integral_diverges`,
:func:`germ_product`, :func:`germ_average`) are the one place that makes
those endpoint decisions; every other module reads them from there.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from . import rootfind
from .errors import (
    DomainMismatchError,
    EvaluationDomainError,
    RepresentationError,
    UndefinedIntegralError,
    ValidationError,
)

INF = math.inf
MAX_TERMS_PER_PIECE = 64

TermMap = dict[tuple[float, int], float]
TermView = Mapping[tuple[float, int], float]  # read-only view of a term map
TermPairs = tuple[tuple[tuple[float, int], float], ...]
T = TypeVar("T")


@dataclass(frozen=True)
class DomainSpec:
    """Underlying interval: the unit interval or the half-line."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("unit", "halfline"):
            raise ValidationError(f"unknown domain kind {self.kind!r}")

    @property
    def end(self) -> float:
        return 1.0 if self.kind == "unit" else INF

    @property
    def is_unit(self) -> bool:
        return self.kind == "unit"


UNIT = DomainSpec("unit")
HALFLINE = DomainSpec("halfline")


def domain_from_name(name: str) -> DomainSpec:
    return DomainSpec(name)


@dataclass(frozen=True)
class Term:
    """One summand c * t**alpha * (ln t)**logpow."""

    coeff: float
    alpha: float = 0.0
    logpow: int = 0


@dataclass(frozen=True, repr=False)
class Piece:
    """The sum of ``pairs`` on [lo, hi).

    ``pairs`` is the canonical form :func:`make_ppl` builds: the nonzero
    ((alpha, logpow), coeff) pairs sorted by key.  It alone decides equality
    and hashing; :meth:`term_map` is the same data as a read-only map.
    """

    lo: float
    hi: float
    pairs: TermPairs
    _map: TermView = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_map", MappingProxyType(dict(self.pairs)))

    @property
    def terms(self) -> tuple[Term, ...]:
        """The summands as :class:`Term` values, in sorted key order."""
        return tuple(Term(c, alpha, k) for (alpha, k), c in self.pairs)

    def term_map(self) -> TermView:
        """Read-only (alpha, logpow) -> coeff, in sorted key order."""
        return self._map

    def __repr__(self) -> str:
        return f"Piece(lo={self.lo!r}, hi={self.hi!r}, terms={self.terms!r})"

    def __reduce__(self):
        # rebuild the map on unpickling; a mappingproxy cannot be pickled
        return Piece, (self.lo, self.hi, self.pairs)


@dataclass(frozen=True)
class PiecewisePowerLog:
    """Canonical piecewise power-log function.

    Construct through :func:`make_ppl` (or the ``step_function`` /
    ``indicator`` helpers), which sorts, merges and validates the pieces.
    Structural equality of two canonical objects is exact symbolic equality.
    """

    domain: DomainSpec
    pieces: tuple[Piece, ...]

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    @property
    def is_step(self) -> bool:
        return all(len(p.pairs) == 1 and (0.0, 0) in p.term_map()
                   for p in self.pieces)

    def breakpoints(self) -> list[float]:
        pts: list[float] = []
        for p in self.pieces:
            for x in (p.lo, p.hi):
                if not math.isinf(x) and (not pts or x > pts[-1]):
                    pts.append(x)
        return pts

    def support_bound(self) -> float:
        """Right end of the last piece (0 for the zero function)."""
        return self.pieces[-1].hi if self.pieces else 0.0

    def __call__(self, t: float) -> float:
        return evaluate(self, t)

    def __reduce__(self):
        # the fields alone: memos (see _memo) stay out of a pickle or copy
        return PiecewisePowerLog, (self.domain, self.pieces)


PPL = PiecewisePowerLog

_SELF = object()  # a memo whose value is the function that keeps it
_ABS = "_abs"     # the memo name of |f|


def _memo(f: PPL, name: str, compute: Callable[[PPL], T]) -> T:
    """``compute(f)``, computed once per object and kept on f.

    The value lives in f's instance dict for as long as f does, not in a
    global cache.  The fields alone decide ``==``, ``hash``, ``repr`` and
    pickles, so a memo never shows.  A call that raises keeps nothing.  A
    value that is f itself is kept as a marker, not as a reference cycle.
    """
    value = f.__dict__.get(name)
    if value is None:
        value = compute(f)
        f.__dict__[name] = _SELF if value is f else value
        return value
    return f if value is _SELF else value


def canonical_pairs(tm: TermView) -> TermPairs:
    """The nonzero terms of a map as ((alpha, logpow), coeff) pairs, sorted."""
    return tuple(sorted((k, c) for k, c in tm.items() if c != 0.0))


def make_ppl(domain: DomainSpec,
             pieces: Iterable[tuple[float, float, TermMap]]) -> PPL:
    """Canonicalize raw (lo, hi, term-map) triples into a function."""
    cleaned: list[tuple[float, float, TermPairs]] = []
    for lo, hi, tm in pieces:
        pairs = canonical_pairs(tm)
        if not pairs or lo >= hi:
            continue
        if lo < 0.0 or hi > domain.end:
            raise ValidationError(
                f"piece [{lo}, {hi}) leaves the domain [0, {domain.end}]")
        if len(pairs) > MAX_TERMS_PER_PIECE:
            raise RepresentationError(
                f"piece would carry {len(pairs)} terms (budget {MAX_TERMS_PER_PIECE})")
        for (_alpha, k), _c in pairs:
            if k < 0 or k != int(k):
                raise ValidationError("logpow must be a nonnegative integer")
        cleaned.append((lo, hi, pairs))
    cleaned.sort(key=lambda item: item[0])
    merged: list[tuple[float, float, TermPairs]] = []
    for lo, hi, pairs in cleaned:
        if merged and lo < merged[-1][1]:
            raise ValidationError("pieces overlap")
        if merged and lo == merged[-1][1] and pairs == merged[-1][2]:
            merged[-1] = (merged[-1][0], hi, pairs)
        else:
            merged.append((lo, hi, pairs))
    return PPL(domain, tuple(Piece(lo, hi, pairs) for lo, hi, pairs in merged))


def zero(domain: DomainSpec) -> PPL:
    return PPL(domain, ())


def step_function(domain: DomainSpec,
                  steps: Sequence[tuple[float, float, float]]) -> PPL:
    """Finite-valued step function from (lo, hi, value) triples."""
    return make_ppl(domain, [(lo, hi, {(0.0, 0): v}) for lo, hi, v in steps])


def indicator(domain: DomainSpec, lo: float, hi: float) -> PPL:
    return step_function(domain, [(lo, hi, 1.0)])


def power_piece(domain: DomainSpec, lo: float, hi: float, coeff: float,
                alpha: float, logpow: int = 0) -> PPL:
    return make_ppl(domain, [(lo, hi, {(alpha, logpow): coeff})])


# ---------------------------------------------------------------------------
# monomial calculus


def eval_term_map(tm: TermMap, t: float) -> float:
    if t <= 0.0:
        raise EvaluationDomainError("term evaluation needs t > 0")
    # plain powers keep integer cases exact (10**1 == 10.0 on the nose),
    # which the symbolic-equality guarantees rely on
    lnt = math.log(t)
    total = 0.0
    for (alpha, k), c in tm.items():
        try:
            v = t ** alpha
        except OverflowError:
            v = INF
        total += c * v * (lnt ** k if k else 1.0)
    return total


def average_map(tm: TermView) -> TermMap:
    """Exact terms of (1/t) * (integral of tm), keyed by tm's own exponents:
    t**alpha * (ln t)**j, and (ln t)**(k + 1)/t for alpha = -1.

    Keying by alpha, not by (alpha + 1) - 1, keeps a non-dyadic exponent
    exact, so a running average keeps the exponent of its integrand.
    """
    out: TermMap = {}
    for (alpha, k), c in tm.items():
        if alpha == -1.0:
            key = (-1.0, k + 1)
            out[key] = out.get(key, 0.0) + c / (k + 1)
        else:
            for j in range(k + 1):
                coef = (c * (-1.0) ** (k - j) * math.factorial(k) / math.factorial(j)
                        / (alpha + 1.0) ** (k - j + 1))
                key = (alpha, j)
                out[key] = out.get(key, 0.0) + coef
    return {k: c for k, c in out.items() if c != 0.0}


def antiderivative_map(tm: TermView) -> TermMap:
    """Exact antiderivative, again a sum of monomials t**beta * (ln t)**j:
    the keys of :func:`average_map` shifted by one power of t."""
    out: TermMap = {}
    for (alpha, j), c in average_map(tm).items():
        key = (alpha + 1.0, j)
        out[key] = out.get(key, 0.0) + c
    return {k: c for k, c in out.items() if c != 0.0}


Germ = tuple[float, float, int]  # dominant monomial c * t**a * (ln t)**k


def germ(tm: TermView, at: str) -> Germ:
    """Germ at ``"zero"`` or ``"inf"`` of a map with nonzero coefficients."""
    if at not in ("zero", "inf"):
        raise ValueError(f"unknown limit target {at!r}")
    a, k = rootfind.dominant_key(tm, at == "inf")
    return tm[(a, k)], a, k


def germ_limit(g: Germ, at: str) -> float:
    """Limit of the germ at its end (may be +-inf)."""
    c, a, k = g
    if (a > 0.0 if at == "inf" else a < 0.0) or (a == 0.0 and k > 0):
        # ln t tends to -inf at zero, where k flips the sign k times
        return math.copysign(INF, c * (1.0 if at == "inf" else -1.0) ** k)
    return c if a == 0.0 else 0.0


def integral_diverges(a: float, at: str) -> bool:
    """Is the integral of t**a * (ln t)**k, k >= 0, divergent at the end?"""
    return a >= -1.0 if at == "inf" else a <= -1.0


def germ_product(g: Germ, h: Germ) -> Germ:
    """Germ of a product, summed as :func:`product` sums keys."""
    return g[0] * h[0], g[1] + h[1], g[2] + h[2]


def germ_average(g: Germ) -> Germ:
    """Germ of (1/t) * (integral of g) toward an end where the integral
    diverges, keyed as :func:`average_map` keys it."""
    c, a, k = g
    if a == -1.0:
        return c / (k + 1), -1.0, k + 1
    return c / (a + 1.0), a, k


def limit_term_map(tm: TermMap, at: str) -> float:
    """Limit of the monomial sum at ``"zero"`` or ``"inf"`` (may be +-inf)."""
    live = {k: c for k, c in tm.items() if c != 0.0}
    return germ_limit(germ(live, at), at) if live else 0.0


def _piece_integral(tm: TermMap, p: float, q: float) -> float:
    """Exact integral over [p, q), +-inf on divergence."""
    lower, upper = segment_end_values(antiderivative_map(tm), p, q)
    if math.isinf(upper) and math.isinf(lower):
        if upper == lower:
            # the two halves diverge with opposite signs
            raise UndefinedIntegralError(
                "integral diverges to +inf and -inf inside one piece")
        return upper
    if math.isinf(upper):
        return upper
    if math.isinf(lower):
        return -lower
    return upper - lower


def integrate(f: PPL, a: float = 0.0, b: float | None = None) -> float:
    """Exact integral of f over [a, b] (clamped to the domain).

    Divergence is decided analytically and returned as +-inf; contributions
    of both infinite signs raise :class:`UndefinedIntegralError`.
    """
    if b is None:
        b = f.domain.end
    a = max(a, 0.0)
    b = min(b, f.domain.end)
    if b <= a:
        return 0.0
    finite: list[float] = []
    pos = neg = False
    for piece in f.pieces:
        p, q = max(piece.lo, a), min(piece.hi, b)
        if q <= p:
            continue
        val = _piece_integral(piece.term_map(), p, q)
        if val == INF:
            pos = True
        elif val == -INF:
            neg = True
        else:
            finite.append(val)
    if pos and neg:
        raise UndefinedIntegralError("integral has divergences of both signs")
    if pos:
        return INF
    if neg:
        return -INF
    return math.fsum(finite)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: PPL, t: float) -> float:
    """Pointwise value; 0 off the pieces.

    The right endpoint of the domain is evaluated through the piece that
    closes there, so an indicator of [0, 1] is 1 at t = 1 on the unit
    interval.  At t = 0 the value is the piece limit when it is finite.
    """
    if t < 0.0 or t > f.domain.end:
        raise EvaluationDomainError(f"t = {t} outside domain")
    if t == 0.0:
        if f.pieces and f.pieces[0].lo == 0.0:
            lim = limit_term_map(f.pieces[0].term_map(), "zero")
            if math.isinf(lim):
                raise EvaluationDomainError("singular piece at t = 0")
            return lim
        return 0.0
    for piece in f.pieces:
        if piece.lo <= t < piece.hi or (t == piece.hi == f.domain.end):
            return eval_term_map(piece.term_map(), t)
    # NaN fails every comparison above and would read as the gap value
    if math.isnan(t):
        raise ValueError("evaluation points must be numbers")
    return 0.0


def evaluate_sorted(f: PPL, ts: Sequence[float]) -> list[float]:
    """``[evaluate(f, t) for t in ts]``, in one walk over the pieces per
    nondecreasing run of ``ts``, so sorted points take a single walk.

    Each piece finds its points by bisection and evaluates them through the
    same term map, so every value is the pointwise float, and an error is
    the pointwise one, raised at the same point.  NaN raises ValueError.
    """
    out: list[float] = []
    # a run ends where the next point is smaller; NaN compares false both
    # ways, so it makes a run of its own
    steps = map(operator.le, ts, itertools.islice(ts, 1, None))
    ends = itertools.compress(itertools.count(1), map(operator.not_, steps))
    first = 0
    for last in itertools.chain(ends, (len(ts),)):
        _walk(f, ts, first, last, out)
        first = last
    return out


def _walk(f: PPL, ts: Sequence[float], first: int, last: int,
          out: list[float]) -> None:
    """Append the values at the nondecreasing points ts[first:last]."""
    if first == last:
        return
    if math.isnan(ts[first]):
        raise ValueError("evaluation points must be numbers")
    if ts[first] < 0.0:
        raise EvaluationDomainError(f"t = {ts[first]} outside domain")
    end = f.domain.end
    i = bisect.bisect_right(ts, 0.0, first, last)
    stop = bisect.bisect_right(ts, end, i, last)
    if i > first:
        out += [evaluate(f, 0.0)] * (i - first)
    for piece in f.pieces:
        lo = bisect.bisect_left(ts, piece.lo, i, stop)
        # the piece closing at the domain's end also takes t = end
        hi = stop if piece.hi == end else \
            bisect.bisect_left(ts, piece.hi, lo, stop)
        out += [0.0] * (lo - i)
        out += _eval_term_map_at(piece.term_map(), ts[lo:hi])
        i = hi
    out += [0.0] * (stop - i)
    if stop < last:
        raise EvaluationDomainError(f"t = {ts[stop]} outside domain")


def _eval_term_map_at(tm: TermView, ts: Sequence[float]) -> list[float]:
    """``[eval_term_map(tm, t) for t in ts]`` for points t > 0, bit for bit.

    A one-term map without a log factor is the same expression
    0.0 + c * t**alpha * 1.0 without ln t, and a constant one, whose
    t**0.0 is 1.0 at every t, has one value.
    """
    if len(tm) == 1:
        ((alpha, k), c), = tm.items()
        if k == 0 and alpha == 0.0:
            return [0.0 + c * 1.0 * 1.0] * len(ts)
        if k == 0:
            try:
                return [0.0 + c * t ** alpha * 1.0 for t in ts]
            except OverflowError:
                pass  # eval_term_map reads an overflowing power as inf
    return [eval_term_map(tm, t) for t in ts]


def limit_at_zero(f: PPL) -> float:
    if f.pieces and f.pieces[0].lo == 0.0:
        return limit_term_map(f.pieces[0].term_map(), "zero")
    return 0.0


def limit_at_infinity(f: PPL) -> float:
    if f.domain.is_unit:
        raise EvaluationDomainError("limit at infinity needs the half-line")
    if f.pieces and math.isinf(f.pieces[-1].hi):
        return limit_term_map(f.pieces[-1].term_map(), "inf")
    return 0.0


# ---------------------------------------------------------------------------
# algebra


def _refined_cells(f: PPL, g: PPL) -> list[tuple[float, float, TermMap, TermMap]]:
    cuts: set[float] = set()
    for h in (f, g):
        for p in h.pieces:
            cuts.add(p.lo)
            cuts.add(p.hi)
    knots = sorted(cuts)
    cells = []
    for lo, hi in zip(knots, knots[1:]):
        fm = _map_on(f, lo, hi)
        gm = _map_on(g, lo, hi)
        if fm or gm:
            cells.append((lo, hi, fm, gm))
    return cells


def _map_on(f: PPL, lo: float, hi: float) -> TermMap:
    for p in f.pieces:
        if p.lo <= lo and hi <= p.hi:
            return p.term_map()
    return {}


def combine(f: PPL, g: PPL, op: str) -> PPL:
    """Pointwise add, sub, or max (the latter splits at sign changes)."""
    if f.domain != g.domain:
        raise DomainMismatchError("operands live on different domains")
    if op == "max-abs-split":
        diff = combine(f, g, "sub")
        return scale(combine(combine(f, g, "add"), absolute(diff), "add"), 0.5)
    if op not in ("add", "sub"):
        raise ValueError(f"unknown op {op!r}")
    sign = 1.0 if op == "add" else -1.0
    pieces = []
    for lo, hi, fm, gm in _refined_cells(f, g):
        tm = dict(fm)
        for key, c in gm.items():
            tm[key] = tm.get(key, 0.0) + sign * c
        pieces.append((lo, hi, tm))
    return make_ppl(f.domain, pieces)


def scale(f: PPL, c: float) -> PPL:
    return make_ppl(f.domain, [
        (p.lo, p.hi, {k: c * v for k, v in p.term_map().items()})
        for p in f.pieces
    ])


def product(f: PPL, g: PPL) -> PPL:
    """Pointwise product; term counts multiply, guarded by the budget."""
    if f.domain != g.domain:
        raise DomainMismatchError("operands live on different domains")
    pieces = []
    for lo, hi, fm, gm in _refined_cells(f, g):
        if not fm or not gm:
            continue
        pieces.append((lo, hi, term_map_product(fm, gm)))
    return make_ppl(f.domain, pieces)


def term_map_product(tm1: TermMap, tm2: TermMap) -> TermMap:
    """The term map of the product of two sums c*t**a*ln(t)**k."""
    out: TermMap = {}
    for (a1, k1), c1 in tm1.items():
        for (a2, k2), c2 in tm2.items():
            key = (a1 + a2, k1 + k2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def derivative(f: PPL) -> PPL:
    """Piecewise derivative (density); jumps at breakpoints are dropped."""
    pieces = []
    for p in f.pieces:
        tm: TermMap = {}
        for (alpha, k), c in p.term_map().items():
            if alpha != 0.0:
                key = (alpha - 1.0, k)
                tm[key] = tm.get(key, 0.0) + c * alpha
            if k > 0:
                key = (alpha - 1.0, k - 1)
                tm[key] = tm.get(key, 0.0) + c * k
        pieces.append((p.lo, p.hi, tm))
    return make_ppl(f.domain, pieces)


# ---------------------------------------------------------------------------
# measurable sets


@dataclass(frozen=True)
class MeasurableSet:
    """Finite union of half-open intervals [lo, hi) inside the domain.

    Built in canonical form, however the intervals come: clipped to the
    domain, sorted, and with overlapping or touching intervals merged, so
    ``measure`` is the sum of the lengths.
    """

    domain: DomainSpec
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        clipped = []
        for lo, hi in self.intervals:
            lo = max(lo, 0.0)
            hi = min(hi, self.domain.end)
            if lo < hi:
                clipped.append((lo, hi))
        clipped.sort()
        merged: list[list[float]] = []
        for lo, hi in clipped:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        object.__setattr__(self, "intervals",
                           tuple((lo, hi) for lo, hi in merged))

    @staticmethod
    def from_intervals(domain: DomainSpec,
                       raw: Iterable[tuple[float, float]]) -> "MeasurableSet":
        return MeasurableSet(domain, tuple(raw))

    def measure(self) -> float:
        return math.fsum(hi - lo for lo, hi in self.intervals) \
            if not any(math.isinf(hi) for _, hi in self.intervals) else INF

    def intersect(self, other: "MeasurableSet") -> "MeasurableSet":
        if self.domain != other.domain:
            raise DomainMismatchError("sets live on different domains")
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return MeasurableSet(self.domain, tuple(out))

    def union(self, other: "MeasurableSet") -> "MeasurableSet":
        if self.domain != other.domain:
            raise DomainMismatchError("sets live on different domains")
        return MeasurableSet(self.domain, self.intervals + other.intervals)

    def contains(self, other: "MeasurableSet") -> bool:
        """True when ``other`` is a subset (up to null sets)."""
        for lo, hi in other.intervals:
            covered = lo
            for a, b in self.intervals:
                if a <= covered < b:
                    covered = b
                if covered >= hi:
                    break
            if covered < hi:
                return False
        return True


def restrict(f: PPL, A: MeasurableSet) -> PPL:
    """f on A and 0 off it.

    The parts are built from f's own canonical pieces, a piece inside A
    reused as it is.  The intervals of a ``MeasurableSet`` are sorted and
    never touch, so no two parts merge and no ``make_ppl`` pass is needed.
    """
    if f.domain != A.domain:
        raise DomainMismatchError("function and set live on different domains")
    pieces = []
    for p in f.pieces:
        for lo, hi in A.intervals:
            a, b = max(p.lo, lo), min(p.hi, hi)
            if a == p.lo and b == p.hi:
                pieces.append(p)
            elif a < b:
                pieces.append(Piece(a, b, p.pairs))
    g = PPL(f.domain, tuple(pieces))
    if f.__dict__.get(_ABS) is _SELF:
        g.__dict__[_ABS] = _SELF  # a part of a nonnegative f is one
    return g


# ---------------------------------------------------------------------------
# sign splitting


def _segment_sign(tm: TermMap, lo: float, hi: float) -> int:
    """Sign of a root-free piece, probed at three interior points."""
    ulo = math.log(lo) if lo > 0.0 else -rootfind._U_CAP
    uhi = math.log(hi) if not math.isinf(hi) else rootfind._U_CAP
    best = 0.0
    for q in (0.5, 0.25, 0.75):
        u = ulo + (uhi - ulo) * q
        v = rootfind.eval_exp_poly(tm, u)
        if abs(v) > abs(best):
            best = v
    if best == 0.0:
        if lo == 0.0 or math.isinf(hi):
            # every probe underflowed: the germ at the open end decides
            at = "zero" if lo == 0.0 else "inf"
            c, _a, k = germ(tm, at)
            best = c * (-1.0) ** k if at == "zero" else c
        else:
            # every probe rounds to 0.  Where even the largest term
            # underflows, its sign is the sign of the sum; otherwise the
            # probes sit between two roots a few ulps apart, the segment
            # is zero to working precision, and either sign gives the
            # same |f|
            u = ulo + (uhi - ulo) * 0.5
            mag, sign = max((rootfind._log_mag(c, a, k, u),
                             c * math.copysign(1.0, u) ** k)
                            for (a, k), c in tm.items())
            best = sign if -INF < mag < -rootfind._U_CAP else 1.0
    return 1 if best > 0.0 else -1


def absolute(f: PPL) -> PPL:
    """Exact |f|: pieces are split where f changes sign.

    Computed once per f and kept on it (see ``_memo``).  The result is
    marked as its own |.|, and f itself is returned when |f| == f.  An f
    whose every monomial is provably >= 0 (``_nonnegative_terms``) is
    returned with no sign split.
    """
    return _memo(f, _ABS, _absolute)


def _absolute(f: PPL) -> PPL:
    """|f| as ``absolute`` returns it, computed afresh."""
    return f if _nonnegative_terms(f) else _sign_split(f)


def _nonnegative_terms(f: PPL) -> bool:
    """Is every monomial c * t**a * (ln t)**k of f >= 0 on its whole piece?

    t**a > 0, so an even k needs c > 0, and an odd k also needs the piece
    inside (0, 1], where ln t <= 0, or inside [1, inf), where ln t >= 0.
    A float sum of such terms is >= 0 at every t, so the sign split finds
    no negative segment and gives f back.  The monomials decide, not the
    function: C g of a nonnegative g can hold terms of both signs and, on
    a thin piece or where F(t) - F(lo) cancels, dip below 0 in floats.
    """
    for piece in f.pieces:
        ln_sign = -1.0 if piece.hi <= 1.0 else 1.0 if piece.lo >= 1.0 else 0.0
        for (_alpha, k), c in piece.pairs:
            if not (c * ln_sign if k & 1 else c) > 0.0:  # NaN fails too
                return False
    return True


def _sign_split(f: PPL) -> PPL:
    """|f| by splitting each piece at its roots and flipping the segments
    where f is negative."""
    pieces = []
    for p in f.pieces:
        tm = p.term_map()
        roots = rootfind.roots_t(tm, p.lo, p.hi)
        knots = [p.lo] + roots + [p.hi]
        for lo, hi in zip(knots, knots[1:]):
            if _segment_sign(tm, lo, hi) < 0:
                pieces.append((lo, hi, {k: -c for k, c in tm.items()}))
            else:
                pieces.append((lo, hi, tm))
    g = make_ppl(f.domain, pieces)
    if g == f:
        return f
    g.__dict__[_ABS] = _SELF
    return g


def positive_part(f: PPL) -> PPL:
    """max(f, 0), exact."""
    return scale(combine(f, absolute(f), "add"), 0.5)


def is_nonnegative(f: PPL) -> bool:
    return absolute(f) is f


def monotone_segments(f: PPL) -> list[tuple[float, float, TermMap]]:
    """Split every piece at its stationary points.

    On each returned segment the function is continuous and monotone.
    """
    out = []
    for p in f.pieces:
        tm = p.term_map()
        crit = rootfind.stationary_points_t(tm, p.lo, p.hi)
        knots = [p.lo] + crit + [p.hi]
        for lo, hi in zip(knots, knots[1:]):
            out.append((lo, hi, tm))
    return out


def segment_end_values(tm: TermMap, lo: float, hi: float) -> tuple[float, float]:
    """One-sided limits of the monomial sum at the segment ends."""
    vlo = limit_term_map(tm, "zero") if lo == 0.0 else eval_term_map(tm, lo)
    vhi = limit_term_map(tm, "inf") if math.isinf(hi) else eval_term_map(tm, hi)
    return vlo, vhi


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


class MonotoneSegment:
    """A monotone segment [lo, hi) of |f|, with what a cut at a level needs.

    ``vlo`` and ``vhi`` are the one-sided limits at the ends, never below
    0, and ``terms`` the term map of the piece that holds the segment.  A
    segment with ``vlo == vhi`` is flat, and no level cuts it; a crossing
    of a sloped one is solved from its terms (``rearrange._crossing``).
    ``mass()`` is the antiderivative data, built at first use.
    """

    __slots__ = ("lo", "hi", "vlo", "vhi", "terms", "_mass")

    def __init__(self, lo: float, hi: float, terms: TermView) -> None:
        self.lo, self.hi, self.terms = lo, hi, terms
        vlo, vhi = segment_end_values(terms, lo, hi)
        # |f| >= 0, but its value at a zero of f can round below 0
        self.vlo = 0.0 if vlo < 0.0 else vlo
        self.vhi = 0.0 if vhi < 0.0 else vhi
        self._mass: tuple[TermMap, float, float, float] | None = None

    def mass(self) -> tuple[TermMap, float, float, float]:
        """(anti, alo, ahi, whole): the antiderivative of the terms, its
        values at the ends (limits at 0 and inf), so that a cut at x
        integrates by one evaluation, and the integral over the segment
        (inf when it diverges).  A build that raises keeps nothing."""
        if self._mass is None:
            anti = antiderivative_map(self.terms)
            alo, ahi = segment_end_values(anti, self.lo, self.hi)
            whole = _between(_piece_integral(self.terms, self.lo, self.hi),
                             self.hi - self.lo, self.vlo, self.vhi)
            self._mass = anti, alo, ahi, whole
        return self._mass


def segment_table(f: PPL) -> tuple[MonotoneSegment, ...]:
    """The monotone segments of |f|, in order.

    |f| is split once and the table kept on it (see ``_memo``); every
    segment of a piece shares that piece's term map.
    """
    return _memo(absolute(f), "_segment_table", _segment_table)


def _segment_table(g: PPL) -> tuple[MonotoneSegment, ...]:
    return tuple(MonotoneSegment(lo, hi, tm)
                 for lo, hi, tm in monotone_segments(g))


def essential_sup_abs(f: PPL) -> float:
    """ess sup |f| over the whole domain, possibly +inf."""
    best = 0.0
    for seg in segment_table(f):
        best = max(best, seg.vlo, seg.vhi)
        if math.isinf(best):
            return INF
    return best


def is_nonincreasing(f: PPL) -> bool:
    """True when f is nonnegative and nonincreasing on the whole domain.

    Such a function coincides with its own decreasing rearrangement, which
    unlocks the exact path for maximal functions.
    """
    if f.is_zero:
        return True
    if not is_nonnegative(f):
        return False
    prev_hi = 0.0
    prev_end: float | None = None
    prev_tm = None
    for seg in segment_table(f):
        if seg.lo != prev_hi:
            return False  # a gap: the function would rise from 0
        if seg.vhi > seg.vlo + 1e-15 * max(1.0, abs(seg.vlo)):
            return False
        # where a new piece starts, it may not start above the last end
        if seg.terms is not prev_tm and prev_end is not None \
                and seg.vlo > prev_end * (1 + 1e-15) + 1e-300:
            return False
        prev_hi, prev_end, prev_tm = seg.hi, seg.vhi, seg.terms
    if prev_hi < f.domain.end and prev_end < 0:
        return False
    return True


def sample_grid(f: PPL, n: int = 64) -> list[float]:
    """Geometric evaluation grid covering the pieces, for probe comparisons."""
    lo = min((p.lo for p in f.pieces), default=0.0)
    hi = f.support_bound()
    if math.isinf(hi):
        hi = max(2.0 * f.breakpoints()[-1] if f.breakpoints() else 2.0, 2.0)
    if hi <= 0.0:
        # zero function: any positive probe grid will do
        hi = min(1.0, f.domain.end)
    lo = max(lo, hi * 1e-9)
    if lo >= hi:
        lo = hi / 2.0
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio ** i for i in range(n)]
