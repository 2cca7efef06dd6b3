"""The averaging transform C f(x) = (1/x) * integral of f over [0, x].

For piecewise power-log inputs the transform is computed exactly: on each
output piece the running integral is an antiderivative plus an accumulated
constant, and dividing by x shifts every monomial power down by one, which
stays inside the representation family.

``cesaro_numeric`` is the independent numeric route (quadrature on an
evaluable), used for cross-checks.  ``_quad`` is the package's one
quadrature: a double-exponential rule in plain Python.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from . import piecewise as pw
from .errors import EvaluationDomainError, TransformUndefinedError
from .piecewise import INF, PPL, TermMap


def cesaro_transform(f: PPL) -> PPL:
    """Exact C f; requires f integrable near 0.

    The result is defined on all of (0, end): past the support the average
    decays like (accumulated mass) / x.  It is computed once per f and kept
    on it (see ``piecewise._memo``); a TransformUndefinedError is not kept.

    C f of a nonnegative f carries no mark as its own |.|: its monomials
    can have both signs, and on a thin piece or where F(t) - F(lo) cancels
    it can dip below 0 in floats.  ``piecewise.absolute`` returns it as it
    is, with no sign split, only where every monomial is provably >= 0.
    """
    return pw._memo(f, "_cesaro", _cesaro_transform)


def _cesaro_transform(f: PPL) -> PPL:
    """C f as ``cesaro_transform`` returns it, computed afresh."""
    if f.pieces and f.pieces[0].lo == 0.0:
        _c, alpha, _k = pw.germ(f.pieces[0].term_map(), "zero")
        if pw.integral_diverges(alpha, "zero"):
            raise TransformUndefinedError(
                f"non-integrable singularity at 0 (power {alpha})")
    out: list[tuple[float, float, TermMap]] = []
    mass = 0.0  # integral of f over [0, current position]
    pos = 0.0
    for piece in f.pieces:
        if piece.lo > pos and mass != 0.0:
            out.append((pos, piece.lo, {(-1.0, 0): mass}))
        pos = piece.lo
        tm = piece.term_map()
        F = pw.antiderivative_map(tm)
        F_lo = (pw.limit_term_map(F, "zero") if pos == 0.0
                else pw.eval_term_map(F, pos))
        cell = pw.average_map(tm)
        c0 = mass - F_lo
        if c0 != 0.0:
            cell[(-1.0, 0)] = cell.get((-1.0, 0), 0.0) + c0
        out.append((piece.lo, piece.hi, cell))
        if math.isinf(piece.hi):
            pos = INF
            mass = INF
        else:
            F_hi = pw.eval_term_map(F, piece.hi)
            mass += F_hi - F_lo
            pos = piece.hi
    if pos < f.domain.end and mass != 0.0:
        out.append((pos, f.domain.end, {(-1.0, 0): mass}))
    return pw.make_ppl(f.domain, out)


DE_HALVINGS = 8
"""Cap on the halvings of the double-exponential rule's step."""

DE_DROP = 1e-20
"""A node run stops at the first nonzero term this small against the sum of
the magnitudes of the terms taken so far that is also smaller than the
term before it in the run: past it the terms of an integrable end fall
double-exponentially.  A run that starts tiny next to the middle and grows
toward its end (a boundary layer) is not cut off."""


def _quad(func: Callable[[float], float], a: float, b: float,
          breaks: Sequence[float], tol: float) -> tuple[float, float]:
    """Integral of func over [a, b] and an error estimate, split at the
    finite breaks inside (a, b); b may be infinite.

    Each interval between breaks gets one double-exponential rule
    (Takahasi & Mori, Publ. RIMS 9, 1974; Mori & Sugihara, J. Comput.
    Appl. Math. 127, 2001): tanh-sinh on a finite interval, exp-sinh,
    x = c + exp((pi/2)*sinh t), on [c, inf).  The step h is halved until
    two successive sums agree, |S_h - S_{h/2}| <= max(tol, tol*|S_{h/2}|),
    at most ``DE_HALVINGS`` times; the interval's estimate is that last
    difference.  It is an estimate of the error, not a bound.

    A node near an end is formed as an offset from that end, never as
    mid +- half*tanh, so an end singularity such as lam**-0.5 at 0 is
    sampled down to offsets near 1e-300.  At the outer ends a and b a node
    run stops at its first non-finite value or node (a level whose measure
    leaves the float range reads phi(inf); exp-sinh nodes pass e**709) and
    adds the magnitude of its last kept term to the estimate, which does
    not count the mass past the float range; a non-finite value at the
    middle node of an interval or next to an interior break raises.
    """
    pts = sorted({x for x in breaks if a < x < b and math.isfinite(x)})
    knots = [a] + pts + [b]
    total = err = 0.0
    for c, d in zip(knots, knots[1:]):
        if c < d:
            v, e = _de_rule(func, c, d, tol, c == a, d == b)
            total += v
            err += e
    return total, err


_LOG_MAX = math.log(sys.float_info.max)


def _tanh_sinh_node(c: float, d: float, t: float) -> tuple[float, float]:
    # 1 - tanh((pi/2) sinh|t|) = 2q/(1 + q) with q = exp(-pi sinh|t|)
    q = math.exp(-math.pi * math.sinh(abs(t)))
    width = d - c
    offset = width * q / (1.0 + q)
    weight = width * math.pi * math.cosh(t) * q / (1.0 + q) ** 2
    return (c + offset if t < 0.0 else d - offset), weight


def _exp_sinh_node(c: float, d: float, t: float) -> tuple[float, float]:
    s = 0.5 * math.pi * math.sinh(t)
    if s > _LOG_MAX:
        return INF, INF
    e = math.exp(s)
    return c + e, 0.5 * math.pi * math.cosh(t) * e


def _term(func: Callable[[float], float], x: float, w: float) -> float:
    """w*func(x); inf for a node or a value past the float range."""
    if math.isinf(x):
        return INF
    try:
        return w * func(x)
    except OverflowError:
        return INF


def _de_rule(func: Callable[[float], float], c: float, d: float, tol: float,
             outer_lo: bool, outer_hi: bool) -> tuple[float, float]:
    """(integral over [c, d], error estimate) by one double-exponential
    rule; ``outer_lo``/``outer_hi`` say whether an end is an end of the
    whole integral, where a non-finite value stops a node run."""
    node = _exp_sinh_node if math.isinf(d) else _tanh_sinh_node
    x, w = node(c, d, 0.0)
    total = _term(func, x, w)  # the sum of the terms: the integral is h*total
    if not math.isfinite(total):
        raise EvaluationDomainError(
            f"integrand is not finite at x = {x!r}, inside [{c!r}, {d!r}]")
    mags = abs(total)

    def run(sign: float, outer: bool, start: float,
            step: float) -> tuple[float, float]:
        """(the sum of the terms at t = sign*(start + j*step), j >= 0, up to
        where the run stops; the magnitude of its last kept term if a
        non-finite value stopped it, else 0)."""
        nonlocal mags
        acc = last = 0.0
        j = 0
        while True:
            x, w = node(c, d, sign * (start + j * step))
            j += 1
            if x == c or (x == d and math.isfinite(d)):
                return acc, 0.0  # the offset rounded away: the node is the end
            term = _term(func, x, w)
            if not math.isfinite(term):
                if not outer:
                    raise EvaluationDomainError(
                        f"integrand is not finite at x = {x!r}, next to the "
                        f"break {d if sign > 0.0 else c!r}")
                return acc, last
            acc += term
            mag = abs(term)
            mags += mag
            if 0.0 < mag < last and mag <= DE_DROP * mags:
                return acc, 0.0
            last = mag

    h = step = 1.0
    prev = None
    while True:
        lo, lo_tail = run(-1.0, outer_lo, h, step)
        hi, hi_tail = run(1.0, outer_hi, h, step)
        total += lo + hi
        value = h * total
        if prev is not None:
            diff = abs(value - prev)
            if (diff <= max(tol, tol * abs(value))
                    or h == 0.5 ** DE_HALVINGS):
                return value, diff + h * (lo_tail + hi_tail)
        prev = value
        h, step = 0.5 * h, h


def cesaro_numeric(g: Callable[[float], float] | PPL, t: float,
                   breakpoints: Sequence[float] | None = None,
                   tol: float = 1e-10) -> tuple[float, float]:
    """(1/t) * integral of g over [0, t] by quadrature (``_quad``).

    Returns (value, error estimate).  Splits at the supplied breakpoints (or
    the function's own) so the integrand is smooth per subinterval.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if isinstance(g, PPL):
        breakpoints = g.breakpoints()
        func = lambda x: pw.evaluate(g, x)
    else:
        func = g
    total, err = _quad(func, 0.0, t, breakpoints or (), tol)
    return total / t, err / t


@dataclass(frozen=True)
class ChainReport:
    """Pointwise audit of the averaging inequalities.

    At every grid point x the chain
        C f(x) <= |C f(x)| <= C|f|(x) <= C(f*)(x)
    must hold, and separately (C f)*(x) <= C(f*)(x).  ``min_slack`` entries
    are the worst (most negative) observed slack for each comparison.
    """

    grid: tuple[float, ...]
    min_slack: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(s >= -self.tolerance for s in self.min_slack.values())


def fact1_check(f: PPL, grid: Sequence[float] | None = None,
                tolerance: float = 1e-9) -> ChainReport:
    """Verify the pointwise averaging inequalities on a geometric grid."""
    from . import rearrange

    cf = cesaro_transform(f)
    cabs = cesaro_transform(pw.absolute(f))
    cstar = rearrange.maximal_function(f).evaluate
    cf_star = rearrange.decreasing_rearrangement(cf)

    if grid is None:
        bps = [b for b in f.breakpoints() if b > 0.0]
        lo = (min(bps) if bps else 1.0) / 256.0
        hi = min((max(bps) if bps else 1.0) * 256.0, f.domain.end)
        ratio = (hi / lo) ** (1.0 / 63)
        grid = [lo * ratio ** i for i in range(64)]

    slack = {
        "signed_vs_abs_value": INF,     # |Cf| - Cf
        "abs_value_vs_abs_arg": INF,    # C|f| - |Cf|
        "abs_arg_vs_maximal": INF,      # C(f*) - C|f|
        "rearranged_vs_maximal": INF,   # C(f*) - (Cf)*
    }
    for x in grid:
        v_cf = pw.evaluate(cf, x)
        v_cabs = pw.evaluate(cabs, x)
        v_cstar = cstar(x)
        v_cf_star = cf_star.evaluate(x)
        slack["signed_vs_abs_value"] = min(
            slack["signed_vs_abs_value"], abs(v_cf) - v_cf)
        slack["abs_value_vs_abs_arg"] = min(
            slack["abs_value_vs_abs_arg"], v_cabs - abs(v_cf))
        slack["abs_arg_vs_maximal"] = min(
            slack["abs_arg_vs_maximal"], v_cstar - v_cabs)
        slack["rearranged_vs_maximal"] = min(
            slack["rearranged_vs_maximal"], v_cstar - v_cf_star)
    return ChainReport(tuple(grid), slack, tolerance)
