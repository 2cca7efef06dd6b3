"""The averaging transform C f(x) = (1/x) * integral of f over [0, x].

For piecewise power-log inputs the transform is computed exactly: on each
output piece the running integral is an antiderivative plus an accumulated
constant, and dividing by x shifts every monomial power down by one, which
stays inside the representation family.

``cesaro_numeric`` is the independent numeric route (adaptive quadrature on
an evaluable), used for maximal functions and cross-checks.  ``_quad`` is
the package's one adaptive quadrature; scipy is imported on its first call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from . import piecewise as pw
from .errors import TransformUndefinedError
from .piecewise import INF, PPL, TermMap


def cesaro_transform(f: PPL) -> PPL:
    """Exact C f; requires f integrable near 0.

    The result is defined on all of (0, end): past the support the average
    decays like (accumulated mass) / x.
    """
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
        cell: TermMap = {}
        for (beta, j), c in F.items():
            key = (beta - 1.0, j)
            cell[key] = cell.get(key, 0.0) + c
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


def _quad(func: Callable[[float], float], a: float, b: float,
          breaks: Sequence[float], tol: float) -> tuple[float, float]:
    """Integral of func over [a, b] and its error bound, by adaptive
    quadrature split at the finite breaks inside (a, b); b may be infinite."""
    from scipy import integrate

    pts = sorted({x for x in breaks if a < x < b and math.isfinite(x)})
    knots = [a] + pts + [b]
    total = err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        for c, d in zip(knots, knots[1:]):
            v, e = integrate.quad(func, c, d, epsabs=tol, epsrel=tol,
                                  limit=200)
            total += v
            err += e
    return total, err


def cesaro_numeric(g: Callable[[float], float] | PPL, t: float,
                   breakpoints: Sequence[float] | None = None,
                   tol: float = 1e-10) -> tuple[float, float]:
    """(1/t) * integral of g over [0, t] by adaptive quadrature.

    Returns (value, error bound).  Splits at the supplied breakpoints (or
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
    r = rearrange.decreasing_rearrangement(f)
    if r.exact is not None:
        cstar_eval = cesaro_transform(r.exact)
        cstar = lambda x: pw.evaluate(cstar_eval, x)
    else:
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
