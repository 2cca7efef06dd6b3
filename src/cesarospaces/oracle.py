"""Independent numeric cross-checks for the exact engine.

Everything here recomputes values straight from defining formulas with
machinery deliberately different from the rest of the package: adaptive
Simpson panels over dyadic shells instead of library quadrature, and
sample-sort rearrangements on explicit grids instead of symbolic level
analysis.  The checks are slow and approximate on purpose; their only job
is to certify that the exact engine's numbers are not self-consistent
nonsense.

Resolution limits are inherent: the shell range covers [2^-60, 2^60], so
integrals whose convergence is slower than t^(-1.05)-type decay at an end
are reported as infinite, and sampled rearrangements cannot see structure
finer than their grid.  Battery inputs are chosen within these limits.
The sample-sort grid is built once per domain end; each call only splices
its cut clusters into a copy.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce

from . import norms as nm
from . import piecewise as pw
from . import rearrange as rr
from .errors import MethodInapplicableError
from .piecewise import INF, PPL
from .spaces import SpaceDescriptor

SIMPSON_TOL = 1e-7
SHELL_LOW = -60
SHELL_HIGH = 60
DIVERGENCE_RATIO = 0.95
GRID_POINTS = 4096
GRID_DELTA = 2.0 ** -20
GRID_TOP = 2.0 ** 10
# the multi-scale grid of ``_weighted_sorted``: a logarithmic head from
# GRID_HEAD_START, GRID_BODY_CELLS uniform cells up to GRID_TOP, and a
# logarithmic tail out to GRID_TAIL_END on the half-line
GRID_HEAD_START = 2.0 ** -40
GRID_HEAD_RATIO = 2.0 ** (1.0 / 256)
GRID_BODY_CELLS = 65536
GRID_TAIL_RATIO = 2.0 ** (1.0 / 64)
GRID_TAIL_END = 2.0 ** 40

# default agreement tolerances per space family; sampled-rearrangement
# oracles are grid-limited, pure quadrature ones are not
ORACLE_TOL = {
    "Lp": 1e-7,
    "Lp-sup": 1e-4,
    "L1capLinf": 1e-4,
    "L1plusLinf": 1e-3,
    "orlicz": 5e-6,
    "lorentz": 1e-3,
    "marcinkiewicz": 1e-3,
}


@dataclass(frozen=True)
class OracleReport:
    """One exact-vs-recomputed comparison."""

    name: str
    exact: float
    oracle: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        if math.isinf(self.exact) or math.isinf(self.oracle):
            return math.isinf(self.exact) and math.isinf(self.oracle)
        return abs(self.exact - self.oracle) <= self.tol * (1.0 + abs(self.exact))

    def row(self) -> str:
        status = "ok" if self.passed else "MISMATCH"
        return (f"{self.name},{pw_format(self.exact)},{pw_format(self.oracle)},"
                f"{pw_format(self.tol)},{status}")


def pw_format(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


# ---------------------------------------------------------------------------
# adaptive Simpson over dyadic shells


def _safe_eval(fn, x: float, lo: float, hi: float) -> float:
    v = fn(x)
    if math.isfinite(v):
        return v
    width = hi - lo
    for shift in (1e-12, 1e-9, 1e-6):
        xx = min(max(x, lo + shift * width), hi - shift * width)
        if xx == x:
            xx = x + shift * width
        v = fn(xx)
        if math.isfinite(v):
            return v
    return 0.0


def _adaptive(fn, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = fn(lm)
    frm = fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    s = left + right
    # an interior value that is not finite, or a panel sum past the float
    # range; a cell below one ulp wide would give 0 * inf = NaN
    if not math.isfinite(s):
        return INF
    if depth <= 0 or abs(s - whole) <= 15.0 * tol:
        return s + (s - whole) / 15.0
    return (_adaptive(fn, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _adaptive(fn, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def simpson(fn, a: float, b: float, tol: float = 1e-10, depth: int = 24) -> float:
    """Adaptive Simpson on a finite interval; endpoint singularities nudged.

    INF where the midpoint or an interior value is not finite, never NaN.
    """
    if not b > a:
        return 0.0
    fa = _safe_eval(fn, a, a, b)
    fb = _safe_eval(fn, b, a, b)
    m = 0.5 * (a + b)
    fm = fn(m)
    if not math.isfinite(fm):
        return INF
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive(fn, a, b, fa, fm, fb, whole, tol, depth)


def _shell(fn, lo: float, hi: float, cuts, tol: float) -> float:
    xs = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    return math.fsum(simpson(fn, x0, x1, tol) for x0, x1 in zip(xs, xs[1:]))


def improper_integral(fn, end: float, cuts=(), tol: float = SIMPSON_TOL) -> float:
    """Integral of a nonnegative integrand over (0, end), end possibly inf.

    Dyadic shells with geometric corrections for the unresolved ends; an
    end whose shell contributions fail to decay geometrically (ratio below
    DIVERGENCE_RATIO) is reported as divergent.
    """
    top = min(end, 2.0 ** SHELL_HIGH)
    shells: list[float] = []
    lo = 2.0 ** SHELL_LOW
    per_shell = tol * 2.0 ** -8
    while lo < top:
        hi = min(lo * 2.0, top)
        shells.append(_shell(fn, lo, hi, cuts, per_shell))
        lo = hi
    total = math.fsum(shells)
    if not math.isfinite(total):
        return INF
    return _continue_ends(total, shells, end)


def _continue_ends(total: float, shells: list[float], end: float) -> float:
    """Add the geometric continuation of the first shell toward 0 and, for
    an infinite end, of the last shell toward infinity; INF when either
    ratio reaches DIVERGENCE_RATIO."""
    scale = 1.0 + abs(total)
    if len(shells) >= 2 and shells[0] > 1e-14 * scale:
        ratio = shells[0] / shells[1] if shells[1] > 0.0 else 1.0
        if ratio >= DIVERGENCE_RATIO:
            return INF
        total += shells[0] * ratio / (1.0 - ratio)
    if math.isinf(end) and len(shells) >= 2 and shells[-1] > 1e-14 * scale:
        ratio = shells[-1] / shells[-2] if shells[-2] > 0.0 else 1.0
        if ratio >= DIVERGENCE_RATIO:
            return INF
        total += shells[-1] * ratio / (1.0 - ratio)
    return total


# ---------------------------------------------------------------------------
# sampled rearrangements
#
# A sampler reads its function through ``sample``, which maps nondecreasing
# points to the function's values in one call: one walk over the pieces of
# a piecewise function, with the floats of pointwise evaluation.


def _sorted_samples(sample, end: float, n: int):
    """Uniform midpoint samples of |f| on [GRID_DELTA, min(end, GRID_TOP)],
    sorted descending.  Returns (values, cell width)."""
    top = min(end, GRID_TOP)
    h = (top - GRID_DELTA) / n
    nodes = [GRID_DELTA + (i + 0.5) * h for i in range(n)]
    return sorted(map(abs, sample(nodes)), reverse=True), h


def _weighted_sorted(sample, end: float, cuts=()):
    """Multi-scale sample-sort of |f|: (values desc, cumulative measure).

    A logarithmic grid resolves integrable singularities at zero, a uniform
    grid resolves the body, a coarser logarithmic extension follows slow
    tails out to ``GRID_TAIL_END``, and knot clusters straddle the supplied
    cuts; each sample carries its own cell width.
    """
    knots, mids, widths, top = _base_grid(
        end, GRID_TOP, GRID_HEAD_START, GRID_HEAD_RATIO, GRID_BODY_CELLS,
        GRID_TAIL_RATIO, GRID_TAIL_END)
    cluster: set[float] = set()
    for c in cuts:
        if not 0.0 < c < top:
            continue
        cluster.add(c)
        for k in range(8, 41):
            eps = 2.0 ** -k
            if c * (1.0 - eps) > 0.0:
                cluster.add(c * (1.0 - eps))
            if c * (1.0 + eps) < top:
                cluster.add(c * (1.0 + eps))
    if cluster:
        mids, widths = _splice(knots, mids, widths, sorted(cluster))
    vals = sample(mids)
    # a stable sort by descending magnitude, as buckets of widths per
    # magnitude in node order, filled run by run of one value of f; a step
    # function fills a few dozen buckets
    buckets: dict[float, array] = {}
    starts = [0, *itertools.compress(itertools.count(1),
                                     map(operator.ne, vals[1:], vals))]
    for a, b in zip(starts, starts[1:] + [len(vals)]):
        buckets.setdefault(abs(vals[a]), array("d")).extend(widths[a:b])
    del vals, mids, widths
    values: list[float] = []
    measures = array("d")
    for v in sorted(buckets, reverse=True):
        values += [v] * len(buckets[v])
        measures += buckets.pop(v)
    # knots are distinct, so the widths are positive and the sums rise
    cum = array("d", itertools.accumulate(measures))
    # the rounded running sum can pass the grid's top, where the parameter
    # function of a [0, 1] space is undefined: clamp the sums from there
    over = bisect.bisect_right(cum, top)
    cum[over:] = array("d", [top]) * (len(cum) - over)
    return values, cum


@lru_cache(maxsize=8)
def _base_grid(end: float, grid_top: float, head_start: float,
               head_ratio: float, body_cells: int, tail_ratio: float,
               tail_end: float):
    """The knots of ``_weighted_sorted``'s grid before the cut clusters,
    sorted and distinct, with their cells' midpoints and widths, and the
    grid's top: (knots, mids, widths, top).  The grid depends only on the
    domain's end and the ``GRID_*`` constants it takes as arguments, so it
    is built once per end; callers copy it and never write into it."""
    body_top = min(end, grid_top)
    # the head, the body and the tail fill disjoint ranges in increasing
    # order, so the grid is built sorted and repeats only next to itself
    knots = [0.0, *_geometric(head_start, head_ratio, min(body_top, 0.125))]
    h = body_top / float(body_cells)
    i0 = int(0.125 / h) + 1
    knots += [min(i0 * h + j * h, body_top)
              for j in range(body_cells - i0 + 1)]
    top = body_top
    if end > grid_top:
        top = min(end, tail_end)
        knots += _geometric(body_top, tail_ratio, top)
        knots.append(top)
    ordered = array("d", knots[:1])
    ordered.extend(itertools.compress(knots[1:],
                                      map(operator.ne, knots[1:], knots)))
    mids = array("d", map(operator.mul, itertools.repeat(0.5),
                          map(operator.add, ordered, ordered[1:])))
    widths = array("d", map(operator.sub, ordered[1:], ordered))
    return ordered, mids, widths, top


def _splice(knots, mids, widths, extra):
    """The midpoints and widths of the cells of the sorted distinct
    ``knots`` with the sorted distinct ``extra`` knots added.  Extra knots
    that are already knots are skipped; the base cells around each cell an
    extra knot splits are copied, and only the split cells are computed."""
    slots = [(bisect.bisect_left(knots, x), x) for x in extra]
    new_mids = array("d")
    new_widths = array("d")
    done = 0  # base cells copied so far
    for i, group in itertools.groupby(
            (s for s in slots if s[0] == len(knots) or knots[s[0]] != s[1]),
            key=operator.itemgetter(0)):
        # the extra knots of the group lie between knots[i - 1] and knots[i]
        new_mids += mids[done:i - 1]
        new_widths += widths[done:i - 1]
        edges = [knots[i - 1], *(x for _, x in group), *knots[i:i + 1]]
        new_mids.extend(0.5 * (a + b) for a, b in zip(edges, edges[1:]))
        new_widths.extend(b - a for a, b in zip(edges, edges[1:]))
        done = i
    new_mids += mids[done:]
    new_widths += widths[done:]
    return new_mids, new_widths


def _geometric(start: float, ratio: float, stop: float):
    """start, start*ratio, (start*ratio)*ratio, ... while below stop."""
    return itertools.takewhile(stop.__gt__, itertools.accumulate(
        itertools.repeat(ratio), operator.mul, initial=start))


def _octave_runs(cum, lo: int, hi: int):
    """The maximal runs of one ``floor(log2(c))`` in nondecreasing positive
    ``cum[lo:hi]``, as (k, start, stop), each found by bisection."""
    while lo < hi:
        k = _octave(cum[lo])
        stop = bisect.bisect_right(cum, k, lo + 1, hi, key=_octave)
        yield k, lo, stop
        lo = stop


def _octave(c: float) -> int:
    return math.floor(math.log2(c))


def rearrangement_oracle(f: PPL, n: int = GRID_POINTS) -> OracleReport:
    """Bracket the engine's rearrangement between measure-shifted samples.

    |f| is sampled on a uniform grid, sorted, and the sorted sequence is
    required to sit inside the engine rearrangement's envelope after a
    measure shift that covers grid mis-binning at piece boundaries.  The
    reported oracle value is the worst bracketing violation.
    """
    r = rr.decreasing_rearrangement(f)
    end = f.domain.end
    vals, h = _sorted_samples(lambda ts: pw.evaluate_sorted(f, ts), end, n)
    shift = (len(f.breakpoints()) + 2) * h + GRID_DELTA
    worst = 0.0
    sup_seen = vals[0] if vals else 0.0
    slack = 1e-9 * (1.0 + sup_seen)
    i = 1
    while i < n:
        s = (i + 0.5) * h
        upper = r.evaluate(max(s - shift, 1e-12))
        lower = r.evaluate(s + shift)
        if math.isinf(end) and max(vals[i], lower) < 2.0 ** -9:
            break
        if math.isfinite(upper):
            worst = max(worst, vals[i] - upper - slack, lower - vals[i] - slack)
        i = i * 2 if i >= 64 else i + 1
    tol = 1e-3 * (1.0 + sup_seen)
    return OracleReport("rearrangement", 0.0, max(worst, 0.0), tol,
                        note=f"grid {n}, cell {h:.3g}")


# ---------------------------------------------------------------------------
# running averages recomputed by quadrature


def _running_average(fn, end: float, cuts):
    """Numeric running average t -> (1/t) * integral of fn over (0, t).

    Builds a cumulative table on a fine log grid and corrects locally with
    a small Simpson panel per evaluation.  Returns None when the integral
    already diverges near zero.
    """
    top = min(end, 2.0 ** 40)
    grid = [*_geometric(2.0 ** SHELL_LOW, 2.0 ** (1.0 / 16), top), top]
    cutset = sorted(c for c in cuts if 0.0 < c < top)
    grid = sorted(set(grid) | set(cutset))
    inc: list[float] = []
    for a, b in zip(grid, grid[1:]):
        inc.append(simpson(fn, a, b, tol=1e-13, depth=20))
        if not math.isfinite(inc[-1]):
            return None
    head = 0.0
    lead = [v for v in inc[:64] if v > 0.0]
    if inc[0] > 0.0 and len(lead) >= 2:
        ratio = inc[0] / lead[1] if lead[1] > 0.0 else 1.0
        if ratio >= 1.0:
            return None
        head = inc[0] * ratio / (1.0 - ratio)
    cum = [head]
    for v in inc:
        cum.append(cum[-1] + v)
    total = cum[-1]

    def avg(t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t >= top:
            extra = simpson(fn, top, min(t, 2.0 ** 60), tol=1e-12, depth=30) \
                if t > top else 0.0
            return (total + extra) / t
        j = bisect.bisect_right(grid, t) - 1
        if j < 0:
            return (head * (t / grid[0])) / t
        return (cum[j] + simpson(fn, grid[j], t, tol=1e-14, depth=12)) / t

    return avg


# ---------------------------------------------------------------------------
# norm recomputation per space family


def _sup_sampled(sample, end: float, cuts) -> float:
    pts: set[float] = set()
    top = min(end, 2.0 ** 30)
    x = 2.0 ** -40
    while x < top:
        pts.add(x)
        x *= 2.0 ** (1.0 / 64)
    for c in cuts:
        for eps in (1e-9, 1e-6):
            if 0.0 < c * (1 - eps):
                pts.add(c * (1 - eps))
            if c * (1 + eps) < end:
                pts.add(c * (1 + eps))
    best = 0.0
    for v in map(abs, sample(sorted(pts))):
        if math.isfinite(v):
            best = max(best, v)
        else:
            return INF
    # values still climbing at the sampling floor mean an unbounded spike
    if best > 1e5:
        return INF
    return best


def _orlicz_lux(sample, end: float, cuts, spec) -> float:
    """Luxemburg functional by bisection over the scale factor.

    The integrand is sampled once on fixed composite panels over dyadic
    shells and every bisection step reuses those samples, evaluating the
    Young function once per distinct sampled magnitude; the unresolved
    ends keep the geometric-continuation semantics of improper_integral.
    """
    weights: list[list[float]] = []  # per shell, in node order
    nodes: list[float] = []  # the nodes of every shell, in order
    lo = 2.0 ** SHELL_LOW
    top = min(end, 2.0 ** SHELL_HIGH)
    while lo < top:
        hi = min(lo * 2.0, top)
        xs = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
        ws: list[float] = []
        for x0, x1 in zip(xs, xs[1:]):
            h = (x1 - x0) / 64.0
            for i in range(64):
                a = x0 + i * h
                sixth = h / 6.0
                # endpoint nodes are nudged into the cell so half-open
                # piece boundaries read the value on the correct side
                nodes += (a + 1e-9 * h, a + 0.5 * h, a + h - 1e-9 * h)
                ws += (sixth, 4.0 * sixth, sixth)
        weights.append(ws)
        lo = hi
    mags = [abs(v) for v in sample(nodes)]
    del nodes
    # magnitudes in order of first appearance, so a step reads them in the
    # order the nodes do and stops at the same first infinite value
    magnitudes = list(dict.fromkeys(mags))
    slot = {g: i for i, g in enumerate(magnitudes)}
    slots = iter([slot[g] for g in mags])
    # zip ends at the end of a shell's weights, before taking a slot
    indexed = [list(zip(ws, slots)) for ws in weights]
    # Phi(0) = 0 exactly, so a shell where f vanishes sums to 0.0 with no
    # node read
    zero = slot.get(0.0)
    indexed = [[] if all(i == zero for _, i in nodes) else nodes
               for nodes in indexed]

    def modular(lam: float) -> float:
        values: list[float] = []
        for g in magnitudes:
            v = spec.value(g / lam)
            if math.isinf(v):
                return INF
            values.append(v)
        sums: list[float] = []
        for nodes in indexed:
            s = 0.0
            for w, i in nodes:
                s += w * values[i]
            sums.append(s)
        return _continue_ends(math.fsum(sums), sums, end)

    lam = 1.0
    rho = modular(lam)
    for _ in range(60):
        if rho > 1.0:
            lam *= 2.0
        else:
            break
        if lam > 1e30:
            return INF
        rho = modular(lam)
    if rho > 1.0:
        return INF
    lo_ok = lam
    lo = lam
    for _ in range(60):
        lo /= 2.0
        if lo < 1e-30:
            return 0.0
        if modular(lo) > 1.0:
            break
        lo_ok = lo
    hi, lo_bad = lo_ok, lo
    # invariant: modular(lo_bad) > 1 >= modular(hi)
    for _ in range(80):
        mid = 0.5 * (hi + lo_bad)
        if modular(mid) > 1.0:
            lo_bad = mid
        else:
            hi = mid
        if hi - lo_bad <= 1e-12 * hi:
            break
    return hi


def _lorentz_sampled(sample, end: float, spec, cuts=()) -> float:
    values, cum = _weighted_sorted(sample, end, cuts)
    atom = spec.atom_at_zero
    # the sum stops at the first zero value (magnitudes are never below
    # 0.0), and so does the walk over phi
    live = values.index(0.0) if 0.0 in values else len(values)
    exhausted = live == len(values)
    phis = spec.values(cum[:live])
    contribs = list(map(operator.mul, values,
                        map(operator.sub, phis, [atom, *phis])))
    del phis
    # left-to-right sums throughout: sum() compensates on Python 3.12+
    total = reduce(operator.add, contribs,
                   atom * values[0] if atom > 0.0 else 0.0)
    # the very first cell carries the whole phi-jump from zero; keep it out
    # of the per-octave decay statistics
    octave_sums = {k: reduce(operator.add, contribs[a:b], 0.0)
                   for k, a, b in _octave_runs(cum, 1, live)}
    prev = cum[live - 1] if live else 0.0
    scale = 1.0 + abs(total)
    # head contributions refusing to decay toward fine octaves: divergent
    lows = sorted(k for k in octave_sums if k < -8)
    if len(lows) >= 6:
        seq = [octave_sums[k] for k in lows[:6]]
        if all(s > 1e-10 * scale for s in seq) and seq[0] >= 0.5 * max(seq):
            return INF
    if math.isinf(end) and exhausted and prev > 0.0:
        # the function is still positive at the sampling horizon; continue
        # the per-octave contributions geometrically, as for shell sums
        kmax = math.floor(math.log2(prev))
        s_last = octave_sums.get(kmax - 1, 0.0)
        s_prev = octave_sums.get(kmax - 2, 0.0)
        if s_last > 1e-12 * scale:
            ratio = s_last / s_prev if s_prev > 0.0 else 1.0
            if ratio >= DIVERGENCE_RATIO:
                return INF
            total += s_last * ratio / (1.0 - ratio)
    return total


def _marcinkiewicz_sampled(sample, end: float, spec, cuts=()) -> float:
    values, cum = _weighted_sorted(sample, end, cuts)
    # phi(c) * (integral of the rearrangement up to c) / c per cell, the
    # integral a left-to-right running sum; no term is -0.0, so the first
    # sum is the loop's 0.0 + term
    accs = itertools.accumulate(map(operator.mul, values, map(
        operator.sub, cum, itertools.chain((0.0,), cum))))
    cands = array("d", map(operator.truediv,
                           map(operator.mul, spec.values(cum), accs), cum))
    if not all(map(math.isfinite, cands)):
        return INF
    best = max(itertools.chain((0.0,), cands))
    # octaves whose candidates are all 0 stay out
    oct_best: dict[int, float] = {}
    for k, a, b in _octave_runs(cum, 0, len(cum)):
        m = max(cands[a:b])
        if m > 0.0:
            oct_best[k] = m
    # a supremum still climbing at either sampling horizon is unresolved
    # growth, reported as divergence
    ks = sorted(oct_best)
    if len(ks) >= 3:
        a, b, c3 = (oct_best[k] for k in ks[-3:])
        if math.isinf(end) and c3 > b * 1.001 > a * 1.001 ** 2 and \
                c3 >= best * (1.0 - 1e-12):
            return INF
        a, b, c3 = (oct_best[k] for k in ks[:3])
        if a > b * 1.001 > c3 * 1.001 ** 2 and a >= best * (1.0 - 1e-12):
            return INF
    if best > 1e7:
        return INF
    return best


def _oracle_value(fn, sample, end: float, cuts, X: SpaceDescriptor):
    """Recompute the norm of a function given pointwise (``fn``) and on
    nondecreasing points (``sample``); returns (value, tol, note)."""
    tag = X.tag
    if tag == "Lp":
        p = X.p
        if math.isinf(p):
            return _sup_sampled(sample, end, cuts), ORACLE_TOL["Lp-sup"], \
                "sampled sup"
        raw = improper_integral(lambda t: abs(fn(t)) ** p, end, cuts)
        val = INF if math.isinf(raw) else raw ** (1.0 / p)
        return val, ORACLE_TOL["Lp"], "shell quadrature"
    if tag == "L1capLinf":
        v1, _, _ = _oracle_value(fn, sample, end, cuts,
                                 SpaceDescriptor("Lp", X.domain, p=1.0))
        vi, _, _ = _oracle_value(fn, sample, end, cuts,
                                 SpaceDescriptor("Lp", X.domain, p=INF))
        return max(v1, vi), ORACLE_TOL["L1capLinf"], "max of parts"
    if tag == "L1plusLinf":
        vals, h = _sorted_samples(sample, end, 1 << 15)
        idx = int(1.0 / h)
        lam = vals[idx] if idx < len(vals) else 0.0
        body = improper_integral(lambda t: max(abs(fn(t)) - lam, 0.0),
                                 end, cuts)
        return (INF if math.isinf(body) else body + lam), \
            ORACLE_TOL["L1plusLinf"], "level split at sampled quantile"
    if tag == "orlicz":
        return _orlicz_lux(sample, end, cuts, X.orlicz), ORACLE_TOL["orlicz"], \
            "simpson modular bisection"
    if tag == "lorentz":
        return _lorentz_sampled(sample, end, X.quasi, cuts), \
            ORACLE_TOL["lorentz"], "weighted sample-sort"
    if tag == "marcinkiewicz":
        return _marcinkiewicz_sampled(sample, end, X.quasi, cuts), \
            ORACLE_TOL["marcinkiewicz"], "weighted sample-sort"
    if tag == "cesaro":
        inner_fn = _running_average(lambda t: abs(fn(t)), end, cuts)
        if inner_fn is None:
            return INF, ORACLE_TOL["Lp"], "average diverges near zero"
        # the running average is no piecewise function: its samples are
        # its pointwise values
        val, tol, note = _oracle_value(
            inner_fn, lambda ts: list(map(inner_fn, ts)), end, cuts, X.inner)
        return val, tol, "double quadrature; " + note
    raise MethodInapplicableError(f"no oracle for tag {tag!r}")


def quadrature_norm_oracle(f: PPL, X: SpaceDescriptor,
                           name: str = "norm") -> OracleReport:
    """Recompute the norm of f in X from the defining formula and compare."""
    exact = nm.norm(f, X).value
    fn = lambda t: pw.evaluate(f, t)
    sample = lambda ts: pw.evaluate_sorted(f, ts)
    cuts = [b for b in f.breakpoints() if math.isfinite(b) and b > 0.0]
    val, tol, note = _oracle_value(fn, sample, f.domain.end, cuts, X)
    return OracleReport(name, exact, val, tol, note)
