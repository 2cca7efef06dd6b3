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
Every sample grid (the sample-sort grid, the uniform and logarithmic
nodes, and the quadrature panels of an uncut dyadic shell) is built once
per domain end; a call only adds the nodes its own cuts need, never into
the memo.  A panel or a sampled point reads the piece of f it belongs to:
a Simpson panel [a, b) reads its right end, and an Orlicz panel its last
node, at the float below b, and the sampled sup reads each cut at the
float below it and at the cut itself.  Grids are built in order, so the
Orlicz panels' nodes take one walk over the pieces of f with no test of
the order.  The sample-sort oracles read f* as runs of one magnitude,
(magnitude, first cell, end cell), and a run where f* is 0 costs no
per-cell Python loop; the Orlicz modular forms one product per run of
one magnitude within a dyadic shell.
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
# the knots of a cut's cluster, as factors 1 - 2^-k and 1 + 2^-k of the cut
# for k = 8, ..., 40; both are exact for k <= 53
_CLUSTER_FACTORS = tuple(1.0 + s * 2.0 ** -k for k in range(8, 41)
                         for s in (-1.0, 1.0))

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


def _adaptive(fn, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = fn(lm)
    frm = fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    s = left + right
    if not math.isfinite(s):
        left = _wide_panel(m - a, fa, flm, fm)
        right = _wide_panel(b - m, fm, frm, fb)
        s = left + right
        # a value read that is not finite, or an integral past the
        # float range; a cell below one ulp wide would give 0 * inf = NaN
        if not math.isfinite(s):
            return INF
    if depth <= 0 or abs(s - whole) <= 15.0 * tol:
        return s + (s - whole) / 15.0
    return (_adaptive(fn, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _adaptive(fn, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def _wide_panel(width: float, fa: float, fm: float, fb: float) -> float:
    """The Simpson panel with the width applied to each value first, for a
    panel whose sum fa + 4 fm + fb passes the float range; NaN where a
    value is not finite."""
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        return math.nan
    sixth = width / 6.0
    return sixth * fa + 4.0 * (sixth * fm) + sixth * fb


def simpson(fn, a: float, b: float, tol: float = 1e-10, depth: int = 24) -> float:
    """Adaptive Simpson on the panel [a, b), read inside it: the right end
    value is f at the float below b, never a piece that starts at b.

    INF where a value read is not finite, never NaN.  A panel whose
    weighted sum passes the float range while its values do not is summed
    again with the width applied first, so only an integral past the float
    range reads INF.
    """
    if not b > a:
        return 0.0
    fa = fn(a)
    fb = fn(math.nextafter(b, a))
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    if not math.isfinite(whole):
        whole = _wide_panel(b - a, fa, fm, fb)
    return _adaptive(fn, a, b, fa, fm, fb, whole, tol, depth)


def _shell(fn, lo: float, hi: float, cuts, tol: float) -> float:
    xs = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    return _fsum(simpson(fn, x0, x1, tol) for x0, x1 in zip(xs, xs[1:]))


def _fsum(parts) -> float:
    """``math.fsum`` of nonnegative parts, INF where they or their sum pass
    the float range (fsum, or a part's own float **, raises OverflowError)."""
    try:
        return math.fsum(parts)
    except OverflowError:
        return INF


def improper_integral(fn, end: float, cuts=()) -> float:
    """Integral of a nonnegative integrand over (0, end), end possibly inf.

    Dyadic shells with geometric corrections for the unresolved ends; an
    end whose shell contributions fail to decay geometrically (ratio of
    successive shells at or above DIVERGENCE_RATIO) is reported as
    divergent, and so is an integrand with a value past the float range.
    """
    top = min(end, 2.0 ** SHELL_HIGH)
    shells: list[float] = []
    lo = 2.0 ** SHELL_LOW
    per_shell = SIMPSON_TOL * 2.0 ** -8
    while lo < top:
        hi = min(lo * 2.0, top)
        shells.append(_shell(fn, lo, hi, cuts, per_shell))
        lo = hi
    total = _fsum(shells)
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
# a piecewise function, with the floats of pointwise evaluation and no
# test of the order.  Every grid here is built in order, so no call tests
# it.


def _sorted_samples(sample, end: float, n: int):
    """Uniform midpoint samples of |f| on [GRID_DELTA, min(end, GRID_TOP)],
    sorted descending.  Returns (values, cell width)."""
    nodes, h = _uniform_nodes(min(end, GRID_TOP), n)
    return sorted(map(abs, sample(nodes)), reverse=True), h


@lru_cache(maxsize=8)
def _uniform_nodes(top: float, n: int):
    """The midpoints of n equal cells on [GRID_DELTA, top], as a float
    array, and the cell width; built once per top and n, and callers never
    write into it."""
    h = (top - GRID_DELTA) / n
    return array("d", [GRID_DELTA + (i + 0.5) * h for i in range(n)]), h


def _weighted_sorted(sample, end: float, cuts):
    """Multi-scale sample-sort of |f|: (runs, cumulative measure).

    A logarithmic grid resolves integrable singularities at zero, a uniform
    grid resolves the body, a coarser logarithmic extension follows slow
    tails out to ``GRID_TAIL_END``, and knot clusters straddle the supplied
    cuts; each sample carries its own cell width.  The cells, sorted
    stably by descending magnitude, are tiled by ``runs``: one
    (magnitude, start, stop) per magnitude of f*, where cells
    start..stop-1 read that magnitude (one run per NaN sample).
    """
    knots, mids, widths, top = _base_grid(end)
    cluster: set[float] = set()
    for c in cuts:
        if not 0.0 < c < top:
            continue
        cluster.add(c)
        # c * (1 - eps) stays below c < top, and c * (1 + eps) above 0
        cluster.update(x for x in map(operator.mul, itertools.repeat(c),
                                      _CLUSTER_FACTORS) if 0.0 < x < top)
    if cluster:
        mids, widths = _splice(knots, mids, widths, sorted(cluster))
    # a stable sort by descending magnitude, as buckets of cell ranges per
    # magnitude in node order, filled run by run of one value of f; a step
    # function fills a few dozen buckets
    buckets: dict[float, list[tuple[int, int]]] = {}
    a = 0
    for v, group in itertools.groupby(sample(mids)):
        b = a + len(list(group))
        if v == v:
            buckets.setdefault(abs(v), []).append((a, b))
        else:
            # groupby takes a repeated NaN object for one value, though
            # NaN != NaN: each NaN sample is a run, and a bucket (abs()
            # makes a new key), of its own
            for i in range(a, b):
                buckets.setdefault(abs(v), []).append((i, i + 1))
        a = b
    del mids
    runs: list[tuple[float, int, int]] = []
    measures = array("d")
    for v in sorted(buckets, reverse=True):
        start = len(measures)
        for a, b in buckets.pop(v):
            measures += widths[a:b]
        runs.append((v, start, len(measures)))
    # knots are distinct, so the widths are positive and the sums rise
    cum = array("d", itertools.accumulate(measures))
    # the rounded running sum can pass the grid's top, where the parameter
    # function of a [0, 1] space is undefined: clamp the sums from there
    over = bisect.bisect_right(cum, top)
    cum[over:] = array("d", [top]) * (len(cum) - over)
    return runs, cum


@lru_cache(maxsize=8)
def _base_grid(end: float):
    """The knots of ``_weighted_sorted``'s grid before the cut clusters,
    sorted and distinct, with their cells' midpoints and widths, and the
    grid's top: (knots, mids, widths, top).  The grid depends only on the
    domain's end and the ``GRID_*`` constants, so it is built once per end;
    callers copy it and never write into it."""
    body_top = min(end, GRID_TOP)
    # the head, the body and the tail fill disjoint ranges in increasing
    # order, so the grid is built sorted and repeats only next to itself
    knots = [0.0, *_geometric(GRID_HEAD_START, GRID_HEAD_RATIO,
                              min(body_top, 0.125))]
    h = body_top / float(GRID_BODY_CELLS)
    i0 = int(0.125 / h) + 1
    knots += [min(i0 * h + j * h, body_top)
              for j in range(GRID_BODY_CELLS - i0 + 1)]
    top = body_top
    if end > GRID_TOP:
        top = min(end, GRID_TAIL_END)
        knots += _geometric(body_top, GRID_TAIL_RATIO, top)
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


@lru_cache(maxsize=8)
def _geometric_nodes(start: float, ratio: float, stop: float) -> array:
    """``_geometric(start, ratio, stop)`` as a float array, built once per
    stop; callers never write into it."""
    return array("d", _geometric(start, ratio, stop))


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


def rearrangement_oracle(f: PPL) -> OracleReport:
    """Bracket the engine's rearrangement between measure-shifted samples.

    |f| is sampled on a uniform grid, sorted, and the sorted sequence is
    required to sit inside the engine rearrangement's envelope after a
    measure shift that covers grid mis-binning at piece boundaries.  The
    reported oracle value is the worst bracketing violation.
    """
    r = rr.decreasing_rearrangement(f)
    end = f.domain.end
    vals, h = _sorted_samples(lambda ts: pw.evaluate_nondecreasing(f, ts),
                              end, GRID_POINTS)
    shift = (len(f.breakpoints()) + 2) * h + GRID_DELTA
    worst = 0.0
    sup_seen = vals[0] if vals else 0.0
    slack = 1e-9 * (1.0 + sup_seen)
    i = 1
    while i < GRID_POINTS:
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
                        note=f"grid {GRID_POINTS}, cell {h:.3g}")


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
    """The largest |f| on a 2^(1/64) log grid over [2^-40, min(end, 2^30))
    and on both sides of each cut, at the float below it and, below the
    end, at the cut itself; INF at a value that is not finite."""
    grid = _geometric_nodes(2.0 ** -40, 2.0 ** (1.0 / 64), min(end, 2.0 ** 30))
    near = sorted({math.nextafter(c, 0.0) for c in cuts}
                  | {c for c in cuts if c < end})
    # the largest value is the same over the grid and the cut sides read
    # apart, so the memo grid is sampled as it is
    best = 0.0
    for v in map(abs, itertools.chain(sample(grid), sample(near))):
        if math.isfinite(v):
            best = max(best, v)
        else:
            return INF
    return best


def _orlicz_modular(sample, end: float, cuts, spec):
    """The modular lam -> integral of Phi(|f|/lam) over the domain.

    The integrand is sampled once on fixed composite Simpson panels over
    dyadic shells, and the weights of each run of nodes that read one
    magnitude within a shell are summed once.  Every call reuses those
    run weights: it evaluates the Young function once per distinct
    magnitude and forms one product per run.  The unresolved ends keep the
    geometric-continuation semantics of improper_integral.
    """
    nodes, weights = _shell_nodes(end, cuts)
    mags = list(map(abs, sample(nodes)))
    del nodes
    # magnitudes in order of first appearance, so a step reads them in the
    # order the nodes do and stops at the same first infinite value
    magnitudes = list(dict.fromkeys(mags))
    slot = {g: i for i, g in enumerate(magnitudes)}
    # per run the slot of its magnitude and its summed weight, and per
    # shell the span of its runs
    slots: list[int] = []
    run_weights: list[float] = []
    spans: list[tuple[int, int]] = []
    left = iter(mags)
    for ws in weights:
        first = len(slots)
        # ws first: zip stops at the shell's end without taking a
        # magnitude of the next shell
        for g, run in itertools.groupby(zip(ws, left),
                                        key=operator.itemgetter(1)):
            slots.append(slot[g])
            run_weights.append(math.fsum(w for w, _ in run))
        spans.append((first, len(slots)))
    del mags
    # the continuation reads only the first two and the last two shells
    if len(spans) > 4:
        spans = spans[:2] + spans[-2:]

    def modular(lam: float) -> float:
        values: list[float] = []
        for g in magnitudes:
            v = spec.value(g / lam)
            # an expanded Young function reads inf - inf = NaN there too
            if not math.isfinite(v):
                return INF
            values.append(v)
        products = list(map(operator.mul, run_weights,
                            map(values.__getitem__, slots)))
        return _continue_ends(_fsum(products),
                              [_fsum(products[a:b]) for a, b in spans], end)

    return modular


def _orlicz_lux(sample, end: float, cuts, spec) -> float:
    """Luxemburg functional by bisection over the scale factor of
    ``_orlicz_modular``."""
    modular = _orlicz_modular(sample, end, cuts, spec)
    lam = 1.0
    rho = modular(lam)
    # double up to the float range, so a norm past 2^60 is read too
    while rho > 1.0:
        lam *= 2.0
        if math.isinf(lam):
            return INF
        rho = modular(lam)
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


def _shell_nodes(end: float, cuts):
    """The composite Simpson nodes of ``_orlicz_lux`` over the dyadic
    shells of (2^SHELL_LOW, min(end, 2^SHELL_HIGH)), each shell split at
    the distinct cuts inside it into panels: (nodes, weights per shell),
    as float arrays in node order.  Each panel's nodes lie in its
    half-open range, so the nodes are nondecreasing."""
    nodes = array("d")
    weights: list[array] = []
    lo = 2.0 ** SHELL_LOW
    top = min(end, 2.0 ** SHELL_HIGH)
    while lo < top:
        hi = min(lo * 2.0, top)
        inner = sorted({c for c in cuts if lo < c < hi})
        if inner:
            xs = [lo, *inner, hi]
            ws = array("d")
            for x0, x1 in zip(xs, xs[1:]):
                panel, panel_ws = _panel_nodes(x0, x1)
                nodes += panel
                ws += panel_ws
        else:
            panel, ws = _uncut_panel_nodes(lo, hi)
            nodes += panel
        weights.append(ws)
        lo = hi
    return nodes, weights


def _panel_nodes(x0: float, x1: float):
    """The 129 nodes and weights of composite Simpson on 64 cells of
    [x0, x1], as float arrays: x0 + j*h/2 with weights h/6 * [1, 4, 2, 4,
    ..., 2, 4, 1].  Every node is clamped to the float below x1, where the
    last node sits: rounding is monotone, so the nodes are nondecreasing,
    and no node reads a half-open piece that starts at x1."""
    h = (x1 - x0) / 64.0
    half = 0.5 * h
    last = math.nextafter(x1, x0)
    nodes = array("d", [min(x0 + j * half, last) for j in range(128)])
    nodes.append(last)
    sixth = h / 6.0
    ws = array("d", [sixth, *(4.0 * sixth, 2.0 * sixth) * 63, 4.0 * sixth,
                     sixth])
    return nodes, ws


# a shell with no cut inside is one panel, built once per shell; callers
# never write into it
_uncut_panel_nodes = lru_cache(maxsize=256)(_panel_nodes)


def _cells(runs):
    """The magnitude of each cell that ``runs`` tile, in cell order."""
    return itertools.chain.from_iterable(
        itertools.repeat(v, b - a) for v, a, b in runs)


def _lorentz_sampled(sample, end: float, spec, cuts) -> float:
    runs, cum = _weighted_sorted(sample, end, cuts)
    atom = spec.atom_at_zero
    # the sum stops at the zero run (magnitudes are never below 0.0), and so
    # does the walk over phi; the zero run is the last one unless a NaN
    # sorts after it
    mags = list(map(operator.itemgetter(0), runs))
    z = mags.index(0.0) if 0.0 in mags else len(runs)
    live = runs[z][1] if z < len(runs) else len(cum)
    exhausted = live == len(cum)
    phis = spec.values(cum[:live])
    contribs = list(map(operator.mul, _cells(runs[:z]),
                        map(operator.sub, phis, [atom, *phis])))
    del phis
    # left-to-right sums throughout: sum() compensates on Python 3.12+; f = 0
    # has only the zero run, whose magnitude is the first
    total = reduce(operator.add, contribs,
                   atom * mags[0] if atom > 0.0 else 0.0)
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


def _marcinkiewicz_sampled(sample, end: float, spec, cuts) -> float:
    runs, cum = _weighted_sorted(sample, end, cuts)
    phis = spec.values(cum)
    # a magnitude that is not finite makes the running integral, and the
    # candidate of its cell, inf or NaN; without one the runs descend, and
    # a zero run is the last
    if not all(map(math.isfinite, map(operator.itemgetter(0), runs))):
        return INF
    live = runs[-1][1] if runs[-1][0] == 0.0 else len(cum)
    # phi(c) * (integral of the rearrangement up to c) / c per cell, the
    # integral a left-to-right running sum.  On CPython 3.11 this loop is
    # faster than accumulate() over map()s of operator functions, and a
    # float array holds the candidates in a quarter of a list's memory
    cands = array("d")
    acc = 0.0
    prev = 0.0
    for v, c, phi_c in zip(_cells(runs), cum[:live], phis):
        acc += v * (c - prev)
        prev = c
        cands.append(phi_c * acc / c)
    # over the zero run acc + 0.0 * (c - prev) is acc, bit for bit: the
    # sums rise, and acc never reads -0.0
    cands.extend(map(operator.truediv,
                     map(operator.mul, itertools.islice(phis, live, None),
                         itertools.repeat(acc)),
                     itertools.islice(cum, live, None)))
    del phis
    # a NaN can hide from max(), so finiteness is its own pass
    if not all(map(math.isfinite, cands)):
        return INF
    # octaves whose candidates are all 0 stay out; the octave runs tile
    # the cells, so the largest candidate is the largest octave's
    oct_best: dict[int, float] = {}
    for k, a, b in _octave_runs(cum, 0, len(cum)):
        m = max(cands[a:b])
        if m > 0.0:
            oct_best[k] = m
    best = max(oct_best.values(), default=0.0)
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
            best = _sup_sampled(sample, end, cuts)
            if best > 1e5:
                # values past 1e5 still climbing, by 0.1 % an octave, at
                # either end of the grid mean unbounded growth there
                floor, octave = map(abs, sample([2.0 ** -40, 2.0 ** -39]))
                below, top = map(abs, sample([2.0 ** 29, 2.0 ** 30])) \
                    if math.isinf(end) else (0.0, 0.0)
                if floor > 1.001 * octave or top > 1.001 * below:
                    best = INF
            return best, ORACLE_TOL["Lp-sup"], "sampled sup"
        raw = improper_integral(lambda t: abs(fn(t)) ** p, end, cuts)
        # where |f|^p or its integral may pass the float range, integrate
        # 2^-e |f|, 2^e about the largest sample of |f|, and scale back
        e = math.frexp(_sup_sampled(sample, end, cuts))[1] \
            if math.isinf(raw) else 0
        if p * e + SHELL_HIGH >= 1024:
            raw = improper_integral(
                lambda t: math.ldexp(abs(fn(t)), -e) ** p, end, cuts)
        val = INF if math.isinf(raw) else nm._ldexp(raw ** (1.0 / p), e)
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
        # a split at any level bounds the norm from above and is the norm
        # at f*(1); f* may jump inside the quantile's cell, so take the
        # least split at the sampled levels next to it
        lams = set(vals[idx - 1:idx + 2]) if idx < len(vals) else {0.0}
        val = min(lam + improper_integral(
            lambda t: max(abs(fn(t)) - lam, 0.0), end, cuts) for lam in lams)
        return val, ORACLE_TOL["L1plusLinf"], "level split at sampled quantile"
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
    sample = lambda ts: pw.evaluate_nondecreasing(f, ts)
    cuts = [b for b in f.breakpoints() if math.isfinite(b) and b > 0.0]
    val, tol, note = _oracle_value(fn, sample, f.domain.end, cuts, X)
    return OracleReport(name, exact, val, tol, note)
