"""Hypothesis strategies, small helpers and reference loops shared across
test modules."""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
import warnings

from hypothesis import strategies as st

from cesarospaces import cesaro as cz
from cesarospaces import norms as nm
from cesarospaces import oc
from cesarospaces import oracle as orc
from cesarospaces import piecewise as pw
from cesarospaces import rearrange as rr
from cesarospaces import spaces as sp
from cesarospaces.piecewise import INF

HALFLINE = pw.DomainSpec("halfline")
UNIT = pw.DomainSpec("unit")


def chi(domain: pw.DomainSpec, lo: float, hi: float) -> pw.PPL:
    return pw.indicator(domain, lo, hi)


# (u - 1)_+**2, which vanishes below its zero bound 1
SHIFTED_SQUARE = sp.OrliczFunctionSpec(
    pw.make_ppl(HALFLINE, [(1.0, INF, {(2.0, 0): 1.0, (1.0, 0): -2.0,
                                       (0.0, 0): 1.0})]), zero_bound=1.0)


@st.composite
def step_functions(draw, domain=HALFLINE, signed: bool = True,
                   max_pieces: int = 5):
    """Random finite step functions with well-separated breakpoints.

    Values stay in [0.1, 4] in magnitude so norms are neither tiny nor
    huge; gaps between pieces are allowed.
    """
    end = 1.0 if domain.is_unit else 16.0
    cuts = draw(st.lists(
        st.floats(min_value=end / 64.0, max_value=end,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=max_pieces + 1, unique=True))
    cuts = sorted(cuts)
    steps = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo < end * 1e-6:
            continue
        if draw(st.booleans()):
            continue  # leave a gap
        v = draw(st.floats(min_value=0.1, max_value=4.0,
                           allow_nan=False, allow_infinity=False))
        if signed and draw(st.booleans()):
            v = -v
        steps.append((lo, hi, v))
    return pw.step_function(domain, steps)


@st.composite
def nonzero_step_functions(draw, domain=HALFLINE, signed: bool = True):
    f = draw(step_functions(domain=domain, signed=signed))
    if f.is_zero:
        lo = 0.25 if domain.is_unit else 1.0
        f = pw.step_function(domain, [(lo, 2.0 * lo, 1.0)])
    return f


@st.composite
def rising_step_functions(draw, domain=HALFLINE):
    """Step functions whose magnitudes rise along the line: their running
    averages rise too, so a norm of C f leaves the exact path."""
    f = draw(nonzero_step_functions(domain=domain))
    rows = [(p.lo, p.hi, abs(p.term_map()[(0.0, 0)])) for p in f.pieces]
    heights = sorted(v for _, _, v in rows)
    return pw.step_function(domain, [(lo, hi, v) for (lo, hi, _), v
                                      in zip(rows, heights)])


@st.composite
def power_log_pieces(draw, domain=HALFLINE):
    """One piece c*t**a*ln(t)**k on [lo, hi]; on the half-line hi may be
    infinite.  Many of them lie outside a given space (norm +inf)."""
    end = domain.end
    lo = draw(st.sampled_from([0.0, 0.0, end / 8.0, end / 2.0]
                              if domain.is_unit else [0.0, 0.0, 0.5, 1.0]))
    his = [h for h in ([0.5, 1.0] if domain.is_unit else [0.5, 2.0, 4.0, INF])
           if h > lo]
    hi = draw(st.sampled_from(his))
    a = draw(st.floats(min_value=-1.0, max_value=2.0,
                       allow_nan=False, allow_infinity=False))
    k = draw(st.integers(min_value=0, max_value=2))
    c = draw(st.floats(min_value=0.1, max_value=4.0,
                       allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        c = -c
    return pw.make_ppl(domain, [(lo, hi, {(a, k): c})])


@st.composite
def two_power_log_pieces(draw, domain=HALFLINE):
    """Two pieces c*t**a*ln(t)**k side by side, with a in [-0.9, 2]; on
    the half-line the second may run to infinity."""
    knots = [draw(st.sampled_from(options)) for options in (
        ([0.0, 0.125], [0.5], [1.0]) if domain.is_unit
        else ([0.0, 0.5], [1.0, 2.0], [4.0, INF]))]
    rows = []
    for lo, hi in zip(knots, knots[1:]):
        a = draw(st.floats(min_value=-0.9, max_value=2.0))
        k = draw(st.integers(min_value=0, max_value=2))
        c = draw(st.floats(min_value=0.1, max_value=4.0))
        rows.append((lo, hi, {(a, k): c if draw(st.booleans()) else -c}))
    return pw.make_ppl(domain, rows)


# ---------------------------------------------------------------------------
# scipy's QUADPACK, the test-only reference of cesaro._quad


def scipy_quad(func, a: float, b: float, breaks, tol: float,
               graded: bool = False) -> tuple[float, float]:
    """``scipy.integrate.quad`` with epsabs = epsrel = tol and at most 200
    subintervals on each cell between the finite breaks inside (a, b):
    ``cesaro._quad``'s former body.

    ``graded`` adds, inside each interval between breaks, points
    geometrically closer to every end, down to the normal floats: at 2**-k
    of its width from a finite end, and at c + 2**k toward inf, for
    k < 40 and then every 16th k.  (A cell of subnormal width would put
    Kronrod nodes on its ends.)
    """
    from scipy import integrate

    pts = sorted({x for x in breaks if a < x < b and math.isfinite(x)})
    knots = [a] + pts + [b]
    mesh = set(knots)
    if graded:
        ks = list(range(40)) + list(range(40, 1020, 16))
        for c, d in zip(knots, knots[1:]):
            if math.isinf(d):
                offsets = [math.ldexp(1.0, -k) for k in ks]
                mesh.update(c + math.ldexp(1.0, k) for k in ks)
            else:
                offsets = [math.ldexp(d - c, -k) for k in ks[1:]]
                mesh.update(d - h for h in offsets)
            mesh.update(c + h for h in offsets if h >= sys.float_info.min)
    mesh = sorted(x for x in mesh if a <= x <= b)
    total = err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        for c, d in zip(mesh, mesh[1:]):
            if c < d:
                v, e = integrate.quad(func, c, d, epsabs=tol, epsrel=tol,
                                      limit=200)
                total += v
                err += e
    return total, err


def _disagree(value, estimate, ref, ref_estimate) -> bool:
    # the last term is the integrand's own error, which neither estimate
    # counts: a level integrand is known only to the tolerance of its
    # Brent crossings
    return not abs(value - ref) <= (estimate + ref_estimate
                                    + rr.BISECT_TOL * abs(ref))


@contextlib.contextmanager
def quadrature_against_scipy():
    """Within the block every ``cesaro._quad`` call also runs
    ``scipy_quad`` on the same integrand and returns its own result; the
    yielded list collects (value, estimate, scipy value, scipy estimate)
    per call.

    Where the two disagree, scipy runs again on the graded mesh, whose
    value then stands: on a single interval QUADPACK's estimate can miss a
    slow end (t**-0.9375*|ln t|**2.5 on [0, 0.5]) or a layer at an end
    (the level integrand of t**5.4e-5 on [0, 0.5] drops to 0 within 1e-4
    of its top level), and it then reports a wrong value with a small
    estimate.
    """
    rule = cz._quad
    calls = []

    def both(func, a, b, breaks, tol):
        value, estimate = rule(func, a, b, breaks, tol)
        ref = scipy_quad(func, a, b, breaks, tol)
        if _disagree(value, estimate, *ref):
            ref = scipy_quad(func, a, b, breaks, tol, graded=True)
        calls.append((value, estimate) + ref)
        return value, estimate

    cz._quad = both
    try:
        yield calls
    finally:
        cz._quad = rule


def outside_scipy(calls) -> list[tuple[float, float, float, float]]:
    """The calls whose value lies outside scipy's value +- both estimates
    +- BISECT_TOL relative (empty when all agree)."""
    return [c for c in calls if _disagree(*c)]


# ---------------------------------------------------------------------------
# references for the weighted sample-sort oracles: the per-cell loops that
# oracle.py replaced, kept as the bit-for-bit specification


def weighted_sorted_reference(sample, end: float, cuts=()):
    """``oracle._weighted_sorted`` as a knot set, a stable sort of
    (magnitude, width) pairs and a clamped running sum."""
    body_top = min(end, orc.GRID_TOP)
    knots: set[float] = {0.0}
    x = orc.GRID_HEAD_START
    step = orc.GRID_HEAD_RATIO
    while x < min(body_top, 0.125):
        knots.add(x)
        x *= step
    cells = orc.GRID_BODY_CELLS
    h = body_top / float(cells)
    i0 = int(0.125 / h) + 1
    knots.update(min(i0 * h + j * h, body_top) for j in range(cells - i0 + 1))
    top = body_top
    if end > orc.GRID_TOP:
        top = min(end, orc.GRID_TAIL_END)
        x = body_top
        tail_step = orc.GRID_TAIL_RATIO
        while x < top:
            knots.add(x)
            x *= tail_step
        knots.add(top)
    for c in cuts:
        if not 0.0 < c < top:
            continue
        knots.add(c)
        for k in range(8, 41):
            eps = 2.0 ** -k
            if c * (1.0 - eps) > 0.0:
                knots.add(c * (1.0 - eps))
            if c * (1.0 + eps) < top:
                knots.add(c * (1.0 + eps))
    ordered = sorted(knots)
    vals = sample([0.5 * (lo + hi) for lo, hi in zip(ordered, ordered[1:])])
    pairs = [(abs(v), hi - lo) for v, lo, hi in zip(vals, ordered, ordered[1:])]
    pairs.sort(key=lambda vw: -vw[0])
    values = [v for v, _ in pairs]
    cum = []
    acc = 0.0
    for _, w in pairs:
        acc += w
        cum.append(min(acc, top))
    return values, cum


def lorentz_sampled_reference(sample, end: float, spec, cuts=()) -> float:
    """``oracle._lorentz_sampled`` with a per-cell loop and a dict update
    per cell for the octave sums."""
    values, cum = weighted_sorted_reference(sample, end, cuts)
    atom = spec.atom_at_zero
    total = atom * values[0] if atom > 0.0 else 0.0
    prev = 0.0
    phi_prev = atom
    octave_sums: dict[int, float] = {}
    first = True
    live = next((i for i, v in enumerate(values) if v <= 0.0), len(values))
    exhausted = live == len(values)
    for v, c, phi_c in zip(values, cum, spec.values(cum[:live])):
        contrib = v * (phi_c - phi_prev)
        total += contrib
        if c > 0.0 and not first:
            k = math.floor(math.log2(c))
            octave_sums[k] = octave_sums.get(k, 0.0) + contrib
        first = False
        prev = c
        phi_prev = phi_c
    scale = 1.0 + abs(total)
    lows = sorted(k for k in octave_sums if k < -8)
    if len(lows) >= 6:
        seq = [octave_sums[k] for k in lows[:6]]
        if all(s > 1e-10 * scale for s in seq) and seq[0] >= 0.5 * max(seq):
            return INF
    if math.isinf(end) and exhausted and prev > 0.0:
        kmax = math.floor(math.log2(prev))
        s_last = octave_sums.get(kmax - 1, 0.0)
        s_prev = octave_sums.get(kmax - 2, 0.0)
        if s_last > 1e-12 * scale:
            ratio = s_last / s_prev if s_prev > 0.0 else 1.0
            if ratio >= orc.DIVERGENCE_RATIO:
                return INF
            total += s_last * ratio / (1.0 - ratio)
    return total


def marcinkiewicz_sampled_reference(sample, end: float, spec,
                                    cuts=()) -> float:
    """``oracle._marcinkiewicz_sampled`` with a per-cell loop and a dict
    update per cell for the octave maxima."""
    values, cum = weighted_sorted_reference(sample, end, cuts)
    best = 0.0
    acc = 0.0
    prev = 0.0
    oct_best: dict[int, float] = {}
    for v, c, phi_c in zip(values, cum, spec.values(cum)):
        acc += v * (c - prev)
        prev = c
        if c > 0.0:
            cand = phi_c * acc / c
            if math.isfinite(cand):
                best = max(best, cand)
                k = math.floor(math.log2(c))
                if cand > oct_best.get(k, 0.0):
                    oct_best[k] = cand
            else:
                return INF
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


# ---------------------------------------------------------------------------
# references for the other samplers' grids: the constructions that oracle.py
# replaced by memos, built on every call


def sorted_samples_reference(sample, end: float, n: int):
    """``oracle._sorted_samples`` with its nodes built on every call."""
    top = min(end, orc.GRID_TOP)
    h = (top - orc.GRID_DELTA) / n
    nodes = [orc.GRID_DELTA + (i + 0.5) * h for i in range(n)]
    return sorted(map(abs, sample(nodes)), reverse=True), h


def sup_points_reference(end: float, cuts) -> list[float]:
    """The points of ``oracle._sup_sampled``, built by a loop on every call,
    as one sorted set."""
    pts: set[float] = set()
    top = min(end, 2.0 ** 30)
    x = 2.0 ** -40
    while x < top:
        pts.add(x)
        x *= 2.0 ** (1.0 / 64)
    for c in cuts:
        pts.add(math.nextafter(c, 0.0))
        if c < end:
            pts.add(c)
    return sorted(pts)


def sup_sampled_reference(sample, end: float, cuts) -> float:
    """``oracle._sup_sampled`` on the points of ``sup_points_reference``,
    sampled in one call."""
    best = 0.0
    for v in map(abs, sample(sup_points_reference(end, cuts))):
        if math.isfinite(v):
            best = max(best, v)
        else:
            return INF
    return best


def shell_nodes_reference(end: float, cuts):
    """``oracle._shell_nodes`` with every panel built on every call, as
    lists, and each panel's weights summed cell by cell: 64 Simpson cells,
    nodes at the cell ends and midpoints, every node clamped to the float
    below the panel's right end, where the last node sits."""
    weights: list[list[float]] = []
    nodes: list[float] = []
    lo = 2.0 ** orc.SHELL_LOW
    top = min(end, 2.0 ** orc.SHELL_HIGH)
    while lo < top:
        hi = min(lo * 2.0, top)
        xs = [lo] + sorted(set(c for c in cuts if lo < c < hi)) + [hi]
        ws: list[float] = []
        for x0, x1 in zip(xs, xs[1:]):
            h = (x1 - x0) / 64.0
            last = math.nextafter(x1, x0)
            nodes += [min(x0 + j * (h / 2.0), last) for j in range(128)]
            nodes.append(last)
            panel = [0.0] * 129
            for i in range(64):
                sixth = h / 6.0
                panel[2 * i] += sixth
                panel[2 * i + 1] += 4.0 * sixth
                panel[2 * i + 2] += sixth
            ws += panel
        weights.append(ws)
        lo = hi
    return nodes, weights


# ---------------------------------------------------------------------------
# reference for the Orlicz oracle: the modular with one product per node,
# where the oracle forms one product per run of one magnitude


def orlicz_modular_reference(sample, end: float, cuts, spec):
    """``oracle._orlicz_modular`` with one product per node, each shell
    and the whole summed by ``math.fsum``.  Returns modular(lam), which
    reads (value, the products in node order)."""
    nodes, weights = orc._shell_nodes(end, cuts)
    mags = [abs(v) for v in sample(nodes)]
    magnitudes = list(dict.fromkeys(mags))
    slot = {g: i for i, g in enumerate(magnitudes)}
    pairs = list(zip([w for ws in weights for w in ws],
                     [slot[g] for g in mags]))
    ends = list(itertools.accumulate(map(len, weights), initial=0))

    def modular(lam: float) -> tuple[float, list[float]]:
        values: list[float] = []
        for g in magnitudes:
            v = spec.value(g / lam)
            if math.isinf(v):
                return INF, []
            values.append(v)
        products = [w * values[i] for w, i in pairs]
        sums = [orc._fsum(products[a:b]) for a, b in zip(ends, ends[1:])]
        return orc._continue_ends(orc._fsum(products), sums, end), products

    return modular


def orlicz_lux_reference(sample, end: float, cuts, spec) -> float:
    """``oracle._orlicz_lux`` over ``orlicz_modular_reference``'s value."""
    reference = orlicz_modular_reference(sample, end, cuts, spec)
    modular = lambda lam: reference(lam)[0]
    lam = 1.0
    rho = modular(lam)
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
    for _ in range(80):
        mid = 0.5 * (hi + lo_bad)
        if modular(mid) > 1.0:
            lo_bad = mid
        else:
            hi = mid
        if hi - lo_bad <= 1e-12 * hi:
            break
    return hi


# ---------------------------------------------------------------------------
# reference for the Marcinkiewicz sup search: the t-grid search that the
# level-form search replaced


def _golden_max(fn, a: float, b: float, tol: float = 1e-10) -> float:
    """Golden-section refinement for a unimodal bump inside [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol * max(1.0, abs(b)):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
    return max(fc, fd)


def marcinkiewicz_grid_reference(f: pw.PPL, spec) -> tuple[float, float]:
    """(value, error bound) of sup_t phi(t)*f**(t) for an f without an
    exact rearrangement, by a t-grid search: phi * f** on the grid
    2**-24 .. 2**24 in quarter octaves plus phi's breakpoints, each point
    inverting f* by bisection, then golden-section refinement around every
    local maximum of the grid, since phi*f** of rising steps can have two
    bumps.  The bound is the winning refinement's step plus
    1e-8*(1 + value); the grid never looks past 2**24, so a sup approached
    only at infinity reads short."""
    r = rr.decreasing_rearrangement(f)
    if math.isinf(r.sup_value) and rr.second_maximal(r, 1.0) == INF:
        return INF, 0.0
    fn = lambda t: spec.value(t) * rr.second_maximal(r, t)
    end = f.domain.end
    grid = [t for t in (2.0 ** (k / 4.0) for k in range(-96, 97))
            if t <= end] + [b for b in spec.phi.breakpoints() if 0 < b <= end]
    grid = sorted(set(grid))
    vals = [fn(t) for t in grid]
    if math.isinf(max(vals)):
        return INF, 0.0
    value, step = -INF, 0.0
    for i, v in enumerate(vals):
        if v < max(vals[max(i - 1, 0):i + 2]):
            continue
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        refined = _golden_max(fn, lo, hi) if hi > lo else v
        if max(v, refined) > value:
            value, step = max(v, refined), abs(refined - v)
    return value, step + 1e-8 * (1.0 + value)


# ---------------------------------------------------------------------------
# references for core and truncation-core membership: the sampled tests
# that ``norms.in_core`` and ``norms.in_truncation_core`` replaced


def _all_of(flags) -> bool | None:
    """Three-valued AND: False if any flag is False, True if all are True."""
    if any(d is False for d in flags):
        return False
    return True if all(d is True for d in flags) else None


def _escaping_tail(f: pw.PPL, S, evidence: dict) -> bool | None:
    """Do the norms in S of f restricted to [n, end) vanish as n grows?

    The last samples go to evidence["tail_norms"].
    """
    def tail(n: float) -> float:
        A = pw.MeasurableSet.from_intervals(f.domain, [(n, f.domain.end)])
        return nm.norm(pw.restrict(f, A), S).value

    decision, vals = oc.vanishing_sequence(tail)
    evidence["tail_norms"] = vals[-6:]
    return decision


def tail_test_point(f: pw.PPL, X) -> tuple[bool | None, dict]:
    """Is f in the core of the symmetric space X, by sampling?

    Tests the two canonical nested null families: shrinking head sets of
    the rearrangement (small-measure concentration) and escaping tails of
    the domain, each by ``oc.vanishing_sequence``.  A bounded f has head
    norms squeezed between (sup - eps)*phi(s) and sup*phi(s), so its head
    leg is the triviality of the core.
    """
    evidence: dict = {}
    if f.is_zero:
        return True, {"zero": True}
    if math.isfinite(pw.essential_sup_abs(f)):
        if nm.xa_trivial(X):
            return False, {"head": "fundamental function stays positive at 0"}
        head_dec: bool | None = True
    else:
        # superlevel sets are equimeasurable with shrinking left cuts of
        # the rearrangement
        def head(lam: float) -> float:
            piece = pw.restrict(pw.absolute(f), rr.superlevel_set(f, lam))
            return nm.norm(piece, X).value

        head_dec, head_vals = oc.vanishing_sequence(head)
        evidence["head_norms"] = head_vals[-6:]
    flags = [head_dec]
    if not f.domain.is_unit:
        flags.append(_escaping_tail(f, X, evidence))
    return _all_of(flags), evidence


def truncation_core_membership(f: pw.PPL, CX) -> tuple[bool | None, dict]:
    """Do the canonical truncations of f converge to f in the averaged
    space CX, by sampling?

    The norms in CX of the excess of |f| over the height n (``excess``)
    and, on the half-line, of f restricted to [n, inf) must both vanish,
    each by ``oc.vanishing_sequence``.
    """
    evidence: dict = {}

    def excess(n: float) -> float:
        return nm.norm(excess_over(f, n, f.domain.end), CX).value

    exc_dec, exc_vals = oc.vanishing_sequence(excess)
    evidence["excess_norms"] = exc_vals[-6:]
    flags = [exc_dec]
    if not f.domain.is_unit:
        flags.append(_escaping_tail(f, CX, evidence))
    return _all_of(flags), evidence


# ---------------------------------------------------------------------------
# f** and the L1+Linf norm by their older constructions, the references of
# ``rearrange._head_integral``


def excess_over(f: pw.PPL, level: float, horizon: float) -> pw.PPL:
    """(|f| - level)_+ on [0, horizon) and |f| beyond it, exact."""
    cap = pw.step_function(f.domain, [(0.0, horizon, level)])
    g = pw.combine(pw.absolute(f), cap, "sub")
    return pw.scale(pw.combine(g, pw.absolute(g), "add"), 0.5)


def sum_space_reference(f: pw.PPL) -> tuple[float, float]:
    """(integral of f* over [0, 1], rounding bound): f*(1) plus the exact
    integral of (|f| - f*(1))_+, whose antiderivative differences round
    to a few ulps of the antiderivative (as ``norms._lp_ppl`` bounds them)."""
    lam1 = rr.decreasing_rearrangement(f).evaluate(1.0)
    excess = excess_over(f, lam1, f.domain.end) if lam1 > 0.0 \
        else pw.absolute(f)
    slack = 64.0 * math.ulp(1.0) * sum(
        nm._antiderivative_magnitude(p.term_map(), p.lo, p.hi)
        for p in excess.pieces)
    return lam1 + pw.integrate(excess), slack


def maximal_reference(f: pw.PPL, t: float) -> tuple[float, float]:
    """(f**(t), error estimate) by quadrature of the bisected f* over
    [0, t] (``cesaro.cesaro_numeric``), split where f* can kink: at both
    ends [d_f(v), d_f(v-)] of the stretch where f* = v, for each critical
    value v of |f| and for v = 0."""
    r = rr.decreasing_rearrangement(f)
    kinks = {0.0}
    for v in [0.0] + rr.critical_values(f):
        for level in (v, math.nextafter(v, 0.0)):
            d = rr.distribution(f, level)
            if math.isfinite(d):
                kinks.add(d)
    return cz.cesaro_numeric(r.evaluate, t, breakpoints=sorted(kinks))
