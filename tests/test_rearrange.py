"""Distribution functions, decreasing rearrangements, maximal functions."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cesarospaces import norms as nm
from cesarospaces import piecewise as pw
from cesarospaces import rearrange as rr
from cesarospaces import rootfind
from cesarospaces import spaces as sp
from cesarospaces.errors import EvaluationDomainError, NotRearrangeableError
from cesarospaces.piecewise import INF
from support import (HALFLINE as H, UNIT as U, maximal_reference,
                     nonzero_step_functions, power_log_pieces, step_functions,
                     sum_space_reference, two_power_log_pieces)


def two_level_step() -> pw.PPL:
    return pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, 3.0, -1.0)])


# ---------------------------------------------------------------------------
# distribution function


def test_distribution_of_step_is_right_continuous_staircase():
    f = two_level_step()
    assert rr.distribution(f, 0.0) == 3.0
    assert rr.distribution(f, 0.5) == 3.0
    assert rr.distribution(f, 1.0) == 1.0  # strict inequality at the level
    assert rr.distribution(f, 1.5) == 1.0
    assert rr.distribution(f, 2.0) == 0.0


def test_distribution_of_power_tail():
    f = pw.power_piece(H, 1.0, INF, 1.0, -1.0)
    assert rr.distribution(f, 0.25) == pytest.approx(3.0, abs=1e-12)
    assert rr.distribution(f, 2.0) == 0.0
    assert rr.distribution(f, 0.0) == INF


@pytest.mark.parametrize("alpha", [-1.0, -0.5])
def test_level_reached_only_at_infinity_cuts_nothing_off(alpha):
    # 1 + t**alpha on [1, inf) exceeds 1 everywhere: {|f| > 1} is the
    # whole unbounded piece, not a crossing solved near t = e**700
    f = pw.make_ppl(H, [(1.0, INF, {(0.0, 0): 1.0, (alpha, 0): 1.0})])
    assert rr.distribution(f, 1.0) == INF


# levels at which the closed-form crossing (lam/c)**(1/alpha) leaves the
# float range: the first two overflowed, the third divided by zero, and the
# rising fourth came out nan
@pytest.mark.parametrize("f, lam", [
    (pw.make_ppl(H, [(1.0, INF, {(-0.6, 0): 1.0})]), 1e-190),
    (pw.make_ppl(H, [(1.0, INF, {(-1.0, 0): 0.5})]), 1e-310),
    (pw.make_ppl(H, [(0.5, INF, {(-1.0, 0): 2.0})]), 5e-324),
    (pw.make_ppl(H, [(1.0, INF, {(0.001, 0): 1.0})]), 1e300),
])
def test_a_crossing_past_the_float_range_measures_inf(f, lam):
    assert rr.distribution(f, lam) == INF
    assert rr._level_mass(pw.segment_table(f), lam) == (INF, INF)


@pytest.mark.parametrize("coeff, alpha, lam", [
    (1.0, -1.01, 5e-324),
    (0.5, -1.04, 5e-324),
    (1e10, -1.01, 5e-324),  # lam / coeff underflows to 0
])
def test_mass_above_a_level_crossed_past_the_float_range(coeff, alpha, lam):
    # a falling c*t**alpha on [1, inf) crosses lam at x = (lam/c)**(1/alpha),
    # past the largest float: the set above lam has infinite measure, and
    # its mass is the whole c/-(alpha + 1) less the tail past x
    f = pw.make_ppl(H, [(1.0, INF, {(alpha, 0): coeff})])
    d, mass = rr._level_mass(pw.segment_table(f), lam)
    tail_share = math.exp((alpha + 1.0) / alpha
                          * (math.log(lam) - math.log(coeff)))
    assert d == INF
    assert mass == pytest.approx(coeff / -(alpha + 1.0) * (1.0 - tail_share),
                                 rel=1e-13)
    if (coeff, alpha) == (1.0, -1.01):
        # 100*(1 - x**-0.01), not the whole 100
        assert mass == pytest.approx(99.937056866, rel=1e-10)


@st.composite
def _crossing_cases(draw):
    """(terms, lo, hi, shares): a lone c*t**alpha, b/t + a or a general
    sum of up to three terms on a finite [lo, hi), and shares in (0, 1)
    that place levels between the end values of each monotone segment."""
    kind = draw(st.sampled_from(["power", "hyperbola", "general"]))
    coeff = lambda: draw(st.sampled_from([-1.0, 1.0])) * draw(
        st.floats(0.125, 8.0))
    if kind == "power":
        alpha = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 3.0))
        terms = {(alpha, 0): coeff()}
    elif kind == "hyperbola":
        terms = {(-1.0, 0): coeff(), (0.0, 0): coeff()}
    else:
        keys = draw(st.lists(st.tuples(st.floats(-2.0, 2.0),
                                       st.integers(0, 2)),
                             min_size=1, max_size=3, unique=True))
        terms = {key: coeff() for key in keys}
    lo = draw(st.floats(1.0 / 64.0, 4.0))
    hi = lo * draw(st.floats(1.5, 64.0))
    shares = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4))
    return terms, lo, hi, shares


@given(case=_crossing_cases())
@settings(max_examples=300, deadline=None)
@example(case=({(-0.5, 0): 2.0}, 0.25, 4.0, [0.5]))
@example(case=({(-1.0, 0): 3.0, (0.0, 0): -0.5}, 0.5, 4.0, [0.001, 0.999]))
@example(case=({(1.0, 1): 1.0, (0.5, 0): -1.0}, 0.125, 8.0, [0.25, 0.75]))
def test_a_crossing_is_the_root_of_the_terms_minus_the_level(case):
    terms, lo, hi, shares = case
    for seg in pw.segment_table(pw.make_ppl(H, [(lo, hi, terms)])):
        # on a segment flat to within a thousandth of its values (say
        # t**1e-10), an ulp of the level moves the crossing far
        if abs(seg.vhi - seg.vlo) < 1e-3 * max(seg.vlo, seg.vhi):
            continue
        for share in shares:
            lam = seg.vlo + share * (seg.vhi - seg.vlo)
            if not min(seg.vlo, seg.vhi) < lam < max(seg.vlo, seg.vhi):
                continue
            shifted = dict(seg.terms)
            shifted[(0.0, 0)] = shifted.get((0.0, 0), 0.0) - lam
            root, = rootfind.roots_t(shifted, seg.lo, seg.hi)
            assert rr._crossing(seg, lam) == pytest.approx(root, rel=1e-11)


def test_critical_values_are_distinct_magnitudes():
    f = two_level_step()
    assert rr.critical_values(f) == [1.0, 2.0]


# ---------------------------------------------------------------------------
# decreasing rearrangement


def test_rearrangement_of_step_sorts_by_magnitude():
    f = two_level_step()
    r = rr.decreasing_rearrangement(f)
    assert r.exact is not None
    assert r.exact(0.5) == 2.0
    assert r.exact(1.5) == 1.0
    assert r.exact(4.0) == 0.0
    assert rr.equimeasurable(f, r.exact)


def test_rearrangement_keeps_nonincreasing_functions():
    g = pw.make_ppl(H, [(0.0, 1.0, {(0.0, 0): 1.0}),
                        (1.0, INF, {(-1.0, 0): 1.0})])
    r = rr.decreasing_rearrangement(g)
    assert r.exact == g


def test_rearrangement_of_a_falling_modulus_is_the_modulus():
    # 1.7 t**-0.25 ln t is negative on (0, 1) and |f| falls there
    f = pw.make_ppl(H, [(0.0, 1.0, {(-0.25, 1): 1.7})])
    r = rr.decreasing_rearrangement(f)
    assert r.exact == pw.absolute(f)


def test_constant_on_halfline_rearranges_to_itself():
    c = pw.step_function(H, [(0.0, INF, 1.0)])
    r = rr.decreasing_rearrangement(c)
    assert r.exact == c
    assert r.value_at_infinity == 1.0


def test_unbounded_growth_is_not_rearrangeable():
    with pytest.raises(NotRearrangeableError):
        rr.decreasing_rearrangement(pw.power_piece(H, 0.0, INF, 1.0, 1.0))


def test_rearrangement_bisection_path():
    # (1/x) on (1, inf) is not monotone on its whole domain (it jumps up
    # at 1), so the rearrangement falls back to bisection: f*(s) = 1/(1+s)
    f = pw.power_piece(H, 1.0, INF, 1.0, -1.0)
    r = rr.decreasing_rearrangement(f)
    assert r.exact is None
    for s in (0.5, 1.0, 3.0, 10.0):
        assert r.evaluate(s) == pytest.approx(1.0 / (1.0 + s), abs=1e-8)
    assert r.evaluate(0.0) == 1.0


def test_an_exact_rearrangement_reads_its_source_and_its_exact_form():
    f = two_level_step()
    r = rr.decreasing_rearrangement(f)
    assert r.exact is not None
    assert r.exact.breakpoints() == [0.0, 1.0, 3.0]
    for lam in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert rr.distribution(r, lam) == rr.distribution(f, lam)


def test_rearrangement_rejects_negative_argument():
    r = rr.decreasing_rearrangement(two_level_step())
    with pytest.raises(EvaluationDomainError):
        r.evaluate(-0.1)


def test_rearrangement_of_zero():
    r = rr.decreasing_rearrangement(pw.zero(U))
    assert r.exact is not None and r.exact.is_zero
    assert r.sup_value == 0.0


# ---------------------------------------------------------------------------
# maximal function


def test_maximal_function_of_indicator():
    f = pw.indicator(H, 0.0, 1.0)
    m = rr.maximal_function(f)
    assert m.exact is not None
    assert m(0.5) == 1.0
    assert m(4.0) == pytest.approx(0.25, abs=1e-14)


def test_maximal_function_numeric_fallback():
    # f* = 1/(1+s) gives f**(t) = ln(1+t)/t
    f = pw.power_piece(H, 1.0, INF, 1.0, -1.0)
    m = rr.maximal_function(f)
    assert m.exact is None
    assert m(1.0) == pytest.approx(math.log(2.0), abs=1e-7)
    assert m(4.0) == pytest.approx(math.log(5.0) / 4.0, abs=1e-7)


@st.composite
def _inexact_rearrangements(draw):
    """(f, t): one piece c*t**a*ln(t)**k or two such pieces side by side,
    on either domain, whose f* has no exact form, and a window t."""
    domain = draw(st.sampled_from([H, U]))
    if draw(st.booleans()):
        f = draw(power_log_pieces(domain=domain))
    else:
        f = draw(two_power_log_pieces(domain=domain))
    try:
        r = rr.decreasing_rearrangement(f)
    except NotRearrangeableError:
        r = None
    assume(r is not None and r.exact is None)
    # next to a = -1 both routes have known defects: the exact masses are
    # differences of antiderivative terms of size 1/(a + 1)**(k + 1), which
    # cancel (ROADMAP item 6, pinned by
    # test_the_average_of_a_power_next_to_minus_one_cancels), and the
    # quadrature misses the mass of f* ~ s**a below its least node (item 3)
    assume(all(a == -1.0 or abs(a + 1.0) >= 0.05
               for p in f.pieces for (a, _k), _c in p.pairs))
    t = draw(st.sampled_from([0.1, 0.3, 1.0] if domain.is_unit
                             else [0.1, 1.0, 2.5]))
    return f, t


@given(case=_inexact_rearrangements())
@example(case=(pw.power_piece(H, 1.0, INF, 1.0, -1.0), 1.0))
@settings(max_examples=60, deadline=None)
def test_the_layer_cake_rule_matches_the_quadrature_and_excess_routes(case):
    # f** and the L1 + Linf norm read f* through one bisection and one mass
    # pass; quadrature over the bisected f* and f*(1) plus the integral of
    # the excess over f*(1) are the independent references
    f, t = case
    value = rr.maximal_function(f)(t)
    try:
        want, estimate = maximal_reference(f, t)
    except EvaluationDomainError:
        # the quadrature probed f* at some s below e**-700, where the
        # bisection reads inf (the crossing floor of ROADMAP item 3)
        assert math.isfinite(value)
    else:
        assert abs(value - want) <= 1e-8 * abs(want) + estimate
    res = nm._sum_space_ppl(f)
    want, slack = sum_space_reference(f)
    assert abs(res.value - want) <= res.error_bound + slack


def test_an_l1_plus_linf_norm_on_a_plateau_does_not_cancel():
    # |f| peaks at ln t = 2/0.0653, t ~ 2e13, and f*(1) is that peak; the
    # excess over it is rounding noise on a piece 31 wide near t = 2e13,
    # whose exact integral came out -0.5, so the norm read 145.39
    a, c = -0.06527711068333197, 1.148382476143522
    f = pw.make_ppl(H, [(0.0, 1.0, {(0.0, 0): -1.0}),
                        (1.0, INF, {(a, 2): -c})])
    peak = c * math.exp(-2.0) * (2.0 / a) ** 2
    assert nm._sum_space_ppl(f).value == pytest.approx(peak, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the mass above f*(t) is a difference of the antiderivative "
    "t**(a + 1)/(a + 1), about 9e15 here, which cancels to its last bits "
    "(ROADMAP item 6: honest exact integrals)"))
def test_the_average_of_a_power_next_to_minus_one_cancels():
    # f* = 1/(0.5 + s) up to one ulp in the exponent, so f**(0.1) is
    # 10*ln(1.2); quadrature over the bisected f* gave it to 4e-13, the
    # layer-cake rule reads f*(0.1) = 1/0.6 instead
    f = pw.make_ppl(U, [(0.5, 1.0, {(-0.9999999999999999, 0): 1.0})])
    assert rr.maximal_function(f)(0.1) == pytest.approx(
        10.0 * math.log(1.2), rel=1e-9)


def test_second_maximal_agrees_with_maximal():
    f = two_level_step()
    m = rr.maximal_function(f)
    for t in (0.5, 1.0, 2.0, 5.0):
        assert rr.second_maximal(f, t) == pytest.approx(m(t), abs=1e-8)


# ---------------------------------------------------------------------------
# dilation and equimeasurability


def test_dilation_stretches_support():
    f = pw.indicator(H, 0.0, 1.0)
    g = rr.dilation(f, 2.0)
    assert g == pw.indicator(H, 0.0, 2.0)
    h = rr.dilation(f, 0.5)
    assert h == pw.indicator(H, 0.0, 0.5)


def test_dilation_clips_to_unit_domain():
    f = pw.indicator(U, 0.0, 0.9)
    g = rr.dilation(f, 2.0)
    assert g.support_bound() == 1.0


def test_equimeasurable_detects_scaling():
    f = two_level_step()
    assert not rr.equimeasurable(f, pw.scale(f, 2.0))
    assert rr.equimeasurable(f, pw.absolute(f))


def test_superlevel_set_strict():
    f = two_level_step()
    A = rr.superlevel_set(f, 1.0)
    assert A.intervals == ((0.0, 1.0),)
    B = rr.superlevel_set(f, 0.5)
    assert B.intervals == ((0.0, 3.0),)


def test_superlevel_set_of_ramp():
    f = pw.power_piece(H, 0.0, 1.0, 1.0, 1.0)
    A = rr.superlevel_set(f, 0.5)
    assert len(A.intervals) == 1
    lo, hi = A.intervals[0]
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == 1.0


def test_a_level_met_at_a_segment_end_cuts_nothing_off():
    # the old cut solved t**0.5 = sqrt(2) and started the set at
    # 2.0000000000000004, of measure 0.9999999999999996
    f = pw.power_piece(H, 2.0, 3.0, 1.0, 0.5)
    lam = math.sqrt(2.0)
    A = rr.superlevel_set(f, lam)
    assert A.intervals == ((2.0, 3.0),)
    assert A.measure() == rr.distribution(f, lam) == 1.0


@st.composite
def _steps_and_power_log_pieces(draw):
    domain = draw(st.sampled_from([H, U]))
    return draw(st.one_of(step_functions(domain=domain),
                          power_log_pieces(domain=domain)))


@given(f=_steps_and_power_log_pieces())
@settings(max_examples=200, deadline=None)
def test_the_superlevel_set_measures_the_distribution_at_critical_values(f):
    # both cut the segments of |f| by one rule; merging touching intervals
    # only regroups the sum of the lengths
    for v in rr.critical_values(f):
        d = rr.distribution(f, v)
        m = rr.superlevel_set(f, v).measure()
        assert m == d if math.isinf(d) else abs(m - d) <= 4 * math.ulp(d)


@pytest.mark.parametrize("f, lam", [
    (pw.make_ppl(H, [(1.0, INF, {(0.001, 0): 1.0})]), 1e300),
    (pw.make_ppl(H, [(1.0, INF, {(0.0, 0): 1.0, (-0.001, 0): -1.0})]),
     1.0 - 2.0 ** -52),
])
def test_a_rising_crossing_past_the_float_range_keeps_an_unbounded_part(
        f, lam):
    # the first crosses lam in closed form at t = 10**300000 and read the
    # empty set; the second crosses at 2**52000 and the Brent fallback
    # snaps to e**700, where the part of the first now starts too
    A = rr.superlevel_set(f, lam)
    assert A.intervals == ((math.exp(700.0), INF),)
    assert A.measure() == rr.distribution(f, lam) == INF


def test_superlevel_set_of_a_difference_of_powers():
    # t**2 - t**1.5 grows without bound; the old overflow rule read the
    # sum at u = 701 as +inf from its first term and cut nothing off
    f = pw.make_ppl(H, [(1.0, INF, {(2.0, 0): 1.0, (1.5, 0): -1.0})])
    (lo, hi), = rr.superlevel_set(f, 10.0).intervals
    assert hi == INF
    assert lo ** 2 - lo ** 1.5 == pytest.approx(10.0, rel=1e-12)


def test_rearrangement_of_a_head_whose_peak_lies_past_the_float_range():
    # 1.045*t**0.0008*ln(t)**2 peaks at ln t = -2500 and falls from there
    # to 0 at t = 1; on the float range it falls, and f* is f itself up to
    # a set of measure e**-700
    f = pw.make_ppl(U, [(0.0, 1.0, {(0.0008, 2): 1.045})])
    r = rr.decreasing_rearrangement(f)
    assert r.support_measure() == 1.0
    assert r.sup_value == pytest.approx(pw.evaluate(f, math.exp(-700.0)),
                                        rel=1e-12)
    for s in (1e-10, 0.01, 0.5):
        assert r.evaluate(s) == pytest.approx(pw.evaluate(f, s), rel=1e-9)


# ---------------------------------------------------------------------------
# property-based checks


@given(f=nonzero_step_functions())
@settings(max_examples=50, deadline=None)
def test_rearrangement_is_nonincreasing_and_equimeasurable(f):
    r = rr.decreasing_rearrangement(f)
    assert r.exact is not None
    assert pw.is_nonincreasing(r.exact)
    assert rr.equimeasurable(f, r.exact)


@given(f=nonzero_step_functions())
@settings(max_examples=50, deadline=None)
def test_rearrangement_preserves_mass_and_sup(f):
    r = rr.decreasing_rearrangement(f)
    assert pw.integrate(r.exact) == pytest.approx(
        pw.integrate(pw.absolute(f)), rel=1e-10, abs=1e-12)
    assert r.sup_value == pytest.approx(pw.essential_sup_abs(f), abs=0.0)


@given(f=nonzero_step_functions(domain=U))
@settings(max_examples=30, deadline=None)
def test_unit_domain_rearrangement_stays_in_unit(f):
    r = rr.decreasing_rearrangement(f)
    assert r.exact.support_bound() <= 1.0 + 1e-12
    with pytest.raises(EvaluationDomainError):
        r.evaluate(1.5)


# ---------------------------------------------------------------------------
# the germ of f* at 0: where |f| blows up, f* has the germ of f's first
# piece there (``norms.peak_limits`` and the membership rule read it)

# 2**-1000 is above e**-700, the smallest t that the level crossings of
# ``rearrange`` resolve
_SMALLEST_J = 1000


@st.composite
def _blowing_up_heads(draw):
    """(f, head): a signed f whose first piece c*t**a*ln(t)**k on [0, h),
    h <= 1, blows up at 0 and falls on (0, h), followed by 1 to 4 bounded
    pieces (constants, or c*t**b*ln(t)**m on intervals away from 0)."""
    a = draw(st.sampled_from([-0.75, -0.5, -0.25, 0.0]))
    k = draw(st.integers(1 if a == 0.0 else 0, 3))
    sign = st.sampled_from([1.0, -1.0])
    c = draw(st.floats(0.1, 4.0)) * draw(sign)
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))
    rows = [(0.0, h, {(a, k): c})]
    lo = h
    for _ in range(draw(st.integers(1, 4))):
        hi = lo + draw(st.floats(0.1, 4.0))
        b = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]))
        m = 0 if b == 0.0 else draw(st.integers(0, 2))
        rows.append((lo, hi, {(b, m): draw(st.floats(0.1, 4.0)) * draw(sign)}))
        lo = hi
    return pw.make_ppl(H, rows), rows[0][2]


@given(head=_blowing_up_heads(),
       js=st.lists(st.integers(1, _SMALLEST_J), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_rearrangement_has_the_germ_of_the_first_piece_at_zero(head, js):
    # pure-log heads (a = 0) are among the cases: f* reads them right
    f, tm = head
    rest = pw.make_ppl(H, [(p.lo, p.hi, p.term_map()) for p in f.pieces[1:]])
    top = pw.essential_sup_abs(rest)
    r = rr.decreasing_rearrangement(f)
    for j in js:
        s = 2.0 ** -j
        want = abs(pw.eval_term_map(tm, s))
        if s < f.pieces[0].hi and want > top:
            assert r.evaluate(s) == pytest.approx(want, rel=1e-9), s


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "below t = e**-700 the level crossings stop at that t, so the bisection "
    "for f*(s) never finds a level of smaller measure and returns inf "
    "(ROADMAP item 3: past the float range, in log space)"))
def test_rearrangement_of_a_pure_log_head_below_the_crossing_floor():
    # no exact f*: the head falls like ln(t)**2 and the second piece is
    # flat; f*(2**-1010) = 1.3*(1010 ln 2)**2
    f = pw.make_ppl(H, [(0.0, 0.5, {(0.0, 2): 1.3}),
                        (0.5, 2.0, {(0.0, 0): -0.7})])
    s = 2.0 ** -1010
    want = 1.3 * math.log(s) ** 2
    assert rr.decreasing_rearrangement(f).evaluate(s) == pytest.approx(
        want, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the stationary point at t = e**1024 lies past the float range, so "
    "the sup of |f| and f* near 0 read the value at t = e**700, "
    "124863.09 (ROADMAP item 3: past the float range, in log space)"))
@pytest.mark.parametrize("route", ["maximal", "sum-space"])
def test_a_plateau_past_the_float_range_sets_the_average(route):
    # t**(-1/512)*ln(t)**2 peaks at ln t = 1024 with e**-2*1024**2, and
    # stays within 1e-9 of that on a stretch far longer than 1, so f* is
    # the peak value on [0, 1] and so are f**(1) and the L1 + Linf norm
    f = pw.make_ppl(H, [(0.5, INF, {(-1.0 / 512.0, 2): 1.0})])
    if route == "maximal":
        value = rr.maximal_function(f)(1.0)
    else:
        value = nm.norm(f, sp.l1_plus_linf(H)).value
    assert value == pytest.approx(math.exp(-2.0) * 1024.0 ** 2, rel=1e-9)
