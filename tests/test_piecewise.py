"""Exact piecewise power-log calculus: construction, algebra, integration."""

from __future__ import annotations

import copy
import math
import operator
import pickle
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesarospaces import cesaro as cz
from cesarospaces import piecewise as pw
from cesarospaces.errors import (DomainMismatchError, EvaluationDomainError,
                                 RepresentationError, TransformUndefinedError,
                                 UndefinedIntegralError, ValidationError)
from cesarospaces.piecewise import INF
from support import (HALFLINE as H, UNIT as U, power_log_pieces,
                     step_functions)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_make_ppl_sorts_and_merges_equal_neighbours():
    f = pw.make_ppl(H, [(2.0, 3.0, {(0.0, 0): 1.0}),
                        (0.0, 1.0, {(0.0, 0): 1.0}),
                        (1.0, 2.0, {(0.0, 0): 1.0})])
    assert len(f.pieces) == 1
    assert (f.pieces[0].lo, f.pieces[0].hi) == (0.0, 3.0)


def test_make_ppl_drops_zero_terms_and_empty_pieces():
    f = pw.make_ppl(H, [(0.0, 1.0, {(0.0, 0): 0.0}),
                        (3.0, 3.0, {(0.0, 0): 5.0})])
    assert f.is_zero


def test_make_ppl_rejects_overlap():
    with pytest.raises(ValidationError):
        pw.make_ppl(H, [(0.0, 2.0, {(0.0, 0): 1.0}),
                        (1.0, 3.0, {(0.0, 0): 2.0})])


def test_make_ppl_rejects_pieces_outside_domain():
    with pytest.raises(ValidationError):
        pw.make_ppl(U, [(0.5, 2.0, {(0.0, 0): 1.0})])
    with pytest.raises(ValidationError):
        pw.make_ppl(H, [(-1.0, 1.0, {(0.0, 0): 1.0})])


def test_make_ppl_enforces_term_budget():
    fat = {(float(i), 0): 1.0 for i in range(pw.MAX_TERMS_PER_PIECE + 1)}
    with pytest.raises(RepresentationError):
        pw.make_ppl(H, [(0.0, 1.0, fat)])


@pytest.mark.parametrize("logpow", [-1, 1.5])
def test_make_ppl_rejects_bad_logpow(logpow):
    with pytest.raises(ValidationError):
        pw.make_ppl(H, [(0.0, 1.0, {(0.5, logpow): 1.0})])


def test_term_map_is_built_once_and_read_only():
    p = pw.power_piece(H, 0.0, 1.0, 2.0, 0.5, 1).pieces[0]
    assert p.term_map() is p.term_map()
    with pytest.raises(TypeError):
        p.term_map()[(0.0, 0)] = 1.0


def test_piece_terms_come_in_sorted_key_order():
    tm = {(1.0, 0): 3.0, (-0.5, 2): -1.0, (1.0, 1): 0.0, (-0.5, 0): 2.0,
          (0.0, 0): 4.0}
    (piece,) = pw.make_ppl(H, [(1.0, 2.0, tm)]).pieces
    assert piece.terms == (pw.Term(2.0, -0.5, 0), pw.Term(-1.0, -0.5, 2),
                           pw.Term(4.0, 0.0, 0), pw.Term(3.0, 1.0, 0))
    assert list(piece.term_map()) == [(-0.5, 0), (-0.5, 2), (0.0, 0), (1.0, 0)]


def test_insertion_order_does_not_change_a_piece():
    items = [((1.0, 0), 3.0), ((-0.5, 2), -1.0), ((0.0, 0), 4.0)]
    a = pw.make_ppl(H, [(0.0, 1.0, dict(items))])
    b = pw.make_ppl(H, [(0.0, 1.0, dict(reversed(items)))])
    assert a == b
    assert hash(a) == hash(b)
    assert hash(a.pieces[0]) == hash(b.pieces[0])


def test_functions_survive_pickle_and_deepcopy():
    f = pw.make_ppl(H, [(0.0, 1.0, {(0.5, 1): 2.0, (0.0, 0): -1.0})])
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert g == f
        assert g.pieces[0].term_map() == f.pieces[0].term_map()


def test_structural_equality_is_symbolic():
    a = pw.indicator(H, 0.0, 1.0)
    b = pw.step_function(H, [(0.0, 1.0, 1.0)])
    assert a == b
    assert a != pw.indicator(H, 0.0, 2.0)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_step_and_gaps():
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (2.0, 3.0, -1.0)])
    assert f(0.5) == 2.0
    assert f(1.5) == 0.0
    assert f(2.5) == -1.0
    assert f(1.0) == 0.0  # pieces are half-open on the right


def test_evaluate_unit_right_endpoint_closes():
    f = pw.indicator(U, 0.0, 1.0)
    assert f(1.0) == 1.0


def test_evaluate_at_zero_uses_piece_limit():
    f = pw.make_ppl(H, [(0.0, 1.0, {(1.0, 0): 3.0})])
    assert f(0.0) == 0.0
    g = pw.power_piece(H, 0.0, 1.0, 1.0, -0.5)
    with pytest.raises(EvaluationDomainError):
        g(0.0)


def test_evaluate_outside_domain_raises():
    f = pw.indicator(U, 0.0, 1.0)
    with pytest.raises(EvaluationDomainError):
        f(1.5)


@st.composite
def functions_and_points(draw):
    """A function with gaps, step and power-log pieces (a tail on the
    half-line), and sorted points: repeats, breakpoints, t = 0, the right
    end of [0, 1], and sometimes a point outside the domain."""
    domain = draw(st.sampled_from([H, U]))
    top = 1.0 if domain.is_unit else 8.0
    cuts = sorted(set(draw(st.lists(
        st.floats(min_value=0.0, max_value=top), min_size=2, max_size=6))
        + [0.0]))
    if not domain.is_unit and draw(st.booleans()):
        cuts.append(INF)
    coeffs = st.floats(min_value=-4.0, max_value=4.0).filter(lambda c: c)
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        kind = draw(st.sampled_from(["gap", "step", "power-log"]))
        if kind == "step":
            pieces.append((lo, hi, {(0.0, 0): draw(coeffs)}))
        elif kind == "power-log":
            alphas = st.floats(min_value=-1.5, max_value=1.5)
            if math.isinf(hi):
                alphas = st.floats(min_value=-3.0, max_value=-1.5)
            tm = {(draw(alphas), draw(st.integers(0, 2))): draw(coeffs)
                  for _ in range(draw(st.integers(1, 3)))}
            pieces.append((lo, hi, tm))
    f = pw.make_ppl(domain, pieces)
    marks = [0.0, top] + [b for b in f.breakpoints() if b <= top]
    pts = draw(st.lists(st.one_of(st.sampled_from(marks),
                                  st.floats(min_value=0.0, max_value=top)),
                        max_size=40))
    pts += draw(st.lists(st.sampled_from(pts), max_size=5)) if pts else []
    outside = draw(st.sampled_from([[]] * 6 + [[-0.5], [top + 0.5]]))
    pts += outside
    return f, sorted(pts)


def _outcome(fn):
    try:
        return [v.hex() for v in fn()]
    except (EvaluationDomainError, ValueError) as exc:
        return type(exc), str(exc)


@given(case=functions_and_points(), as_array=st.booleans())
@settings(max_examples=200, deadline=None)
@example(case=(pw.power_piece(H, 0.0, 1.0, 1.0, 0.5), [0.0, 0.25, 1.0, 1.0]),
         as_array=True)
@example(case=(pw.step_function(H, [(0.5, INF, 2.0)]), [0.5, 2.0, INF]),
         as_array=False)
def test_evaluate_nondecreasing_is_pointwise_evaluation_bit_for_bit(
        case, as_array):
    # on the points it is given for: nondecreasing numbers, as a list or a
    # float array, errors and all
    f, ts = case
    if as_array:
        ts = array("d", ts)
    assert _outcome(lambda: pw.evaluate_nondecreasing(f, ts)) == \
        _outcome(lambda: [pw.evaluate(f, t) for t in ts])


def test_evaluate_nondecreasing_rejects_a_nan_first_point():
    # a NaN first point must not read as the gap value 0.0; no points read
    # no values
    f = pw.indicator(H, 0.0, 1.0)
    with pytest.raises(ValueError):
        pw.evaluate_nondecreasing(f, [math.nan])
    assert pw.evaluate_nondecreasing(f, []) == []


def test_evaluate_rejects_nan():
    # NaN fails every piece test; it must not read as the gap value 0.0
    for f in (pw.indicator(H, 0.0, 1.0), pw.zero(U)):
        with pytest.raises(ValueError):
            pw.evaluate(f, math.nan)


@st.composite
def term_maps_and_points(draw):
    keys = draw(st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, 3.0])
                  | st.floats(-4.0, 4.0), st.integers(0, 2)),
        min_size=1, max_size=3, unique=True))
    tm = {key: draw(st.floats(-8.0, 8.0).filter(bool)) for key in keys}
    ts = draw(st.lists(st.floats(min_value=5e-324, max_value=1e12)
                       | st.sampled_from([1.0, INF]), max_size=12))
    return tm, sorted(ts)


@given(case=term_maps_and_points())
@settings(max_examples=300, deadline=None)
@example(case=({(400.0, 0): 1.0}, [1.0, 1e10]))
@example(case=({(400.0, 0): -2.0, (0.0, 0): 1.0}, [1e10]))
@example(case=({(0.0, 0): -3.0}, [1e-300, 1.0, INF]))
@example(case=({(-0.5, 0): -2.0}, [4.0, INF]))
def test_term_map_at_many_points_is_pointwise_bit_for_bit(case):
    tm, ts = case
    assert [v.hex() for v in pw._eval_term_map_at(tm, ts)] == \
        [pw.eval_term_map(tm, t).hex() for t in ts]


@pytest.mark.parametrize("tm,ts", [
    # c = 1.0: the map of pow alone
    ({(0.5, 0): 1.0}, [1e-300, 0.25, 2.0, 1e300, INF]),
    ({(-0.5, 0): 1.0}, [5e-324, 4.0, INF]),
    # c = -1.0 is no c = 1.0
    ({(0.5, 0): -1.0}, [0.25, 4.0]),
    # c < 0 where the power underflows: 0.0 + c * 0.0 * 1.0 is +0.0
    ({(400.0, 0): -2.0}, [1e-10, 0.5, 1.0]),
    ({(-400.0, 0): -1.5}, [1e10, INF]),
    ({(400.0, 0): 1.0}, [1e-10, 1.0]),
    # a power past the float range: the pointwise fallback reads inf
    ({(400.0, 0): 1.0}, [1.0, 1e10]),
    ({(400.0, 0): -3.0}, [1e-10, 1e10]),
], ids=["sqrt", "inverse-sqrt-at-the-ends", "minus-sqrt", "negative-underflow",
        "negative-underflow-at-inf", "one-underflow", "one-overflow",
        "negative-overflow"])
def test_the_one_term_map_path_is_pointwise_bit_for_bit(tm, ts):
    values = pw._eval_term_map_at(tm, ts)
    assert [v.hex() for v in values] == \
        [pw.eval_term_map(tm, t).hex() for t in ts]
    assert "-0x0.0p+0" not in [v.hex() for v in values]


def test_power_log_evaluation():
    # t**(-1/2) * ln(t) at t = 4: 0.5 * ln 4
    f = pw.power_piece(H, 1.0, INF, 1.0, -0.5, 1)
    assert f(4.0) == pytest.approx(0.5 * math.log(4.0), rel=1e-15)


def test_limits_at_ends():
    f = pw.power_piece(H, 0.0, 1.0, 1.0, -0.5)
    assert math.isinf(pw.limit_at_zero(f))
    g = pw.power_piece(H, 1.0, INF, 3.0, -1.0)
    assert pw.limit_at_infinity(g) == 0.0
    c = pw.step_function(H, [(0.0, INF, 2.0)])
    assert pw.limit_at_infinity(c) == 2.0
    with pytest.raises(EvaluationDomainError):
        pw.limit_at_infinity(pw.indicator(U, 0.0, 1.0))


def test_limit_term_map_log_dominance():
    # ln t beats any constant at both ends
    tm = {(0.0, 1): 1.0, (0.0, 0): 5.0}
    assert pw.limit_term_map(tm, "inf") == INF
    assert pw.limit_term_map(tm, "zero") == -INF


# exponents in quarters from -3 to 2, so the tie a = -1 and exact sums occur
_GERM_EXPONENTS = [q / 4.0 for q in range(-12, 9)]


@st.composite
def term_maps(draw):
    """Nonzero term maps of up to four terms with mixed signs."""
    keys = draw(st.lists(st.tuples(st.sampled_from(_GERM_EXPONENTS),
                                   st.integers(0, 3)),
                         min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(
        st.builds(operator.mul, st.sampled_from([-1.0, 1.0]),
                  st.floats(0.125, 8.0)),
        min_size=len(keys), max_size=len(keys)))
    return dict(zip(keys, coeffs))


@given(tm=term_maps())
@settings(max_examples=200, deadline=None)
@example(tm={(-1.0, 0): 1.0})
@example(tm={(-1.0, 3): -2.0, (-2.0, 0): 1.0, (0.5, 1): 1.0})
def test_germ_divergence_rule_matches_exact_integral(tm):
    for at, lo, hi in (("inf", 1.0, INF), ("zero", 0.0, 1.0)):
        g = pw.germ(tm, at)
        diverges = pw.integral_diverges(g[1], at)
        assert diverges is math.isinf(pw._piece_integral(tm, lo, hi))
        if diverges:
            # the running average grows like the germ of the exact average
            c, a, k = pw.germ(pw.average_map(tm), at)
            ci, ai, ki = pw.germ_average(g)
            assert (a, k) == (ai, ki)
            assert c == pytest.approx(ci, rel=1e-15)


@given(tm1=term_maps(), tm2=term_maps())
@settings(max_examples=100, deadline=None)
def test_germ_of_product_is_product_of_germs(tm1, tm2):
    h = pw.product(pw.make_ppl(H, [(0.0, INF, tm1)]),
                   pw.make_ppl(H, [(0.0, INF, tm2)]))
    for at in ("zero", "inf"):
        assert pw.germ(h.pieces[-1].term_map(), at) == \
            pw.germ_product(pw.germ(tm1, at), pw.germ(tm2, at))


def test_germ_limit_reads_the_sign_of_log_powers_at_zero():
    assert pw.germ_limit((2.0, 0.0, 3), "zero") == -INF
    assert pw.germ_limit((2.0, 0.0, 2), "zero") == INF
    assert pw.germ_limit((-2.0, -0.5, 3), "inf") == 0.0
    assert pw.germ_limit((-2.0, 0.0, 0), "zero") == -2.0
    with pytest.raises(ValueError):
        pw.germ({(0.0, 0): 1.0}, "middle")


# ---------------------------------------------------------------------------
# integration


def test_integrate_step_exact():
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (2.0, 4.0, -0.5)])
    assert pw.integrate(f) == pytest.approx(1.0, abs=1e-15)
    assert pw.integrate(f, 0.0, 1.0) == 2.0
    assert pw.integrate(f, 3.0, 10.0) == -0.5


def test_integrate_power_with_log():
    # int_0^1 ln(1/t) dt = 1, exactly resolved by the antiderivative limit
    f = pw.power_piece(U, 0.0, 1.0, -1.0, 0.0, 1)
    assert pw.integrate(f) == pytest.approx(1.0, abs=1e-15)


def test_integrate_divergence_is_signed():
    f = pw.power_piece(H, 0.0, 1.0, 1.0, -1.0)
    assert pw.integrate(f) == INF
    assert pw.integrate(pw.scale(f, -2.0)) == -INF


def test_integrate_tail_divergence():
    f = pw.power_piece(H, 1.0, INF, 1.0, -0.5)
    assert pw.integrate(f) == INF


def test_integrate_opposite_divergences_raise():
    f = pw.make_ppl(H, [(0.0, 1.0, {(-2.0, 0): -1.0}),
                        (1.0, INF, {(1.0, 0): 1.0})])
    with pytest.raises(UndefinedIntegralError):
        pw.integrate(f)


def test_integrate_opposite_divergence_single_piece():
    f = pw.make_ppl(H, [(0.0, INF, {(-2.0, 0): -1.0, (1.0, 0): 1.0})])
    with pytest.raises(UndefinedIntegralError):
        pw.integrate(f)


def test_mixed_sign_composite_map_integrates_by_dominant_term():
    # -t**-1 + 4 t**-0.5 near zero: the t**-1 part wins, integral diverges
    f = pw.make_ppl(H, [(0.0, 1.0, {(-1.0, 0): -1.0, (-0.5, 0): 4.0})])
    assert pw.integrate(f) == -INF


# ---------------------------------------------------------------------------
# algebra


def test_combine_add_sub():
    f = pw.indicator(H, 0.0, 2.0)
    g = pw.indicator(H, 1.0, 3.0)
    s = pw.combine(f, g, "add")
    assert s(0.5) == 1.0 and s(1.5) == 2.0 and s(2.5) == 1.0
    d = pw.combine(f, g, "sub")
    assert d(0.5) == 1.0 and d(1.5) == 0.0 and d(2.5) == -1.0


def test_combine_rejects_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        pw.combine(pw.indicator(H, 0.0, 1.0), pw.indicator(U, 0.0, 1.0), "add")


def test_max_splits_at_crossing():
    ramp = pw.power_piece(H, 0.0, 2.0, 1.0, 1.0)
    one = pw.step_function(H, [(0.0, 2.0, 1.0)])
    m = pw.combine(ramp, one, "max-abs-split")
    assert m(0.5) == pytest.approx(1.0, abs=1e-12)
    assert m(1.5) == pytest.approx(1.5, abs=1e-12)


def test_product_adds_exponents():
    f = pw.power_piece(H, 1.0, 4.0, 2.0, 0.5)
    g = pw.power_piece(H, 1.0, 4.0, 3.0, 0.5, 1)
    p = pw.product(f, g)
    t = 2.7
    assert p(t) == pytest.approx(6.0 * t * math.log(t), rel=1e-14)


def test_scale_and_derivative():
    f = pw.power_piece(H, 0.0, 2.0, 1.0, 2.0)
    assert pw.scale(f, 3.0)(1.5) == pytest.approx(3.0 * 1.5 ** 2, rel=1e-15)
    assert pw.derivative(f)(1.5) == pytest.approx(3.0, rel=1e-15)


def test_derivative_of_power_log():
    # d/dt (t ln t) = ln t + 1
    f = pw.make_ppl(H, [(1.0, 4.0, {(1.0, 1): 1.0})])
    d = pw.derivative(f)
    assert d(2.0) == pytest.approx(math.log(2.0) + 1.0, rel=1e-14)


def test_absolute_splits_at_interior_root():
    f = pw.make_ppl(H, [(0.0, 2.0, {(1.0, 0): 1.0, (0.0, 0): -1.0})])
    a = pw.absolute(f)
    assert a(0.5) == pytest.approx(0.5, abs=1e-12)
    assert a(1.5) == pytest.approx(0.5, abs=1e-12)
    assert pw.is_nonnegative(a)


def test_absolute_of_a_segment_that_rounds_to_zero():
    # the running average of 1.7*t**-2.25*ln(t)**2 on [1, inf) has a triple
    # root at 1; root isolation leaves a sliver [1, 1 + 5e-13] on which
    # every probe rounds to 0, and either sign gives the same |f| there
    g = pw.make_ppl(H, [(1.0, INF, {(-2.25, 0): -1.7408, (-2.25, 1): -2.176,
                                    (-2.25, 2): -1.36, (-1.0, 0): 1.7408})])
    a = pw.absolute(g)
    for t in (1.0, 1.0 + 1e-13, 1.5, 10.0, 1e6):
        assert a(t) == pytest.approx(abs(g(t)), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("lo, hi, tm, sign", [
    (0.0, 1e-300, {(2.0, 0): -1.0}, -1.0),
    (0.0, 1e-200, {(3.0, 1): 1.0}, -1.0),   # ln t < 0 near 0
    (0.0, 1e-200, {(3.0, 2): 1.0}, 1.0),
    (1e300, INF, {(-2.0, 1): -1.0}, -1.0),
    (1e300, INF, {(-2.0, 1): 1.0}, 1.0),
])
def test_absolute_reads_the_germ_where_every_probe_underflows(lo, hi, tm,
                                                              sign):
    # |f| is sign*f on a piece whose three probes all underflow to 0
    a = pw.absolute(pw.make_ppl(H, [(lo, hi, tm)]))
    assert a.pieces[0].term_map() == {key: sign * c for key, c in tm.items()}


# ---------------------------------------------------------------------------
# measurable sets and restriction


def test_measurable_set_clips_and_merges():
    A = pw.MeasurableSet.from_intervals(U, [(0.8, 2.0), (-1.0, 0.2), (0.1, 0.15)])
    assert A.intervals == ((0.0, 0.2), (0.8, 1.0))
    assert A.measure() == pytest.approx(0.4, abs=1e-15)


@pytest.mark.parametrize("raw, canonical", [
    (((0.0, 2.0), (1.0, 3.0)), ((0.0, 3.0),)),   # measured 4.0
    (((2.0, 1.0),), ()),                          # measured -1.0
    (((-1.0, 1.0),), ((0.0, 1.0),)),              # measured 2.0
])
def test_a_set_built_field_by_field_is_canonical(raw, canonical):
    A = pw.MeasurableSet(H, raw)
    assert A.intervals == canonical
    assert A.measure() == sum(hi - lo for lo, hi in canonical)


def test_measurable_set_operations():
    A = pw.MeasurableSet.from_intervals(H, [(0.0, 2.0), (4.0, 6.0)])
    B = pw.MeasurableSet.from_intervals(H, [(1.0, 5.0)])
    assert A.intersect(B).intervals == ((1.0, 2.0), (4.0, 5.0))
    assert A.union(B).intervals == ((0.0, 6.0),)
    assert A.contains(pw.MeasurableSet.from_intervals(H, [(0.5, 1.5)]))
    assert not A.contains(B)


def test_measurable_set_infinite_measure():
    A = pw.MeasurableSet.from_intervals(H, [(1.0, INF)])
    assert A.measure() == INF


def test_restrict_matches_integral_over_set():
    f = pw.step_function(H, [(0.0, 4.0, 2.0)])
    A = pw.MeasurableSet.from_intervals(H, [(1.0, 2.0), (3.0, 5.0)])
    g = pw.restrict(f, A)
    assert pw.integrate(g) == pytest.approx(2.0 * (1.0 + 1.0), abs=1e-15)
    assert g(2.5) == 0.0 and g(1.5) == 2.0


# ---------------------------------------------------------------------------
# shape predicates and grids


def test_essential_sup_abs():
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, 2.0, -3.0)])
    assert pw.essential_sup_abs(f) == 3.0
    assert pw.essential_sup_abs(pw.power_piece(H, 0.0, 1.0, 1.0, -0.5)) == INF


def test_is_nonincreasing():
    assert pw.is_nonincreasing(pw.power_piece(H, 0.0, INF, 1.0, -1.0))
    assert not pw.is_nonincreasing(pw.power_piece(H, 0.0, 1.0, 1.0, 1.0))
    assert pw.is_nonincreasing(pw.step_function(H, [(0.0, 1.0, 3.0),
                                                    (1.0, 2.0, 1.0)]))


def test_monotone_segments_split_at_extrema():
    # t(2 - t) rises then falls on (0, 2)
    f = pw.make_ppl(H, [(0.0, 2.0, {(1.0, 0): 2.0, (2.0, 0): -1.0})])
    segs = pw.monotone_segments(f)
    assert len(segs) == 2
    assert segs[0][1] == pytest.approx(1.0, abs=1e-9)


def test_sample_grid_properties():
    f = pw.step_function(H, [(0.5, 2.0, 1.0)])
    grid = pw.sample_grid(f, 64)
    assert len(grid) == 64
    assert all(t > 0.0 for t in grid)
    assert grid == sorted(grid)


def test_domain_from_name():
    assert pw.domain_from_name("unit").is_unit
    assert not pw.domain_from_name("halfline").is_unit
    with pytest.raises(ValidationError):
        pw.domain_from_name("circle")


# ---------------------------------------------------------------------------
# property-based checks


@given(f=step_functions(), g=step_functions())
@settings(max_examples=60, deadline=None)
def test_integrate_is_additive(f, g):
    s = pw.combine(f, g, "add")
    assert pw.integrate(s) == pytest.approx(
        pw.integrate(f) + pw.integrate(g), abs=1e-10)


@given(f=step_functions())
@settings(max_examples=60, deadline=None)
def test_integral_dominated_by_absolute(f):
    assert abs(pw.integrate(f)) <= pw.integrate(pw.absolute(f)) + 1e-12


@given(f=step_functions(), g=step_functions())
@settings(max_examples=40, deadline=None)
def test_max_dominates_both(f, g):
    m = pw.combine(f, g, "max-abs-split")
    for t in pw.sample_grid(m, 16):
        v = m(t)
        assert v >= f(t) - 1e-10
        assert v >= g(t) - 1e-10


@given(f=step_functions(), g=step_functions())
@settings(max_examples=40, deadline=None)
def test_product_evaluates_pointwise(f, g):
    p = pw.product(f, g)
    for t in pw.sample_grid(p, 16):
        assert p(t) == pytest.approx(f(t) * g(t), abs=1e-12)


# ---------------------------------------------------------------------------
# memos: |f|, C f and the segments of |f| are kept on the function


@st.composite
def signed_functions(draw):
    """A step function or a signed power-log piece, on either domain; half
    the pieces get a step function added, which puts sign changes inside."""
    domain = draw(st.sampled_from([H, U]))
    if draw(st.booleans()):
        return draw(step_functions(domain=domain))
    f = draw(power_log_pieces(domain=domain))
    if draw(st.booleans()):
        f = pw.combine(f, draw(step_functions(domain=domain)), "add")
    return f


@st.composite
def measurable_sets(draw, domain):
    end = domain.end if domain.is_unit else 16.0
    cuts = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=end),
                                min_size=2, max_size=6, unique=True)))
    intervals = list(zip(cuts[::2], cuts[1::2]))
    if not domain.is_unit and draw(st.booleans()):
        intervals.append((end, INF))
    return pw.MeasurableSet.from_intervals(domain, intervals)


def _segment_fields(segs):
    """Every field of each segment record, with its mass built (or the
    error class its build raised)."""
    return [(seg.lo, seg.hi, seg.vlo, seg.vhi, dict(seg.terms),
             _result(pw.MonotoneSegment.mass, seg)) for seg in segs]


def _result(compute, f, fields=lambda value: value):
    """fields(compute(f)), or the error class the computation raised."""
    try:
        return fields(compute(f))
    except (TransformUndefinedError, UndefinedIntegralError) as exc:
        return type(exc)


def _fill_memos(f):
    g = pw.absolute(f)
    for h in (f, g):
        _result(cz.cesaro_transform, h)
    for seg in pw.segment_table(f):
        _result(pw.MonotoneSegment.mass, seg)
    return g


@given(f=signed_functions())
@settings(max_examples=200, deadline=None)
def test_absolute_is_its_own_absolute(f):
    g = pw._absolute(f)
    assert pw._absolute(g) == g


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_restriction_of_a_nonnegative_function_is_its_own_absolute(data):
    f = data.draw(signed_functions())
    g = pw.absolute(f)
    r = pw.restrict(g, data.draw(measurable_sets(f.domain)))
    assert pw.absolute(r) is r  # marked by restrict, not recomputed
    assert pw._absolute(r) == r


@st.composite
def power_log_sums(draw):
    """Signed sums of up to three terms c*t**a*ln(t)**k, k <= 3, on one
    piece, on either domain; a half-line piece may straddle t = 1, where
    an odd log power changes sign.  Half of them get a step function added."""
    domain = draw(st.sampled_from([H, U]))
    knots = [0.0, 0.25, 0.5, 0.75, 1.0] if domain.is_unit \
        else [0.0, 0.5, 1.0, 2.0, 4.0, INF]
    lo, hi = sorted(draw(st.lists(st.sampled_from(knots), min_size=2,
                                  max_size=2, unique=True)))
    tm: dict = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a = draw(st.floats(min_value=-0.9, max_value=2.0))
        k = draw(st.integers(min_value=0, max_value=3))
        c = draw(st.floats(min_value=0.01, max_value=4.0))
        tm[(a, k)] = c if draw(st.booleans()) else -c
    f = pw.make_ppl(domain, [(lo, hi, tm)])
    if draw(st.booleans()):
        f = pw.combine(f, draw(step_functions(domain=domain)), "add")
    return f


@st.composite
def thin_sets(draw, f):
    """One interval [t0, t0 * (1 + w)) with a relative width w down to
    1e-12, often at a knot of f or at t = 1, or the thin head [0, t0 * w),
    plus at times a wider set."""
    domain = f.domain
    cap = min(domain.end, 8.0)
    t0 = draw(st.one_of(
        st.floats(min_value=1e-6, max_value=cap),
        st.sampled_from([b for b in f.breakpoints() + [1.0] if 0.0 < b < cap]
                        or [cap / 2.0])))
    w = 10.0 ** -draw(st.floats(min_value=0.0, max_value=12.0))
    head = draw(st.booleans())
    A = pw.MeasurableSet.from_intervals(
        domain, [(0.0, t0 * w) if head else (t0, t0 * (1.0 + w))])
    if draw(st.booleans()):
        A = A.union(draw(measurable_sets(domain)))
    return A


def test_restrict_sorts_and_merges_a_set_built_field_by_field():
    f = pw.make_ppl(H, [(0.0, 4.0, {(0.5, 1): 1.0})])
    canonical = pw.MeasurableSet.from_intervals(H, [(0.5, 2.0), (3.0, INF)])
    for raw in (((3.0, INF), (0.5, 1.0), (1.0, 2.0)),
                ((0.5, 1.5), (1.0, 2.0), (3.0, INF))):
        r = pw.restrict(f, pw.MeasurableSet(H, raw))
        assert r == pw.restrict(f, canonical)
        assert len(r.pieces) == 2


def _close_knots(x: float, y: float) -> bool:
    return x == y or abs(x - y) <= 1e-12 * max(abs(x), abs(y))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_nonnegative_terms_certify_what_the_sign_split_gives_back(data):
    # thin parts of |f| and their transforms, where float cancellation
    # lives: wherever the certificate holds, the split returns f itself
    f = data.draw(st.one_of(signed_functions(), power_log_sums()))
    g = pw.restrict(pw.absolute(f), data.draw(thin_sets(f)))
    for h in (f, g, _result(cz.cesaro_transform, g)):
        if h is not TransformUndefinedError and pw._nonnegative_terms(h):
            assert pw._sign_split(h) == h


def test_a_segment_whose_every_probe_underflows_takes_the_sign_of_its_terms():
    # -t**2 is -0.0 at every probe of this part, and the split read the
    # part as positive: |.| of the part kept it negative
    f = pw.make_ppl(U, [(0.0, 0.5, {(2.0, 0): -1.0})])
    A = pw.MeasurableSet(U, ((1.3864987796120907e-263, 2.743165493009228e-212),))
    assert pw.absolute(pw.restrict(f, A)) == pw.restrict(pw.absolute(f), A)


def test_a_transform_that_dips_below_zero_is_not_certified():
    # C g of this nonnegative g cancels on a piece 1.3e-9 wide: the
    # computed transform is negative there, so reading it as its own |.|
    # would be wrong
    g = pw.make_ppl(U, [(0.9483476181609924, 0.9483476193951365, {
        (-0.3945812458628163, 2): 0.5650672844068336,
        (-0.11326858598047862, 2): 0.02829780282276939})])
    assert pw._nonnegative_terms(g) and pw.absolute(g) is g
    Cg = cz.cesaro_transform(g)
    assert not pw._nonnegative_terms(Cg)
    assert pw._sign_split(Cg) != Cg
    assert pw.absolute(Cg) == pw._sign_split(Cg)


def test_a_function_of_nonnegative_terms_takes_no_sign_split(monkeypatch):
    # C g = 2 on [0, 1), (4/3)/t + (2/3)*t**0.5 on [1, 2), then mass/t
    g = pw.absolute(pw.make_ppl(H, [(0.0, 1.0, {(0.0, 0): -2.0}),
                                    (1.0, 2.0, {(0.5, 0): -1.0})]))
    Cg = cz.cesaro_transform(g)
    assert len(Cg.pieces) == 3
    expected = pw._sign_split(Cg)

    def no_roots(*args):
        raise AssertionError("the sign split ran")

    monkeypatch.setattr(pw.rootfind, "roots_t", no_roots)
    assert pw.absolute(Cg) is Cg and Cg == expected


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_restricting_the_absolute_value_takes_the_absolute_value_of_the_part(
        data):
    f = data.draw(st.one_of(signed_functions(), power_log_sums()))
    A = data.draw(st.one_of(thin_sets(f), measurable_sets(f.domain)))
    hoisted = pw.restrict(pw.absolute(f), A)
    direct = pw.absolute(pw.restrict(f, A))
    assert len(hoisted.pieces) == len(direct.pieces)
    for p, q in zip(hoisted.pieces, direct.pieces):
        assert p.term_map() == q.term_map()
        assert _close_knots(p.lo, q.lo) and _close_knots(p.hi, q.hi)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_restrict_equals_the_canonical_construction(data):
    f = data.draw(st.one_of(signed_functions(), power_log_sums()))
    A = data.draw(st.one_of(thin_sets(f), measurable_sets(f.domain)))
    r = pw.restrict(f, A)
    assert r == pw.make_ppl(f.domain, [
        (max(p.lo, lo), min(p.hi, hi), p.term_map())
        for p in f.pieces for lo, hi in A.intervals])
    whole = [p for p in f.pieces
             if any(lo <= p.lo and p.hi <= hi for lo, hi in A.intervals)]
    assert all(any(q is p for q in r.pieces) for p in whole)


@given(f=signed_functions())
@settings(max_examples=200, deadline=None)
def test_every_memo_equals_a_fresh_computation(f):
    g = _fill_memos(f)
    fresh = pw._absolute(f)
    assert g == fresh
    assert pw.is_nonnegative(f) == (fresh is f)
    table = pw.segment_table(f)
    assert table is pw.segment_table(g)
    assert not {"_segments", "_mass_segments"} & set(vars(g))
    for seg in table:
        if _result(pw.MonotoneSegment.mass, seg) is UndefinedIntegralError:
            assert seg._mass is None  # an error is not kept
    assert _segment_fields(table) == \
        _segment_fields(pw._segment_table(fresh))
    for h in (f, g):
        expected = _result(cz._cesaro_transform, h)
        assert _result(cz.cesaro_transform, h) == expected
        if expected is TransformUndefinedError:
            assert "_cesaro" not in vars(h)  # an error is not kept


@given(f=signed_functions())
@settings(max_examples=200, deadline=None)
def test_memos_never_show(f):
    twin = pickle.loads(pickle.dumps(f))
    before = (repr(f), hash(f), pickle.dumps(f))
    g = _fill_memos(f)
    assert (repr(f), hash(f), pickle.dumps(f)) == before
    assert f == twin and twin == f and hash(twin) == hash(f)
    assert pickle.dumps(g) == pickle.dumps(pw._absolute(f))
    assert "_segment_table" in vars(g)
    assert not {"_segments", "_mass_segments"} & set(vars(g))
    for h in (f, g):
        for c in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
            assert c == h and not set(vars(c)) - {"domain", "pieces"}
