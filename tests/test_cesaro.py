"""Averaging transform: exact closure, numeric probes, comparison chain."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cesarospaces import catalog as cat
from cesarospaces import cesaro as cz
from cesarospaces import norms as nm
from cesarospaces import piecewise as pw
from cesarospaces import rearrange as rr
from cesarospaces import spaces as sp
from cesarospaces.errors import TransformUndefinedError
from cesarospaces.piecewise import INF
from support import (HALFLINE as H, UNIT as U, outside_scipy,
                     power_log_pieces, quadrature_against_scipy,
                     rising_step_functions, step_functions)


# ---------------------------------------------------------------------------
# exact transform


def test_transform_of_indicator_has_hyperbolic_tail():
    f = pw.indicator(H, 0.0, 1.0)
    expected = pw.make_ppl(H, [(0.0, 1.0, {(0.0, 0): 1.0}),
                               (1.0, INF, {(-1.0, 0): 1.0})])
    assert cz.cesaro_transform(f) == expected


def test_transform_of_shifted_indicator():
    # mass only starts accumulating at the left edge of the support
    f = pw.indicator(H, 1.0, 2.0)
    cf = cz.cesaro_transform(f)
    assert cf(0.5) == 0.0
    assert cf(1.5) == pytest.approx(0.5 / 1.5, rel=1e-15)
    assert cf(4.0) == pytest.approx(0.25, rel=1e-15)


def test_transform_of_ramp():
    f = pw.make_ppl(H, [(0.0, 1.0, {(1.0, 0): 1.0})])
    expected = pw.make_ppl(H, [(0.0, 1.0, {(1.0, 0): 0.5}),
                               (1.0, INF, {(-1.0, 0): 0.5})])
    assert cz.cesaro_transform(f) == expected


def test_transform_of_integrable_singularity():
    f = pw.power_piece(H, 0.0, 1.0, 1.0, -0.5)
    expected = pw.make_ppl(H, [(0.0, 1.0, {(-0.5, 0): 2.0}),
                               (1.0, INF, {(-1.0, 0): 2.0})])
    assert cz.cesaro_transform(f) == expected


def test_transform_produces_log_terms():
    # averaging 1/t over [1, x] gives ln(x)/x
    f = pw.power_piece(H, 1.0, INF, 1.0, -1.0)
    cf = cz.cesaro_transform(f)
    assert cf(math.e) == pytest.approx(1.0 / math.e, rel=1e-14)
    assert cf(10.0) == pytest.approx(math.log(10.0) / 10.0, rel=1e-14)


def test_transform_on_unit_domain():
    f = pw.indicator(U, 0.0, 0.5)
    cf = cz.cesaro_transform(f)
    assert cf(0.25) == 1.0
    assert cf(1.0) == pytest.approx(0.5, rel=1e-15)


def test_transform_undefined_for_nonintegrable_head():
    with pytest.raises(TransformUndefinedError):
        cz.cesaro_transform(pw.power_piece(H, 0.0, 1.0, 1.0, -1.0))
    with pytest.raises(TransformUndefinedError):
        cz.cesaro_transform(pw.power_piece(U, 0.0, 1.0, 1.0, -1.5))


def test_transform_of_zero():
    assert cz.cesaro_transform(pw.zero(H)).is_zero


def test_transform_is_linear():
    f = pw.indicator(H, 0.0, 1.0)
    g = pw.indicator(H, 0.5, 2.0)
    lhs = cz.cesaro_transform(pw.combine(f, pw.scale(g, 3.0), "add"))
    rhs = pw.combine(cz.cesaro_transform(f),
                     pw.scale(cz.cesaro_transform(g), 3.0), "add")
    assert lhs == rhs


def test_transform_of_signed_function_can_cancel():
    f = pw.step_function(H, [(0.0, 1.0, 1.0), (1.0, 2.0, -1.0)])
    cf = cz.cesaro_transform(f)
    assert cf(2.0) == pytest.approx(0.0, abs=1e-15)
    assert cf(4.0) == pytest.approx(0.0, abs=1e-15)


@given(a=st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True)
       .filter(lambda a: (a + 1.0) - 1.0 != a),
       k=st.integers(0, 2), c=st.floats(0.125, 8.0),
       lo=st.sampled_from([0.0, 0.5, 1.0]),
       hi=st.sampled_from([2.0, 4.0, INF]))
@settings(max_examples=100, deadline=None)
@example(a=0.3, k=0, c=1.0, lo=1.0, hi=INF)
@example(a=0.1, k=2, c=1.0, lo=0.0, hi=2.0)
def test_the_transform_keeps_a_non_dyadic_exponent(a, k, c, lo, hi):
    # C f of c*t**a*ln(t)**k is t**a times a polynomial in ln t, plus a
    # multiple of 1/t; formed as (a + 1) - 1, the exponent was an ulp off
    f = pw.make_ppl(H, [(lo, hi, {(a, k): c})])
    for p in cz.cesaro_transform(f).pieces:
        assert {alpha for (alpha, _j), _c in p.pairs} <= {a, -1.0}


# ---------------------------------------------------------------------------
# numeric probe


def test_numeric_probe_on_callable():
    val, err = cz.cesaro_numeric(lambda s: 1.0 / (1.0 + s), 1.0)
    assert val == pytest.approx(math.log(2.0), abs=max(err, 1e-9))


def test_numeric_probe_matches_exact_transform():
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (1.5, 3.0, -1.0)])
    cf = cz.cesaro_transform(f)
    for t in (0.5, 1.0, 2.0, 2.5, 6.0):
        val, err = cz.cesaro_numeric(f, t, breakpoints=f.breakpoints())
        assert val == pytest.approx(cf(t), abs=err + 1e-9)


# ---------------------------------------------------------------------------
# comparison chain


def test_chain_report_on_signed_step():
    f = pw.step_function(H, [(0.0, 1.0, 1.0), (1.0, 2.0, -2.0)])
    report = cz.fact1_check(f)
    assert report.passed
    for key in ("signed_vs_abs_value", "abs_value_vs_abs_arg",
                "abs_arg_vs_maximal", "rearranged_vs_maximal"):
        assert report.min_slack[key] >= -report.tolerance
    # cancellation makes the first comparison strictly slack somewhere
    assert report.min_slack["signed_vs_abs_value"] >= 0.0


def test_chain_report_custom_grid():
    f = pw.indicator(H, 0.0, 1.0)
    report = cz.fact1_check(f, grid=[0.5, 1.0, 2.0, 8.0])
    assert report.passed
    assert len(report.grid) == 4


def test_chain_report_through_the_numeric_maximal_function():
    # |f| = t rises, so f* = 1 - s has no exact form and C(f*) comes from
    # the numeric maximal function: C(f*)(x) - C|f|(x) = 1 - x/2 - x/2
    f = pw.power_piece(U, 0.0, 1.0, -1.0, 1.0)
    assert rr.decreasing_rearrangement(f).exact is None
    report = cz.fact1_check(f, grid=[0.25, 0.5, 0.75])
    assert report.passed
    assert report.min_slack["abs_arg_vs_maximal"] == pytest.approx(0.25,
                                                                   abs=1e-7)


@given(f=step_functions())
@settings(max_examples=40, deadline=None)
def test_chain_holds_on_random_steps(f):
    report = cz.fact1_check(f)
    assert report.passed


# ---------------------------------------------------------------------------
# the double-exponential rule of cesaro._quad against scipy's QUADPACK: every
# quadrature value lies within scipy's value +- both error estimates


def _lorentz_spaces(domain):
    out = []
    for name, phi in (("sqrt", cat.sqrt_phi(domain)),
                      ("1+sqrt", cat.sqrt_plus_atom_phi(domain))):
        X = sp.lorentz_space(phi)
        out += [(f"Lorentz({name})", X), (f"Avg(Lorentz({name}))",
                                          sp.cesaro_space(X))]
    return out


def _check_lorentz_quadrature(f, X):
    with quadrature_against_scipy() as calls:
        res = nm.norm(f, X)
    assert res.value >= 0.0
    assert outside_scipy(calls) == []


# 0.5/t on [1, inf): phi(d(lam)) ~ lam**-0.5 at 0; t**-0.6 and 2/t: levels
# whose closed-form crossing leaves the float range; t**-0.3*ln t on [0, 2]:
# unbounded, so the level integral runs to hi = inf; t**(1/512)*ln t on
# [0, 0.5] peaks at 188 and its level integrand falls like exp(-lam/2)
# from 0.69 on, 1e-26 of its value at the middle node of [0.69, 188]
@pytest.mark.parametrize("X", [X for _, X in _lorentz_spaces(H)],
                         ids=[i for i, _ in _lorentz_spaces(H)])
@given(f=st.one_of(rising_step_functions(H), power_log_pieces(H)))
@example(f=pw.make_ppl(H, [(1.0, INF, {(-1.0, 0): 0.5})]))
@example(f=pw.make_ppl(H, [(1.0, INF, {(-0.6, 0): 1.0})]))
@example(f=pw.make_ppl(H, [(0.5, INF, {(-1.0, 0): 2.0})]))
@example(f=pw.make_ppl(H, [(0.0, 2.0, {(-0.3, 1): 1.0})]))
@example(f=pw.make_ppl(H, [(0.0, 0.5, {(0.001953125, 1): 1.0})]))
@settings(max_examples=25, deadline=None)
def test_lorentz_quadrature_norm_lies_within_scipy_on_the_halfline(X, f):
    _check_lorentz_quadrature(f, X)


# t**5.4e-5 on [0, 0.5]: the level integrand drops to 0 within 1e-4 of its
# top level, a layer that QUADPACK on one interval misses
@pytest.mark.parametrize("X", [X for _, X in _lorentz_spaces(U)],
                         ids=[i for i, _ in _lorentz_spaces(U)])
@given(f=st.one_of(rising_step_functions(U), power_log_pieces(U)))
@example(f=pw.make_ppl(U, [(0.0, 0.5, {(5.405692366606358e-05, 0): 1.0})]))
@settings(max_examples=25, deadline=None)
def test_lorentz_quadrature_norm_lies_within_scipy_on_the_unit_interval(X, f):
    _check_lorentz_quadrature(f, X)


def test_level_quadrature_stops_where_the_measure_leaves_the_float_range(
        monkeypatch):
    # f* = (1 + s)**-0.55 and phi' = s**-0.5/2: the norm is B(1/2, 1/20)/2.
    # phi(d(lam)) ~ lam**-0.91 at 0, so the node run toward lam = 0 reaches
    # levels whose measure is past the float range (phi(inf) = inf) before
    # its terms are negligible, and stops there
    X = sp.lorentz_space(cat.sqrt_phi(H))
    f = pw.make_ppl(H, [(1.0, INF, {(-0.55, 0): 1.0})])
    levels = []
    rule = cz._quad

    def spy(func, a, b, breaks, tol):
        def level(lam):
            levels.append(func(lam))
            return levels[-1]
        return rule(level, a, b, breaks, tol)

    monkeypatch.setattr(cz, "_quad", spy)
    res = nm.norm(f, X)
    assert INF in levels
    reference = 0.5 * math.gamma(0.5) * math.gamma(0.05) / math.gamma(0.55)
    assert res.method == "quadrature"
    assert abs(res.value - reference) <= res.error_bound


# Pieces whose integrand puts more than about 1e-12 of its mass past the
# float range (an end exponent within 0.05 of -1) are left to the strict
# xfail below: no float node reaches that mass.


@given(f=power_log_pieces(H), t=st.floats(min_value=0.01, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_numeric_transform_lies_within_scipy(f, t):
    (a, _k), = f.pieces[0].term_map()
    assume(f.pieces[0].lo > 0.0 or a > -0.95)
    with quadrature_against_scipy() as calls:
        cz.cesaro_numeric(f, t)
    assert outside_scipy(calls) == []


@pytest.mark.parametrize("p", [1.5, 2.5])
@given(f=power_log_pieces(H))
@settings(max_examples=40, deadline=None)
def test_lp_quadrature_branch_lies_within_scipy(p, f):
    # a logarithm to a power k with k*p not an integer has no exact map
    (a, _k), = f.pieces[0].term_map()
    assume(abs(1.0 + p * a) > 0.05)
    with quadrature_against_scipy() as calls:
        res = nm.norm(f, sp.lebesgue(p, H))
    assert res.value >= 0.0
    assert outside_scipy(calls) == []


@pytest.mark.xfail(strict=True, reason=(
    "a node run that stops at a value past the float range adds only its "
    "last term to the estimate, not the mass it leaves out"))
def test_estimate_covers_the_mass_past_the_float_range():
    # t**-0.984375*|ln t|**1.5 on [0, 0.5]: about 20 of its mass lies below
    # the least subnormal, where no node can go; reference from mpmath
    fn = lambda t: (t ** -0.65625 * -math.log(t)) ** 1.5
    value, estimate = cz._quad(fn, 0.0, 0.5, (), 1e-10)
    assert abs(value - 43559.6670710804170976901631048) <= estimate
