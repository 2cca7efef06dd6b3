"""Independent numeric recomputation: quadrature engines and comparisons."""

from __future__ import annotations

import contextlib
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from cesarospaces import catalog as cat
from cesarospaces import oracle as orc
from cesarospaces import piecewise as pw
from cesarospaces import spaces as sp
from cesarospaces.piecewise import INF
from support import HALFLINE as H, UNIT as U, chi


# ---------------------------------------------------------------------------
# quadrature engines


def test_simpson_on_polynomial():
    assert orc.simpson(lambda t: t * t, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-12)


def test_simpson_reads_the_piece_its_panel_belongs_to():
    # the half-open piece [1, 2) starts at the panel's right end; the end
    # value read at 1.0 itself gave 1 + 99/6 for the first Simpson sum
    f = pw.step_function(H, [(0.0, 1.0, 1.0), (1.0, 2.0, 100.0)])
    assert orc.simpson(lambda t: pw.evaluate(f, t), 0.0, 1.0) == 1.0


@pytest.mark.parametrize("end", [INF, math.nan])
def test_simpson_reads_inf_at_an_end_value_that_is_not_finite(end):
    # an end value is read like an interior one, never nudged inward and
    # never taken as 0.0
    fn = lambda x: end if x == 0.0 else x ** -0.5
    assert orc.simpson(fn, 0.0, 1.0) == INF
    fn = lambda x: end if x == math.nextafter(1.0, 0.0) else 1.0
    assert orc.simpson(fn, 0.0, 1.0) == INF


def test_simpson_reads_inf_where_an_interior_node_meets_the_singularity():
    # [1, 1 + 2^-51] is two ulps wide: the end value is fn(1) = inf, and
    # the node halfway between 1.0 and the midpoint rounds back onto 1.0,
    # where a cell below one ulp wide gave the panel sum 0 * inf = NaN
    fn = lambda x: INF if x == 1.0 else 1.0
    assert orc.simpson(fn, 1.0, 1.0 + 2.0 ** -51) == INF
    # a panel sum past the float range is no number either: it recursed to
    # full depth and came back NaN
    assert not math.isnan(orc.simpson(lambda x: 1e308, 0.0, 1.0))


def test_simpson_applies_the_width_first_where_only_a_panel_sum_overflows():
    # 1e308 + 4e308 + 1e308 passes the float range, though every value and
    # the integral are finite; an integral past the range still reads inf
    assert orc.simpson(lambda x: 1e308, 0.0, 1.0) == pytest.approx(
        1e308, rel=1e-12)
    assert orc.simpson(lambda x: 1e308, 0.0, 4.0) == INF


def test_improper_integral_exponential():
    assert orc.improper_integral(lambda t: math.exp(-t), INF) == \
        pytest.approx(1.0, rel=1e-6)


def test_improper_integral_with_endpoint_singularity():
    # integrable singularity at zero: int_0^1 t**-1/2 = 2
    assert orc.improper_integral(lambda t: t ** -0.5, 1.0) == pytest.approx(
        2.0, rel=1e-6)


def test_improper_integral_detects_divergence():
    assert orc.improper_integral(lambda t: 1.0 / t, 1.0) == INF
    assert orc.improper_integral(lambda t: 1.0 / (1.0 + t), INF) == INF


def test_a_sum_of_finite_shells_past_the_float_range_reads_inf():
    # each shell of 1e308 on (0, 2) is finite, their sum is not: fsum
    # raises OverflowError, in the L^p integral and the Orlicz modular alike
    assert orc.improper_integral(lambda t: 1e308, 2.0) == INF
    f = pw.step_function(H, [(0.0, 2.0, 1e154)])
    # the L^p oracle integrates 2^-512 |f| instead, to the norm sqrt(2) * 1e154
    report = orc.quadrature_norm_oracle(f, sp.lebesgue(2.0, H))
    assert report.passed, report.row()
    assert report.oracle == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-12)
    square = cat.orlicz_square()
    modular = orc._orlicz_modular(_sampler(f), INF, [2.0], square)
    assert modular(1.0) == INF
    # the Luxemburg bisection doubles past it, to the norm sqrt(2) * 1e154
    report = orc.quadrature_norm_oracle(f, sp.orlicz_space(square, H))
    assert report.passed, report.row()
    assert report.exact == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)


def test_the_lp_oracle_scales_a_norm_past_the_float_range_of_its_power():
    # (1e200)^2 raised OverflowError inside the integrand, and the oracle
    # read inf; 2^-665 |f| has the norm 2^-665 * 7.07e199
    f = pw.step_function(H, [(0.0, 0.5, 1e200)])
    report = orc.quadrature_norm_oracle(f, sp.lebesgue(2.0, H))
    assert report.exact == 7.0710678118654752e199
    assert report.passed, report.row()
    # a norm that is past the float range still reads inf
    f = pw.step_function(H, [(0.0, 1e20, 1e300)])
    report = orc.quadrature_norm_oracle(f, sp.lebesgue(2.0, H))
    assert (report.exact, report.oracle) == (INF, INF)


def test_the_orlicz_modular_reads_inf_where_the_young_function_reads_nan():
    # (u - 1)^2 expanded reads inf - inf = NaN at u = 1e153 / lam, and a
    # NaN modular passed the bisection's test "modular > 1" as at most 1
    f = pw.step_function(H, [(0.0, 1.0, 1e153), (1.0, 2.0, 0.109375)])
    modular = orc._orlicz_modular(_sampler(f), INF, [1.0, 2.0],
                                  support.SHIFTED_SQUARE)
    assert modular(1.09375e-155) == INF


@pytest.mark.parametrize("c", [1e18, 1e31])
def test_the_orlicz_oracle_doubles_past_two_to_the_sixty(c):
    # the norm of c * chi[0, 2) in Orlicz(u^2) is sqrt(2) * c; the doubling
    # stopped at 2^60 (about 1.15e18) and read inf
    f = pw.step_function(H, [(0.0, 2.0, c)])
    report = orc.quadrature_norm_oracle(
        f, sp.orlicz_space(cat.orlicz_square(), H))
    assert report.passed, report.row()
    assert report.oracle == pytest.approx(math.sqrt(2.0) * c, rel=1e-6)


def test_improper_integral_respects_cuts():
    fn = lambda t: 1.0 if t < 1.0 else 0.25
    v = orc.improper_integral(fn, 2.0, cuts=(1.0,))
    assert v == pytest.approx(1.25, rel=1e-7)


# ---------------------------------------------------------------------------
# report mechanics


def test_report_pass_and_fail_margins():
    ok = orc.OracleReport("n", 1.0, 1.0 + 5e-4, 1e-3)
    assert ok.passed
    bad = orc.OracleReport("n", 1.0, 1.0 + 5e-3, 1e-3)
    assert not bad.passed


def test_report_infinite_agreement():
    assert orc.OracleReport("n", INF, INF, 1e-7).passed
    assert not orc.OracleReport("n", INF, 3.0, 1e-7).passed


def test_report_row_is_csv():
    row = orc.OracleReport("norm", 1.5, 1.5, 1e-7).row()
    parts = row.split(",")
    assert parts[0] == "norm"
    assert parts[-1] == "ok"
    assert len(parts) == 5


# ---------------------------------------------------------------------------
# rearrangement bracketing


def test_rearrangement_oracle_on_step():
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, 3.0, -1.0)])
    assert orc.rearrangement_oracle(f).passed


def test_rearrangement_oracle_on_power():
    f = pw.power_piece(U, 0.0, 1.0, 1.0, -0.25)
    assert orc.rearrangement_oracle(f).passed


# ---------------------------------------------------------------------------
# norm recomputation across the families


ORACLE_CASES = [
    (pw.step_function(H, [(0.0, 1.0, 2.0), (2.0, 4.0, 1.0)]),
     sp.lebesgue(2.0, H)),
    (pw.power_piece(H, 0.0, 1.0, 1.0, -0.25), sp.lebesgue(1.5, H)),
    (chi(H, 0.0, 3.0), sp.l1_cap_linf(H)),
    (pw.step_function(H, [(0.0, 2.0, 1.5)]), sp.l1_plus_linf(H)),
    (chi(H, 0.0, 4.0), sp.orlicz_space(cat.orlicz_square(), H)),
    (pw.scale(chi(H, 0.0, 1.0), 3.0),
     sp.orlicz_space(cat.orlicz_square_capped(), H)),
    (pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, 4.0, 1.0)]),
     sp.lorentz_space(cat.sqrt_phi(H))),
    (chi(H, 0.0, 1.0), sp.marcinkiewicz_space(cat.sqrt_phi(H))),
    (chi(H, 0.0, 1.0), sp.cesaro_space(sp.lebesgue(2.0, H))),
    (chi(U, 0.25, 0.75), sp.cesaro_space(sp.lebesgue(1.0, U))),
]


@pytest.mark.parametrize("f,X", ORACLE_CASES,
                         ids=[X.describe() for _, X in ORACLE_CASES])
def test_norm_oracle_agrees(f, X):
    report = orc.quadrature_norm_oracle(f, X)
    assert report.passed, report.row()


# verify's failing request at seed 3046, rounded: Simpson on [2, 3.9997)
# read its right end value from the piece [3.9997, 4), and the oracle read
# 0.71752461290247216, 3.7e-7 off
NEAR_CUT_STEP = pw.step_function(H, [(0.0, 1.479, 0.3124),
                                     (1.479, 3.9997, 0.5544),
                                     (3.9997, 4.0, 2.558)])


def test_the_norm_oracle_reads_each_panel_from_its_own_piece():
    report = orc.quadrature_norm_oracle(NEAR_CUT_STEP, sp.lebesgue(4.0, H))
    assert report.exact == 0.7175243447914138
    assert report.oracle == 0.71752434479142069 and report.passed


@st.composite
def steps_with_a_near_cut(draw, domain):
    """Step functions on [x0, x1), [x1, x2) and [x2, x3), where one of x1
    and x2 is a cut c, a power of two or any float, and the other lies 2^-20
    to 1e-4 relative from it on either side; magnitudes in 2^±20, either
    sign.  Closer cuts make the exact norm cancel (ROADMAP item 6)."""
    top = 1.0 if domain.is_unit else 64.0
    c = draw(st.one_of(
        st.integers(-6, math.frexp(top)[1] - 3).map(lambda k: 2.0 ** k),
        st.floats(top / 64.0, top / 4.0)))
    d = draw(st.floats(2.0 ** -20, 1e-4))
    x1, x2 = sorted((c, c * (1.0 + d if draw(st.booleans()) else 1.0 - d)))
    x0 = draw(st.floats(0.0, 0.5 * x1))
    x3 = draw(st.floats(2.0 * x2, top))
    mags = st.floats(-20.0, 20.0).map(lambda u: 2.0 ** u)
    signs = st.sampled_from((1.0, -1.0))
    return pw.step_function(domain, [
        (lo, hi, draw(mags) * draw(signs))
        for lo, hi in ((x0, x1), (x1, x2), (x2, x3))])


@settings(max_examples=100, deadline=None)
@given(f=st.sampled_from([H, U]).flatmap(steps_with_a_near_cut))
@example(f=NEAR_CUT_STEP)
# the sampled sup read every value past 1e5 as an unbounded spike
@example(f=pw.scale(NEAR_CUT_STEP, 2.0 ** 20))
# f*(1) jumps inside the cell of the L1+Linf oracle's sampled quantile
@example(f=pw.step_function(H, [(0.0, 1.015625, 1.0)]))
def test_the_norm_oracle_passes_next_to_a_cut(f):
    d = f.domain
    for X in (*(sp.lebesgue(p, d) for p in (1.0, 2.0, 4.0, INF)),
              sp.l1_cap_linf(d), sp.l1_plus_linf(d)):
        report = orc.quadrature_norm_oracle(f, X)
        assert report.passed, (X.describe(), report.row())


# t on [1, inf) grows toward the top of the sup's log grid; 2^20 (2 - sqrt t)
# falls from 2^-40 to 2^-39 by about 2^-21 relative, which is no spike
T_PAST_ONE = pw.power_piece(H, 1.0, INF, 1.0, 1.0)
FALLING_AT_ZERO = pw.make_ppl(H, [(0.0, 1.0, {(0.0, 0): 2.0 ** 21,
                                              (0.5, 0): -2.0 ** 20})])


@pytest.mark.parametrize("f,exact", [(T_PAST_ONE, INF),
                                     (FALLING_AT_ZERO, 2.0 ** 21)],
                         ids=["t-past-one", "falling-at-zero"])
@pytest.mark.parametrize("X", [sp.lebesgue(INF, H),
                               sp.cesaro_space(sp.lebesgue(INF, H))],
                         ids=["Linf", "avg-Linf"])
def test_the_sup_oracle_reads_inf_only_for_growth_at_an_end_of_its_grid(
        f, exact, X):
    report = orc.quadrature_norm_oracle(f, X)
    assert report.exact == exact
    assert report.passed, report.row()


def test_norm_oracle_agrees_on_divergence():
    f = pw.step_function(H, [(0.0, INF, 1.0)])
    report = orc.quadrature_norm_oracle(f, sp.lebesgue(2.0, H))
    assert math.isinf(report.exact)
    assert report.passed


@pytest.mark.parametrize("a", [-1.0, -1.2, -30.0])
def test_averaged_oracle_reads_inf_where_the_average_diverges(a):
    # t**a on [0, 1) with a <= -1 is not integrable at 0: the running
    # average is undefined, and the oracle says so instead of summing.
    # t**-30 overflows in the grid's first cells, and the oracle stops
    # there rather than integrating the other cells near 1e300
    report = orc.quadrature_norm_oracle(
        pw.power_piece(H, 0.0, 1.0, 1.0, a),
        sp.cesaro_space(sp.lebesgue(2.0, H)))
    assert (report.exact, report.oracle) == (INF, INF)
    assert report.note == "average diverges near zero" and report.passed


@pytest.mark.xfail(strict=True, reason=(
    "the sampled sup's log grid stops at 2^-40, and its 1e5 rule cannot see "
    "the log blow-up of C|f| at 0 (ROADMAP item 2: an oracle that is right "
    "wherever the library is right)"))
def test_the_averaged_sup_oracle_reads_inf_for_a_log_at_zero():
    f = pw.make_ppl(H, [(0.0, 4.0, {(0.0, 1): 1.0,
                                    (0.0, 0): -math.log(1.3)})])
    report = orc.quadrature_norm_oracle(
        f, sp.cesaro_space(sp.lebesgue(INF, H)))
    assert report.exact == INF
    assert report.passed, report.row()


@pytest.mark.xfail(strict=True, reason=(
    "the exact norm is inf, and the Orlicz oracle on the running average "
    "reads 1.665e7 (ROADMAP item 2: an oracle that is right wherever the "
    "library is right)"))
def test_the_averaged_orlicz_oracle_reads_inf_for_a_root_singularity():
    f = pw.make_ppl(U, [(0.0, 1.0, {(-0.5, 0): 1.0, (0.0, 0): -1.7})])
    report = orc.quadrature_norm_oracle(
        f, sp.cesaro_space(sp.orlicz_space(cat.orlicz_square(), U)))
    assert report.exact == INF
    assert report.passed, report.row()


def test_tolerance_table_covers_all_tags():
    for key in ("Lp", "Lp-sup", "L1capLinf", "L1plusLinf", "orlicz",
                "lorentz", "marcinkiewicz"):
        assert key in orc.ORACLE_TOL


# ---------------------------------------------------------------------------
# work done per oracle call, and values pinned bit for bit

STEP = pw.step_function(H, [(0.0, 0.5, 1.0), (0.5, 1.5, -3.0),
                            (1.5, 2.0, 2.0), (2.0, 4.0, 0.25)])


def _count_calls(monkeypatch, cls) -> list[int]:
    count = [0]
    value = cls.value

    def counted(self, x):
        count[0] += 1
        return value(self, x)

    monkeypatch.setattr(cls, "value", counted)
    return count


def test_luxemburg_bisection_evaluates_young_function_per_magnitude(
        monkeypatch):
    X = sp.orlicz_space(cat.orlicz_square(), H)
    count = _count_calls(monkeypatch, sp.OrliczFunctionSpec)
    report = orc.quadrature_norm_oracle(STEP, X)
    assert report.passed
    # one evaluation per distinct sampled magnitude and bisection step;
    # one per quadrature node would be about a million
    assert count[0] <= 2000


def test_lorentz_level_sum_evaluates_phi_once_per_cell(monkeypatch):
    # built first: building a space validates its parameter function
    X = sp.lorentz_space(cat.sqrt_phi(H))
    count = _count_calls(monkeypatch, sp.QuasiConcaveSpec)
    report = orc.quadrature_norm_oracle(STEP, X)
    assert report.passed
    assert count[0] <= 10000


@pytest.mark.parametrize("phi", [cat.sqrt_phi(H), cat.sqrt_plus_atom_phi(H)],
                         ids=["sqrt", "with-atom"])
def test_phi_values_read_zero_at_zero(phi):
    # phi(0) = 0 by convention, also where phi's pieces start at an atom
    # and at t = -0.0
    values = phi.values([-0.0, 0.0, 0.5, 2.0])
    assert [v.hex() for v in values] == [
        "0x0.0p+0", "0x0.0p+0", phi.value(0.5).hex(), phi.value(2.0).hex()]
    assert phi.values([0.5, 2.0]) == [phi.value(0.5), phi.value(2.0)]


def test_a_repeated_sample_sort_oracle_call_stays_small():
    # the first call builds the half-line's base grid; a later call copies
    # its columns as float arrays, not as lists of float objects
    X = sp.marcinkiewicz_space(cat.sqrt_phi(H))
    orc.quadrature_norm_oracle(STEP, X)
    tracemalloc.start()
    try:
        orc.quadrature_norm_oracle(STEP, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_a_repeated_orlicz_oracle_call_stays_small():
    # the modular keeps one weight and slot per run, not per node: one call
    # peaked at 2.77 MiB with a (weight, slot) pair per node
    X = sp.orlicz_space(cat.orlicz_square(), H)
    orc.quadrature_norm_oracle(STEP, X)
    tracemalloc.start()
    try:
        orc.quadrature_norm_oracle(STEP, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("X,expected", [
    (sp.orlicz_space(cat.orlicz_square(), H), 3.4095454242469714),
    (sp.lorentz_space(cat.sqrt_phi(H)), 3.785405043171407),
    (sp.marcinkiewicz_space(cat.sqrt_phi(H)), 3.2659863237109037),
], ids=["orlicz", "lorentz", "marcinkiewicz"])
def test_sampled_oracle_values_are_pinned(X, expected):
    assert orc.quadrature_norm_oracle(STEP, X).oracle == expected


# the running sum of the sample cells' widths rounds above 1 on this input,
# so its last cell's measure is clamped to 1
UNIT_STEP = pw.step_function(U, [
    (0.0, 0.13317481644160512, -0.5019172785300062),
    (0.13317481644160512, 0.41913904357146525, 2.2850033803499694),
    (0.41913904357146525, 0.5406858855321425, -2.326563389622264),
    (0.5406858855321425, 0.5566648979370926, -2.32769712650599),
    (0.5566648979370926, 1.0, -2.759810509568698),
])


@pytest.mark.parametrize("X", [sp.lorentz_space(cat.sqrt_phi(U)),
                               sp.marcinkiewicz_space(cat.sqrt_phi(U))],
                         ids=["lorentz", "marcinkiewicz"])
def test_sampled_oracles_stay_inside_the_unit_interval(X):
    report = orc.quadrature_norm_oracle(UNIT_STEP, X)
    assert report.passed, report.row()


# cuts on knots of the half-line's base grid (0.5, 1 and 1024 are body
# knots, and 1024 * (1 - 2^-k) is one for k <= 16), so knots repeat
KNOT_STEP = pw.step_function(H, [(0.125, 0.5, 2.0), (0.5, 1.0, -2.0),
                                 (1.0, 1024.0, 0.5)])


# the other samplers, pinned bit for bit to values recorded with
# pointwise sampling, and the weighted sample-sort oracles on the inputs
# above to values recorded with their per-cell loops (tests/support.py)
@pytest.mark.parametrize("f,X,expected", [
    (STEP, sp.lebesgue(INF, H), 3.0),
    (STEP, sp.l1_cap_linf(H), 5.0),
    (UNIT_STEP, sp.l1_plus_linf(U), 2.2637735749112444),
    # running averages, sampled point by point
    (STEP, sp.cesaro_space(sp.lebesgue(INF, H)), 2.3333333333333335),
    (UNIT_STEP, sp.cesaro_space(sp.l1_plus_linf(U)), 1.6285960697101094),
    (UNIT_STEP, sp.lorentz_space(cat.sqrt_phi(U)), 2.4821907516607533),
    (UNIT_STEP, sp.marcinkiewicz_space(cat.sqrt_phi(U)), 2.3596664841536215),
    (KNOT_STEP, sp.lorentz_space(cat.sqrt_phi(H)), 17.402144927736188),
    (KNOT_STEP, sp.marcinkiewicz_space(cat.sqrt_phi(H)), 16.040041536320157),
    (KNOT_STEP, sp.orlicz_space(cat.orlicz_square(), H), 16.101242188116885),
    # f vanishes on part of the dyadic shells around 0.3, 0.75, 1.5 and 3
    (pw.step_function(H, [(0.3, 0.75, 1.0), (1.5, 3.0, -2.0)]),
     sp.orlicz_space(cat.orlicz_square(), H), 2.539685019841272),
], ids=["Linf", "L1capLinf", "L1plusLinf-unit", "avg-Linf",
        "avg-L1plusLinf-unit", "lorentz-unit", "marcinkiewicz-unit",
        "lorentz-knots", "marcinkiewicz-knots", "orlicz-knots",
        "orlicz-gaps"])
def test_other_sampled_oracle_values_are_pinned(f, X, expected):
    assert orc.quadrature_norm_oracle(f, X).oracle == expected


def test_rearrangement_oracle_value_is_pinned():
    report = orc.rearrangement_oracle(STEP)
    assert (report.oracle, report.note) == (0.0, "grid 4096, cell 0.25")


def test_marcinkiewicz_oracle_samples_without_pointwise_scans(monkeypatch):
    X = sp.marcinkiewicz_space(cat.sqrt_phi(H))
    count = [0]
    evaluate = pw.evaluate

    def counted(f, t):
        count[0] += 1
        return evaluate(f, t)

    monkeypatch.setattr(pw, "evaluate", counted)
    report = orc.quadrature_norm_oracle(STEP, X)
    assert report.passed
    # |f| and phi are read in one walk per grid, not by a scan of the
    # pieces per sample (about 154,000 calls)
    assert count[0] <= 300


def test_orlicz_oracle_on_a_thin_cut_panel():
    # a cut panel 5e-12 wide, where Simpson nodes nudged into its cells by
    # 1e-9 of a cell would round out of order; the value was recorded with
    # pointwise sampling
    f = pw.step_function(H, [(0.0, 1.3, 1.0), (1.3, 1.3 + 5e-12, 3.0),
                             (1.3 + 5e-12, 2.0, 2.0)])
    X = sp.orlicz_space(cat.orlicz_square(), H)
    assert orc.quadrature_norm_oracle(f, X).oracle == 2.0248456731387705


# ---------------------------------------------------------------------------
# the weighted sample-sort oracles against their per-cell loops, bit for bit

# knots of the base grids, as breakpoints and as extra cuts
GRID_KNOTS = (0.125, 0.5, 1.0, 1024.0, 1024.0 * (1.0 - 2.0 ** -12))
PHIS = (cat.sqrt_phi, cat.sqrt_plus_atom_phi, cat.bounded_sqrt_phi,
        cat.atom_phi)


@st.composite
def sample_sort_cases(draw):
    """A step function whose pieces share a few magnitudes, extra cuts,
    and a parameter function on the same domain."""
    domain = draw(st.sampled_from([U, H]))
    end = 1.0 if domain.is_unit else draw(st.sampled_from([1.0, 16.0, 2048.0]))
    edge = st.floats(0.0, end) | st.sampled_from(
        [k for k in GRID_KNOTS if k <= end])
    edges = sorted(set(draw(st.lists(edge, min_size=2, max_size=7))))
    pool = draw(st.lists(st.floats(0.1, 4.0), min_size=1, max_size=3))
    rows = [(lo, hi, draw(st.sampled_from(pool)) * draw(st.sampled_from(
        [1.0, -1.0]))) for lo, hi in zip(edges, edges[1:])
        if draw(st.integers(0, 3))]
    if not domain.is_unit and draw(st.booleans()):
        rows.append((max(edges[-1], 0.5), INF, draw(st.sampled_from(pool))))
    f = pw.step_function(domain, rows)
    extra = draw(st.lists(st.floats(0.0, 4096.0) | st.sampled_from(GRID_KNOTS),
                          max_size=3))
    cuts = [b for b in f.breakpoints() if math.isfinite(b) and b > 0.0]
    return f, cuts + extra, draw(st.sampled_from(PHIS))(domain)


def _hex(x):
    return x.hex() if isinstance(x, float) else [_hex(v) for v in x]


def _weighted_sorted_cells(sample, end, cuts=()):
    """``oracle._weighted_sorted`` with its runs expanded to one magnitude
    per cell, as the reference returns them; the runs must tile the cells
    in order, each with at least one cell."""
    runs, cum = orc._weighted_sorted(sample, end, cuts)
    starts = [a for _, a, _ in runs]
    stops = [b for _, _, b in runs]
    assert starts == [0, *stops[:-1]] and stops[-1] == len(cum)
    assert all(a < b for a, b in zip(starts, stops))
    return [v for v, a, b in runs for _ in range(b - a)], cum


def _sampler(f):
    return lambda ts: pw.evaluate_nondecreasing(f, ts)


def _both(fn, reference, case, with_spec):
    f, cuts, spec = case
    sample = _sampler(f)
    args = (sample, f.domain.end, spec, cuts) if with_spec else \
        (sample, f.domain.end, cuts)
    return _hex(fn(*args)), _hex(reference(*args))


SAMPLE_SORT_EXAMPLES = [
    (UNIT_STEP, [b for b in UNIT_STEP.breakpoints() if b > 0.0],
     cat.sqrt_phi(U)),
    (KNOT_STEP, [0.125, 0.5, 1.0, 1024.0], cat.sqrt_plus_atom_phi(H)),
    # still positive at the sampling horizon: divergent tails
    (pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, INF, 0.5)]), [1.0],
     cat.sqrt_phi(H)),
    # no step function: a singularity at zero, divergent in both spaces
    (pw.power_piece(U, 0.0, 1.0, 1.0, -0.9), [0.5], cat.sqrt_phi(U)),
    # ... and finite in the Marcinkiewicz space on the half-line
    (pw.power_piece(H, 0.0, 1.0, 1.0, -0.7), [1.0], cat.sqrt_phi(H)),
]


# a grid with the default's structure (head, body, tail, cut clusters) and
# about 1/30 of its knots: the generated cases run on it, and one case per
# oracle runs on the default grid below
SMALL_GRID = {"GRID_HEAD_START": 2.0 ** -20, "GRID_HEAD_RATIO": 2.0 ** (1.0 / 16),
              "GRID_BODY_CELLS": 2048, "GRID_TAIL_RATIO": 2.0 ** (1.0 / 8),
              "GRID_TAIL_END": 2.0 ** 24}


# the grid memos read these constants but are keyed on the end alone, so a
# grid built under other constants must not outlive them
GRID_MEMOS = (orc._base_grid, orc._uniform_nodes)


@contextlib.contextmanager
def _small_grid(constants=SMALL_GRID):
    saved = {name: getattr(orc, name) for name in constants}
    for memo in GRID_MEMOS:
        memo.cache_clear()
    for name, value in constants.items():
        setattr(orc, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(orc, name, value)
        for memo in GRID_MEMOS:
            memo.cache_clear()


@given(case=sample_sort_cases())
@settings(max_examples=8, deadline=None)
@example(case=SAMPLE_SORT_EXAMPLES[0])
@example(case=SAMPLE_SORT_EXAMPLES[1])
def test_weighted_sorted_is_the_per_cell_loop_bit_for_bit(case):
    with _small_grid():
        values, reference = _both(_weighted_sorted_cells,
                                  support.weighted_sorted_reference, case,
                                  False)
    assert values == reference


@given(case=sample_sort_cases())
@settings(max_examples=8, deadline=None)
@example(case=SAMPLE_SORT_EXAMPLES[0])
@example(case=SAMPLE_SORT_EXAMPLES[2])
@example(case=SAMPLE_SORT_EXAMPLES[3])
def test_lorentz_sampled_is_the_per_cell_loop_bit_for_bit(case):
    with _small_grid():
        value, reference = _both(orc._lorentz_sampled,
                                 support.lorentz_sampled_reference, case, True)
    assert value == reference


@given(case=sample_sort_cases())
@settings(max_examples=8, deadline=None)
@example(case=SAMPLE_SORT_EXAMPLES[0])
@example(case=SAMPLE_SORT_EXAMPLES[3])
@example(case=SAMPLE_SORT_EXAMPLES[4])
def test_marcinkiewicz_sampled_is_the_per_cell_loop_bit_for_bit(case):
    with _small_grid():
        value, reference = _both(orc._marcinkiewicz_sampled,
                                 support.marcinkiewicz_sampled_reference,
                                 case, True)
    assert value == reference


@pytest.mark.parametrize("fn,reference,case,with_spec", [
    (_weighted_sorted_cells, support.weighted_sorted_reference,
     SAMPLE_SORT_EXAMPLES[1], False),
    (orc._lorentz_sampled, support.lorentz_sampled_reference,
     SAMPLE_SORT_EXAMPLES[2], True),
    (orc._marcinkiewicz_sampled, support.marcinkiewicz_sampled_reference,
     SAMPLE_SORT_EXAMPLES[4], True),
], ids=["weighted-sorted", "lorentz", "marcinkiewicz"])
def test_sample_sort_is_the_per_cell_loop_on_the_default_grid(
        fn, reference, case, with_spec):
    value, expected = _both(fn, reference, case, with_spec)
    assert value == expected


def test_the_base_grid_memo_is_keyed_on_the_grid_constants():
    f, cuts, _ = SAMPLE_SORT_EXAMPLES[1]
    bare = (f, [], None)
    for grid in (contextlib.nullcontext, _small_grid, contextlib.nullcontext):
        with grid():
            values, reference = _both(_weighted_sorted_cells,
                                      support.weighted_sorted_reference, bare,
                                      False)
        assert values == reference
    # a call with cuts splices into copies of the memo, never into it
    orc._weighted_sorted(_sampler(f), f.domain.end, cuts)
    values, reference = _both(_weighted_sorted_cells,
                              support.weighted_sorted_reference, bare, False)
    assert values == reference


def _nondecreasing(xs):
    return all(a <= b for a, b in zip(xs, xs[1:]))


@given(end=st.sampled_from([1.0, 16.0, INF]),
       cuts=st.lists(st.floats(0.0, 4096.0) | st.sampled_from(GRID_KNOTS)
                     | st.floats(2.0 ** -45, 2.0 ** -30), max_size=4))
@settings(max_examples=25, deadline=None)
@example(end=INF, cuts=[])
@example(end=1.0, cuts=[])
@example(end=INF, cuts=[2.0 ** -40, 0.125, 1024.0, 2.0 ** 40 * 0.999])
@example(end=1.0, cuts=[1e-12, 0.125, 1.0 - 2.0 ** -30])
def test_the_sample_sort_points_and_sums_are_built_in_order(end, cuts):
    # evaluate_nondecreasing and QuasiConcaveSpec.values test no order:
    # the base grid's midpoints, with cut clusters spliced in or not, and
    # the running sums must be nondecreasing as they are built
    seen = []
    _, cum = orc._weighted_sorted(
        lambda ts: seen.append(list(ts)) or [0.0] * len(ts), end, cuts)
    mids, = seen
    assert _nondecreasing(mids) and _nondecreasing(cum)
    _, bare_mids, _, _ = orc._base_grid(end)
    assert _nondecreasing(bare_mids)
    # sorted by magnitude, a step function's cells sum in another order
    f = pw.step_function(U if end == 1.0 else H,
                         [(0.0, 0.3, 1.0), (0.3, 0.7, -4.0), (0.7, 1.0, 2.0)])
    _, cum = orc._weighted_sorted(_sampler(f), end, cuts)
    assert _nondecreasing(cum)


@pytest.mark.parametrize("top,n", [(orc.GRID_TOP, orc.GRID_POINTS),
                                   (1.0, orc.GRID_POINTS), (orc.GRID_TOP, 1 << 15),
                                   (1.0, 1 << 15)])
def test_the_uniform_nodes_are_built_in_order(top, n):
    nodes, _ = orc._uniform_nodes(top, n)
    assert _nondecreasing(nodes)


@pytest.mark.parametrize("stop", [2.0 ** 30, 16.0, 1.0])
def test_the_log_grid_is_built_in_order(stop):
    assert _nondecreasing(orc._geometric_nodes(2.0 ** -40, 2.0 ** (1.0 / 64),
                                               stop))


@pytest.mark.parametrize("end,cuts", [
    (INF, []), (1.0, []), (INF, [0.3, 0.75, 1.5, 3.0]),
    (1.0, [1e-12, 0.5, 0.5 + 1e-4]), (INF, [2.0 ** -61, 2.0 ** 61, 7.0]),
])
def test_the_shell_nodes_are_built_in_order(end, cuts):
    nodes, _ = orc._shell_nodes(end, cuts)
    assert _nondecreasing(nodes)


def _thin_panel(a, w):
    """f with a piece of width w at a, and the cuts of its oracle."""
    return pw.step_function(H, [(0.0, a, 1.0), (a, a + w, 3.0),
                                (a + w, 2.0, 2.0)]), [a, a + w, 2.0]


# cut panels 5e-12 and 8e-15 wide, where Simpson nodes nudged into their
# cells by 1e-9 of a cell would round out of order, and in the second one
# past a + w
THIN_PANELS = [(1.3, 5e-12), (1.0384599718233707, 8.001223947158723e-15)]


@st.composite
def close_cuts(draw):
    """Cuts on shell ends 2^k and one ulp either side of them, and runs of
    cuts after them down to one ulp apart."""
    cuts = []
    for _ in range(draw(st.integers(0, 4))):
        x = draw(_powers_of_two_and_neighbours())
        cuts.append(x)
        for _ in range(draw(st.integers(0, 3))):
            x = math.nextafter(x, INF) if draw(st.booleans()) else \
                x * (1.0 + draw(st.floats(2.0 ** -52, 1e-3)))
            cuts.append(x)
    return cuts


@given(end=st.sampled_from([1.0, 3.0, INF]), cuts=close_cuts())
@settings(max_examples=200, deadline=None)
@example(end=INF, cuts=_thin_panel(*THIN_PANELS[0])[1])
@example(end=INF, cuts=_thin_panel(*THIN_PANELS[1])[1])
def test_every_shell_panel_is_built_in_order_and_read_from_inside(end, cuts):
    # each shell is cut at its distinct inner cuts into panels of 129 nodes
    nodes, weights = orc._shell_nodes(end, cuts)
    lo = 2.0 ** orc.SHELL_LOW
    top = min(end, 2.0 ** orc.SHELL_HIGH)
    i = 0
    for ws in weights:
        hi = min(lo * 2.0, top)
        xs = [lo, *sorted({c for c in cuts if lo < c < hi}), hi]
        assert len(ws) == 129 * (len(xs) - 1)
        for x0, x1 in zip(xs, xs[1:]):
            panel = nodes[i:i + 129]
            assert _nondecreasing(panel) and x0 <= panel[0] and panel[-1] < x1
            i += 129
        lo = hi
    assert lo == top and i == len(nodes)


@pytest.mark.parametrize("a,w", THIN_PANELS,
                         ids=["inside", "across-a-breakpoint"])
def test_thin_panel_nodes_are_read_from_inside(a, w):
    # every node of the panel [a, a + w) lies in it and reads the piece's
    # value, in one walk over the nodes as they are
    f, cuts = _thin_panel(a, w)
    nodes, _ = orc._shell_nodes(INF, cuts)
    start = nodes.index(a)
    panel = nodes[start:start + 129]
    assert all(a <= t < a + w for t in panel)
    values = pw.evaluate_nondecreasing(f, nodes)
    assert _hex(values) == _hex([pw.evaluate(f, t) for t in nodes])
    assert values[start:start + 129] == [3.0] * 129


def test_every_sampler_call_gets_nondecreasing_points():
    # evaluate_nondecreasing tests no order, so every sampler must hand it
    # points in order, the Orlicz nodes of thin cut panels included
    in_order = []
    for a, w in THIN_PANELS:
        f, cuts = _thin_panel(a, w)

        def sample(ts):
            in_order.append(_nondecreasing(ts))
            return pw.evaluate_nondecreasing(f, ts)

        for X in (sp.orlicz_space(cat.orlicz_square(), H),
                  sp.lorentz_space(cat.sqrt_phi(H)),
                  sp.marcinkiewicz_space(cat.sqrt_phi(H)),
                  sp.lebesgue(INF, H), sp.l1_cap_linf(H), sp.l1_plus_linf(H)):
            orc._oracle_value(lambda t: pw.evaluate(f, t), sample, INF, cuts,
                              X)
    assert len(in_order) >= 14 and all(in_order)


# f* of a function that vanishes nowhere on the grid, vanishes between two
# steps, and vanishes everywhere, against the per-cell references
RUN_FORM_CASES = [
    (UNIT_STEP, [b for b in UNIT_STEP.breakpoints() if b > 0.0],
     cat.sqrt_plus_atom_phi(U)),
    (pw.step_function(H, [(0.0, INF, 0.5)]), [], cat.sqrt_phi(H)),
    (pw.step_function(H, [(0.0, 1.0, 2.0), (1.5, 3.0, -1.0)]),
     [1.0, 1.5, 3.0], cat.sqrt_plus_atom_phi(H)),
    (pw.step_function(H, [(0.0, 1.0, 2.0), (1.5, 3.0, -1.0)]),
     [1.0, 1.5, 3.0], cat.bounded_sqrt_phi(H)),
    (pw.zero(H), [0.5], cat.sqrt_plus_atom_phi(H)),
    (pw.zero(U), [], cat.atom_phi(U)),
]
RUN_FORM_IDS = ["unit-no-zero", "half-line-no-zero", "zero-piece-atom",
                "zero-piece-bounded", "zero-half-line", "zero-unit"]


@pytest.mark.parametrize("case", RUN_FORM_CASES, ids=RUN_FORM_IDS)
@pytest.mark.parametrize("fn,reference,with_spec", [
    (_weighted_sorted_cells, support.weighted_sorted_reference, False),
    (orc._lorentz_sampled, support.lorentz_sampled_reference, True),
    (orc._marcinkiewicz_sampled, support.marcinkiewicz_sampled_reference,
     True),
], ids=["weighted-sorted", "lorentz", "marcinkiewicz"])
def test_the_run_form_is_the_per_cell_loop_at_its_edges(fn, reference,
                                                        with_spec, case):
    with _small_grid():
        value, expected = _both(fn, reference, case, with_spec)
    assert value == expected


def test_the_zero_function_has_one_zero_run():
    # Lorentz reads f*(0) = 0.0 off it (the run-form cases above)
    with _small_grid():
        runs, cum = orc._weighted_sorted(_sampler(pw.zero(H)), INF, [])
    assert runs == [(0.0, 0, len(cum))]


def test_a_repeated_nan_sample_splits_into_runs_of_one_cell():
    # groupby takes one NaN object repeated for one value; a run split by
    # !=, as the per-cell sort has it, gives each NaN cell a run
    nan = math.nan

    def sample(ts):
        n = len(ts)
        return [2.0] * 3 + [nan] * 4 + [0.0] * (n - 7)

    with _small_grid():
        runs, cum = orc._weighted_sorted(sample, 1.0, ())
        value = orc._marcinkiewicz_sampled(sample, 1.0, cat.sqrt_phi(U), ())
        expected = support.marcinkiewicz_sampled_reference(sample, 1.0,
                                                           cat.sqrt_phi(U))
    assert sorted(b - a for v, a, b in runs if v != v) == [1, 1, 1, 1]
    assert [(v, b - a) for v, a, b in runs if v == v] == [
        (2.0, 3), (0.0, len(cum) - 7)]
    assert value == expected == INF


# the constants the other samplers' grids read, set apart from the defaults
OTHER_GRID = {"GRID_DELTA": 2.0 ** -10, "GRID_TOP": 2.0 ** 4,
              "SHELL_LOW": -20, "SHELL_HIGH": 20}


def _other_grid():
    return _small_grid(OTHER_GRID)


def test_the_uniform_node_memo_is_keyed_on_the_grid_constants():
    # the samples of |t| are the nodes themselves, sorted
    nodes = lambda ts: list(ts)
    for grid in (contextlib.nullcontext, _other_grid, contextlib.nullcontext):
        for end, n in ((INF, 4096), (1.0, 4096), (INF, 1000)):
            with grid():
                assert _hex(orc._sorted_samples(nodes, end, n)) == _hex(
                    support.sorted_samples_reference(nodes, end, n))
    # the oracles that sample on it leave it as it was
    orc.rearrangement_oracle(STEP)
    orc.quadrature_norm_oracle(UNIT_STEP, sp.l1_plus_linf(U))
    assert _hex(orc._sorted_samples(nodes, INF, 4096)) == _hex(
        support.sorted_samples_reference(nodes, INF, 4096))


def test_the_log_grid_memo_is_keyed_on_the_domain_end():
    # the largest |f| is read at the last point below 1e6 or below the end
    f = pw.power_piece(H, 0.0, 1e6, 1.0, 0.5)
    sample = _sampler(f)
    cuts = [0.3, 1e6]
    for end, extra in ((INF, []), (16.0, []), (1.0, []), (INF, cuts),
                       (16.0, cuts), (INF, [])):
        seen: list[float] = []
        orc._sup_sampled(lambda ts: seen.extend(ts) or list(ts), end, extra)
        assert _hex(sorted(set(seen))) == _hex(
            support.sup_points_reference(end, extra))
        assert orc._sup_sampled(sample, end, extra).hex() == \
            support.sup_sampled_reference(sample, end, extra).hex()


def test_the_shell_panel_memo_is_keyed_on_the_shells():
    cuts = [0.3, 0.75, 1.5, 3.0]
    for grid in (contextlib.nullcontext, _other_grid, contextlib.nullcontext):
        for end, extra in ((INF, []), (1.0, []), (INF, cuts), (1.0, []),
                           (INF, [])):
            with grid():
                assert _hex(orc._shell_nodes(end, extra)) == _hex(
                    support.shell_nodes_reference(end, extra))


def test_the_running_average_past_its_grid_and_below_its_first_point():
    # the grid runs from 2^-60 to 2^40 on the half-line; the average of the
    # constant 1 is 1 everywhere, and that of the indicator of [0, 1) is
    # 1/t past 1
    one = orc._running_average(lambda t: 1.0, INF, [])
    head = orc._running_average(lambda t: 1.0 if t < 1.0 else 0.0, INF, [1.0])
    for t in (2.0 ** -62, 2.0 ** 41):
        assert one(t) == pytest.approx(1.0, rel=1e-12)
    assert head(2.0 ** -62) == pytest.approx(1.0, rel=1e-12)
    assert head(2.0 ** 41) == pytest.approx(2.0 ** -41, rel=1e-12)


def _powers_of_two_and_neighbours():
    k = st.integers(-60, 60)
    return st.one_of(
        k.map(lambda k: 2.0 ** k),
        k.map(lambda k: math.nextafter(2.0 ** k, 0.0)),
        k.map(lambda k: math.nextafter(2.0 ** k, INF)),
        st.floats(2.0 ** -61, 2.0 ** 61))


@given(cum=st.lists(_powers_of_two_and_neighbours(), max_size=40),
       lo=st.integers(0, 5))
@settings(max_examples=300, deadline=None)
@example(cum=[2.0 ** 40, math.nextafter(2.0 ** 40, INF),
              math.nextafter(2.0 ** 41, 0.0), 2.0 ** 41], lo=0)
@example(cum=[math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)],
         lo=0)
def test_octave_runs_are_the_per_cell_octaves(cum, lo):
    cum.sort()
    lo = min(lo, len(cum))
    runs = list(orc._octave_runs(cum, lo, len(cum)))
    per_cell = [math.floor(math.log2(c)) for c in cum[lo:]]
    assert [k for k, a, b in runs for _ in range(a, b)] == per_cell
    # runs are maximal and tile cum[lo:]
    assert all(r[0] != s[0] and r[2] == s[1] for r, s in zip(runs, runs[1:]))
    assert [r[1] for r in runs[:1]] == ([lo] if runs else [])


# ---------------------------------------------------------------------------
# the Orlicz oracle's run products against the per-node modular


ORLICZ_GENERATORS = (cat.orlicz_square(), cat.orlicz_square_capped(),
                     cat.orlicz_flat_capped(), support.SHIFTED_SQUARE)
# magnitudes whose generator values are zero, subnormal or inf at u^2 and
# lam = 1 (1e-200, 1e-160, 1e200), or whose run products can leave the
# normal range (1e150, 1e153)
FAR_MAGNITUDES = (1e-200, 1e-160, 1e150, 1e153, 1e200)
# arguments u = |f|/lam to read the generators at: u^2 lands on subnormal
# products of the low shells, or on shell sums next to the float range
FAR_ARGUMENTS = (1e-160, 1e-152, 3e-150, 1e-145, 1e140, 1e145, 1e152, 1e154)


@st.composite
def orlicz_cases(draw):
    """(sampler, end, cuts, Young function) of a step function on [0, 1],
    on [0, inf) or read up to 3, where the last dyadic shell [2, 3) is no
    doubling, with a few extra cuts, and the magnitudes of its pieces."""
    end = draw(st.sampled_from([1.0, INF, 3.0]))
    domain = U if end == 1.0 else H
    reach = 1.0 if end == 1.0 else 8.0
    edge = st.floats(0.0, reach) | st.sampled_from(
        [x for x in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0) if x <= reach])
    edges = sorted(set(draw(st.lists(edge, min_size=2, max_size=6))))
    pool = draw(st.lists(st.floats(0.1, 4.0) | st.sampled_from(
        FAR_MAGNITUDES), min_size=1, max_size=3))
    rows = [(lo, hi, draw(st.sampled_from(pool)) * draw(st.sampled_from(
        [1.0, -1.0]))) for lo, hi in zip(edges, edges[1:])
        if draw(st.integers(0, 3))]
    if not domain.is_unit and draw(st.booleans()):
        rows.append((max(edges[-1], 0.5), INF, draw(st.sampled_from(pool))))
    f = pw.step_function(domain, rows)
    # an extra cut where |f| stays one magnitude makes a cut shell that
    # reads one slot
    extra = draw(st.lists(st.floats(0.0, reach), max_size=2))
    cuts = [b for b in f.breakpoints() if math.isfinite(b) and b > 0.0]
    return (_sampler(f), end, cuts + extra,
            draw(st.sampled_from(ORLICZ_GENERATORS))), pool


def _orlicz_case(f, end, spec):
    cuts = [b for b in f.breakpoints() if math.isfinite(b) and b > 0.0]
    return _sampler(f), end, cuts, spec


def _orlicz_both(case):
    return (orc._orlicz_lux(*case).hex(),
            support.orlicz_lux_reference(*case).hex())


EPS = 2.0 ** -53  # the unit roundoff


def _modular_bound(reference: float, products) -> float:
    """How far ``_orlicz_modular`` may read from the per-node modular
    ``reference`` with these per-node ``products``.

    Every sum is of nonnegative terms.  Before the end continuation, each
    run weight (an fsum) and each run product rounds once, each reference
    product once, and both totals once: a relative error e of 5 EPS, taken
    as 6 EPS.  Each product at or below the smallest normal float adds at
    most 2^-1074 instead; a run product there has all its node products
    there too.
    The continuation s0 * r / (1 - r), with r = s0 / s1 < DIVERGENCE_RATIO
    and the same at the other end, reads s0 and s1 to e each, so r to
    2e + EPS, and 1 - r to r / (1 - r) times that: the ratio's error
    multiplied by at most m = 1 / (1 - DIVERGENCE_RATIO).  Its three
    operations, and the two additions of the ends to the total, round once
    on each side.  A continued shell sum s0 exceeds 1e-14, so the 2^-1074
    terms reach the continuation only scaled by at most m (2m + 1).
    """
    m = 1.0 / (1.0 - orc.DIVERGENCE_RATIO)
    e = 6.0 * EPS
    rel = e + (2.0 * e + EPS) * m + 10.0 * EPS
    subnormal = sum(p <= sys.float_info.min for p in products) * 2.0 ** -1074
    return rel * reference + subnormal * (1.0 + m * (2.0 * m + 1.0) * 2.0)


def _assert_modular_within_bound(modular, reference, lam):
    value = modular(lam)
    expected, products = reference(lam)
    # no number on either side, or within the bound.  Past the float range
    # the expanded shifted square reads inf - inf = NaN, and a sum of
    # products reads NaN, or inf where it overflows before it meets the NaN
    if math.isfinite(expected):
        assert abs(value - expected) <= _modular_bound(expected, products)
    else:
        assert not math.isfinite(value)


@given(case=orlicz_cases())
@settings(max_examples=300, deadline=None)
def test_orlicz_lux_is_the_per_node_modular_bit_for_bit(case):
    # on a grid of 40 shells, where a shell past 2^-20 or 2^20 reads none
    # of the magnitudes the default grid's shells would
    with _other_grid():
        value, reference = _orlicz_both(case[0])
    assert value == reference


@given(case=orlicz_cases(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_orlicz_modular_is_the_per_node_sum_within_its_rounding_bound(case,
                                                                      data):
    # the bisection compares the modular with 1, and a last bit that moves
    # far from 1 moves no comparison: the modular itself is compared here,
    # at scales lam = |f|/u that read the generator at the arguments u
    case, pool = case
    us = st.floats(0.1, 4.0) | st.sampled_from(FAR_ARGUMENTS)
    lams = [g / u for g, u in data.draw(st.lists(st.tuples(
        st.sampled_from(pool), us), min_size=1, max_size=4))]
    with _other_grid():
        modular = orc._orlicz_modular(*case)
        reference = support.orlicz_modular_reference(*case)
        for lam in lams:
            if 0.0 < lam < INF:
                _assert_modular_within_bound(modular, reference, lam)


@pytest.mark.parametrize("case", [
    _orlicz_case(STEP, INF, cat.orlicz_square()),
    _orlicz_case(KNOT_STEP, INF, cat.orlicz_square()),
    _orlicz_case(pw.step_function(H, [(0.3, 0.75, 1.0), (1.5, 3.0, -2.0)]),
                 INF, cat.orlicz_square()),
    _orlicz_case(UNIT_STEP, 1.0, cat.orlicz_flat_capped()),
    _orlicz_case(STEP, 3.0, cat.orlicz_square_capped()),
    _orlicz_case(pw.step_function(H, [(0.0, 1.0, 1e-160), (1.0, 2.0, 1e150),
                                      (2.0, INF, 1e-200)]),
                 INF, cat.orlicz_square()),
    _orlicz_case(pw.step_function(H, [(0.0, 3.0, 1e-200), (3.0, 5.0, 0.5)]),
                 INF, support.SHIFTED_SQUARE),
    # up to the last shell: no norm, and at lam = 1e-150 the high shells
    # sum past the float range
    _orlicz_case(pw.step_function(H, [(1.0, INF, 2.0)]), INF,
                 cat.orlicz_square()),
    # no step function: every node reads its own magnitude
    _orlicz_case(pw.power_piece(H, 0.0, 4.0, 1.0, -0.25), INF,
                 cat.orlicz_square()),
], ids=["step", "knots", "gaps", "unit-flat-capped", "end-3-capped",
        "far-magnitudes", "shifted-square", "tail", "power"])
def test_orlicz_lux_is_the_per_node_modular_on_the_default_grid(case):
    value, reference = _orlicz_both(case)
    assert value == reference
    # at lam = 1e-10, 1e-160 reads the generator at 1e-150: subnormal
    # products on the shells below 2^-17
    modular = orc._orlicz_modular(*case)
    reference = support.orlicz_modular_reference(*case)
    for lam in (1.0, 1e-10, 1e-8, 1e5, 1e-150, float.fromhex(value)):
        _assert_modular_within_bound(modular, reference, lam)
