"""Independent numeric recomputation: quadrature engines and comparisons."""

from __future__ import annotations

import contextlib
import math
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


def test_simpson_nudges_an_endpoint_singularity_inward():
    # fn(0) is inf, so the end value is read a little inside [0, 1]; the
    # integral of x**-1/2 is 2, and the panel rule gets it to about 0.2 %
    fn = lambda x: INF if x == 0.0 else x ** -0.5
    assert orc.simpson(fn, 0.0, 1.0) == pytest.approx(2.0, rel=5e-3)


def test_simpson_reads_inf_where_an_interior_node_meets_the_singularity():
    # [1, 1 + 2^-51] is two ulps wide: every nudge of the end value
    # fn(1) = inf stays on 1.0, so the end reads 0.0, and the node halfway
    # between 1.0 and the midpoint rounds back onto 1.0.  The panel sum was
    # 0 * inf = NaN there
    fn = lambda x: INF if x == 1.0 else 1.0
    assert orc.simpson(fn, 1.0, 1.0 + 2.0 ** -51) == INF
    # a panel sum past the float range is no number either: it recursed to
    # full depth and came back NaN
    assert not math.isnan(orc.simpson(lambda x: 1e308, 0.0, 1.0))


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
    (STEP, sp.l1_cap_linf(H), 4.9999999936256145),
    (UNIT_STEP, sp.l1_plus_linf(U), 2.2637735750436305),
    # running averages, sampled point by point
    (STEP, sp.cesaro_space(sp.lebesgue(INF, H)), 2.3333333326666703),
    (UNIT_STEP, sp.cesaro_space(sp.l1_plus_linf(U)), 1.6285960706763947),
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


def test_orlicz_oracle_on_a_panel_whose_nodes_fall_out_of_order():
    # in the 5e-12 wide panel the nudged quadrature nodes round out of
    # order, so the walk over them restarts; the value was recorded with
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


def _both(fn, reference, case, with_spec):
    f, cuts, spec = case
    sample = lambda ts: pw.evaluate_sorted(f, ts)
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


@contextlib.contextmanager
def _small_grid():
    saved = {name: getattr(orc, name) for name in SMALL_GRID}
    for name, value in SMALL_GRID.items():
        setattr(orc, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(orc, name, value)


@given(case=sample_sort_cases())
@settings(max_examples=8, deadline=None)
@example(case=SAMPLE_SORT_EXAMPLES[0])
@example(case=SAMPLE_SORT_EXAMPLES[1])
def test_weighted_sorted_is_the_per_cell_loop_bit_for_bit(case):
    with _small_grid():
        values, reference = _both(orc._weighted_sorted,
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
    (orc._weighted_sorted, support.weighted_sorted_reference,
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
            values, reference = _both(orc._weighted_sorted,
                                      support.weighted_sorted_reference, bare,
                                      False)
        assert values == reference
    # a call with cuts splices into copies of the memo, never into it
    orc._weighted_sorted(lambda ts: pw.evaluate_sorted(f, ts), f.domain.end,
                         cuts)
    values, reference = _both(orc._weighted_sorted,
                              support.weighted_sorted_reference, bare, False)
    assert values == reference


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
