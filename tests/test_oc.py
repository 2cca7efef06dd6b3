"""Order-continuity verdicts: rules, direct checks, adversarial search."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesarospaces import catalog as cat
from cesarospaces import documents as dc
from cesarospaces import norms as nm
from cesarospaces import oc
from cesarospaces import piecewise as pw
from cesarospaces import spaces as sp
from cesarospaces.errors import (InvalidFamilyError, MethodInapplicableError,
                                 NotInSpaceError)
from cesarospaces.piecewise import INF
from support import HALFLINE as H, SHIFTED_SQUARE, UNIT as U, chi

CES2 = sp.cesaro_space(sp.lebesgue(2.0, H))
CESINF = sp.cesaro_space(sp.lebesgue_inf(H))


# ---------------------------------------------------------------------------
# point verdicts, closed form


def test_power_space_points_are_all_continuous():
    v = oc.oc_point(chi(H, 0.0, 1.0), CES2)
    assert v.verdict == "OC" and v.is_oc is True
    assert v.rule == "averaged-power/all-points"


def test_sup_space_point_depends_on_average_decay():
    head = oc.oc_point(chi(H, 0.0, 1.0), CESINF)
    assert head.verdict == "not-OC" and head.is_oc is False
    assert head.rule == "averaged-power/vanishing-average"
    interior = oc.oc_point(chi(H, 1.0, 2.0), CESINF)
    assert interior.verdict == "OC"


def test_sup_space_constant_is_not_continuous():
    c = pw.step_function(H, [(0.0, INF, 1.0)])
    v = oc.oc_point(c, CESINF)
    assert v.verdict == "not-OC"


def test_trivial_space_verdict():
    CX = sp.cesaro_space(sp.lebesgue(1.0, H))
    v = oc.oc_point(chi(H, 0.0, 1.0), CX)
    assert v.verdict == "trivial-space"
    assert v.rule == "trivial-space/tail-membership"
    # a collapsed space has no nonzero members, so the point is not OC
    assert v.is_oc is False


@pytest.mark.parametrize("X", [sp.lebesgue(1.0, H), sp.l1_cap_linf(H)],
                         ids=["L1", "L1capLinf"])
@pytest.mark.parametrize("method", ["closed-form", "theorem", "direct"])
def test_every_point_route_reports_a_trivial_space(X, method):
    # a zero space has no point to test: no route may search restriction
    # norms there and answer not-OC
    f = pw.power_piece(H, 0.0, 1.0, 3.91, 0.546)
    v = oc.oc_point(f, sp.cesaro_space(X), method=method)
    assert (v.verdict, v.rule, v.evidence) == (
        "trivial-space", "trivial-space/tail-membership", {"domain": "halfline"})


@pytest.mark.parametrize("CX", [CES2, CESINF], ids=["L2", "Linf"])
def test_theorem_route_reads_the_zero_function_as_continuous(CX):
    v = oc.oc_point_via_characterization(pw.zero(H), CX)
    assert (v.verdict, v.rule, v.evidence) == (
        "OC", "transform-image-of-core", {"zero": True})


def test_membership_is_required():
    CM = sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H)))
    c = pw.step_function(H, [(0.0, INF, 1.0)])
    with pytest.raises(NotInSpaceError):
        oc.oc_point(c, CM)


@pytest.mark.parametrize("method", ["closed-form", "theorem", "direct"])
@pytest.mark.parametrize("f, CX", [
    # C f ~ t**-0.4 / 0.6 and phi' ~ t**-0.5: every route answered OC
    (pw.power_piece(H, 1.0, INF, 1.0, -0.4),
     sp.cesaro_space(sp.lorentz_space(cat.sqrt_phi(H)))),
    # the battery's "cesm-h constant": the direct route answered not-OC
    (pw.step_function(H, [(0.0, INF, 1.0)]),
     sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H)))),
], ids=["averaged-lorentz", "averaged-marcinkiewicz"])
def test_every_point_route_requires_membership(f, CX, method):
    with pytest.raises(NotInSpaceError):
        oc.oc_point(f, CX, method=method)


@pytest.mark.parametrize("family", [sp.lorentz_space, sp.marcinkiewicz_space])
def test_closed_form_membership_runs_no_numeric_norm(monkeypatch, family):
    # C|f| of sqrt(t) on [0, 1] rises, then decays like mass/t, so it has
    # no exact rearrangement: a norm would run the level quadrature or the
    # level search; the membership rule reads germs instead
    calls = []
    for name in ("_lorentz_ppl", "_marcinkiewicz_levels"):
        original = getattr(nm, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(nm, name, counted)
    CX = sp.cesaro_space(family(cat.sqrt_phi(H)))
    v = oc.oc_point(pw.power_piece(H, 0.0, 1.0, 1.0, 0.5), CX)
    assert v.verdict == "OC"
    assert calls == []


def test_unit_sup_space_boundary_cases():
    CX = sp.cesaro_space(sp.lebesgue_inf(U))
    late = oc.oc_point(chi(U, 0.5, 1.0), CX)
    assert late.verdict == "OC"
    const = oc.oc_point(chi(U, 0.0, 1.0), CX)
    assert const.verdict == "not-OC"


_SQUARE_PLUS_CUBE = sp.OrliczFunctionSpec(
    pw.make_ppl(H, [(0.0, INF, {(2.0, 0): 1.0, (3.0, 0): 1.0})]))


@pytest.mark.parametrize("spec", [cat.orlicz_square(), _SQUARE_PLUS_CUBE],
                         ids=["power", "two-terms"])
def test_unbounded_generator_evidence(spec):
    # both generators are doubling at 0 and at infinity, so core membership
    # of C|f| is read off its germs, with no modular at any scale
    CX = sp.cesaro_space(sp.orlicz_space(spec, H))
    v = oc.oc_point_closed_form(pw.power_piece(H, 0.0, 1.0, 1.0, -0.25), CX)
    assert (v.verdict, v.rule, v.evidence) == (
        "OC", "averaged-orlicz/unbounded-generator",
        {"core_membership_exact": True})


@pytest.mark.parametrize("height", [1e-7, 1e-5, 1e-3])
def test_small_constant_under_a_zero_bound_is_not_continuous(height):
    # C|f| = f stays at the height, so the modular of f/lam on [n, inf) is
    # infinite once lam < height: the norms of the tails stay at the
    # height.  A sampled rule that stopped at the scale 2**20 read 1e-7 as
    # order continuous
    f = pw.step_function(H, [(0.0, INF, height)])
    CX = sp.cesaro_space(sp.orlicz_space(SHIFTED_SQUARE, H))
    closed = oc.oc_point_closed_form(f, CX)
    assert (closed.verdict, closed.rule) == (
        "not-OC", "averaged-orlicz/unbounded-generator")
    assert oc.oc_point(f, CX, method="theorem").verdict == "not-OC"
    combined = oc.oc_point(f, CX, method="all")
    assert (combined.verdict, combined.rule) == (
        "not-OC", "averaged-orlicz/unbounded-generator")


_CAPPED_H = sp.cesaro_space(sp.orlicz_space(cat.orlicz_square_capped(), H))


def test_capped_generator_reads_the_vanishing_ends():
    v = oc.oc_point_closed_form(pw.scale(chi(H, 0.0, 1.0), 3.0), _CAPPED_H)
    assert (v.verdict, v.rule, v.evidence) == (
        "not-OC", "averaged-orlicz/capped-generator",
        {"vanishing_average_at_zero": False,
         "vanishing_average_at_infinity": True})


@pytest.mark.parametrize("method", ["closed-form", "theorem", "direct", "all"])
def test_tall_bump_under_a_capped_generator_is_continuous(method):
    # C|f| vanishes at both ends.  A sampled capped rule whose horizons
    # stopped at 2**20 read this height as not-OC
    f = pw.scale(chi(H, 1.0, 2.0), 2e6)
    v = oc.oc_point(f, _CAPPED_H, method=method)
    assert v.verdict == "OC"
    assert v.rule != "method-conflict"
    if method == "theorem":
        assert v.evidence == {"core_trivial": True, "truncation_core": True,
                              "vanishing_average_at_zero": True}


@pytest.mark.parametrize("CX", [CES2, _CAPPED_H], ids=["L2", "capped"])
@pytest.mark.parametrize("height", [5e3, 1e5, 1e7])
def test_direct_route_starts_past_the_peak_of_a_bounded_function(CX, height):
    # the superlevel leg holds the whole bump until n passes the height;
    # run from n = 1 with DIRECT_K_INIT = 12 it read a plateau as not-OC,
    # and "all" reported a method conflict
    f = pw.scale(chi(H, 1.0, 2.0), height)
    direct = oc.oc_point(f, CX, method="direct")
    assert direct.verdict == "OC"
    combined = oc.oc_point(f, CX, method="all")
    assert (combined.verdict, combined.rule) == (
        "OC", oc.oc_point_closed_form(f, CX).rule)


def test_direct_route_past_its_cap_is_inconclusive():
    rep = oc.direct_oc_check(pw.scale(chi(H, 1.0, 2.0), 2.0 ** 61), CES2)
    assert (rep.decision, rep.norms) == (None, ())


# ---------------------------------------------------------------------------
# method agreement


CROSS_CASES = [
    (chi(H, 0.0, 1.0), CES2, True),
    (chi(H, 0.0, 1.0), CESINF, False),
    (chi(H, 1.0, 2.0), CESINF, True),
    (chi(H, 0.0, 1.0), sp.cesaro_space(sp.l1_plus_linf(H)), True),
    (pw.step_function(H, [(0.0, INF, 1.0)]),
     sp.cesaro_space(sp.l1_plus_linf(H)), False),
    (chi(H, 0.0, 1.0), sp.cesaro_space(sp.lorentz_space(cat.sqrt_phi(H))),
     True),
    (chi(H, 0.0, 1.0),
     sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H))), True),
    (pw.power_piece(H, 0.0, 1.0, 1.0, -0.5),
     sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H))), False),
    (chi(H, 0.0, 1.0),
     sp.cesaro_space(sp.orlicz_space(cat.orlicz_square_capped(), H)), False),
    (chi(H, 1.0, 2.0),
     sp.cesaro_space(sp.orlicz_space(cat.orlicz_square_capped(), H)), True),
]


@pytest.mark.parametrize("f,CX,want", CROSS_CASES,
                         ids=[f"case{i}" for i in range(len(CROSS_CASES))])
def test_three_routes_agree(f, CX, want):
    cf = oc.oc_point(f, CX, method="closed-form")
    assert cf.is_oc is want
    th = oc.oc_point(f, CX, method="theorem")
    assert th.is_oc in (want, None)
    di = oc.oc_point(f, CX, method="direct")
    assert di.is_oc in (want, None)
    combined = oc.oc_point(f, CX, method="all")
    assert combined.rule != "method-conflict"
    assert combined.is_oc is want


def test_characterization_route_reports_its_rule():
    v = oc.oc_point_via_characterization(chi(H, 0.0, 1.0), CES2)
    assert v.rule in ("transform-image-of-core",
                      "truncation-core-and-vanishing-average")


@pytest.mark.parametrize("CX", [
    sp.cesaro_space(sp.lorentz_space(cat.sqrt_phi(H))), CESINF],
    ids=["core", "trivial-core"])
def test_characterization_route_computes_no_norm_of_its_input(monkeypatch, CX):
    # membership is the germ rule, and the verdict needs no norm of f in CX
    f = pw.scale(chi(H, 0.0, 1.0), 3.0)
    original = nm.norm

    def no_own_norm(g, X):
        assert not (g is f and X is CX), "the norm of the input was computed"
        return original(g, X)

    monkeypatch.setattr(nm, "norm", no_own_norm)
    v = oc.oc_point_via_characterization(f, CX)
    assert v.verdict in ("OC", "not-OC")
    assert "norm_in_space" not in v.evidence


@pytest.mark.parametrize("method", ["closed-form", "theorem"])
def test_closed_form_and_theorem_routes_compute_no_norm(monkeypatch, method):
    # every closed-form and theorem verdict on the battery is read off
    # germs: membership, core and truncation-core rules alike
    def no_norm(*args):
        raise AssertionError("a norm was computed")

    monkeypatch.setattr(nm, "norm", no_norm)
    for e in cat.default_battery():
        try:
            v = oc.oc_point(e.f, e.space, method=method)
        except NotInSpaceError:
            assert e.expect == "not-in-space", e.label
            continue
        assert v.verdict == e.expect, e.label
        if method == "closed-form" and e.rule is not None:
            assert v.rule == e.rule, e.label


_AVERAGED_CATALOG = [sp.cesaro_space(X) for dom in (H, U)
                     for X in cat.default_catalog(dom)]
_AVG_SQRT_MARCINKIEWICZ = sp.cesaro_space(
    sp.marcinkiewicz_space(cat.sqrt_phi(H)))


@given(X=st.sampled_from(_AVERAGED_CATALOG), a=st.floats(-0.95, 2.0),
       k=st.integers(0, 2), c=st.floats(0.1, 4.0) | st.floats(-4.0, -0.1),
       tail=st.booleans())
@settings(max_examples=100, deadline=None)
# inside the two exponent windows where root isolation used to give up
@example(X=_AVERAGED_CATALOG[0], a=0.0008, k=2, c=1.045, tail=False)
@example(X=_AVG_SQRT_MARCINKIEWICZ, a=0.005, k=0, c=1.3, tail=False)
@example(X=_AVG_SQRT_MARCINKIEWICZ, a=-0.5, k=2, c=-2.33, tail=True)
@example(X=_AVG_SQRT_MARCINKIEWICZ, a=-0.49, k=1, c=3.1, tail=True)
def test_power_log_pieces_get_a_norm_and_both_germ_verdicts(X, a, k, c, tail):
    # c*t**a*ln(t)**k on [0, 1), on the half-line optionally with 0.6/t
    # on [1, inf)
    rows = [(0.0, 1.0, {(a, k): c})]
    if tail and not X.domain.is_unit:
        rows.append((1.0, INF, {(-1.0, 0): 0.6}))
    f = pw.make_ppl(X.domain, rows)
    member = nm.in_space(f, X)
    assert math.isfinite(nm.norm(f, X).value) is member
    if member:
        closed = oc.oc_point(f, X)
        theorem = oc.oc_point(f, X, method="theorem")
        assert {closed.is_oc, theorem.is_oc} != {True, False}


# ---------------------------------------------------------------------------
# direct definition-level machinery


def test_direct_check_on_continuous_point():
    rep = oc.direct_oc_check(chi(H, 1.0, 2.0), CESINF)
    assert rep.decision is True
    assert rep.norms[-1] < 1e-6


def test_direct_check_on_discontinuous_point():
    rep = oc.direct_oc_check(chi(H, 0.0, 1.0), CESINF)
    assert rep.decision is False


# C|f| ~ t**-0.75 ln(t)**3 / 0.25: the superlevel leg of the default family
# still measures 3.5e-3 at n = 2**14, and a shrinkage test on it raised
_HEAVY_LOG_HEAD = pw.make_ppl(U, [(0.0, 1.0, {(-0.75, 3): -1.3})])


@pytest.mark.parametrize("X", [sp.lebesgue(1.0, U), sp.l1_plus_linf(U)],
                         ids=["L1", "L1plusLinf"])
def test_direct_route_takes_the_default_family_of_a_heavy_log_head(X):
    CX = sp.cesaro_space(X)
    direct = oc.oc_point(_HEAVY_LOG_HEAD, CX, method="direct")
    closed = oc.oc_point(_HEAVY_LOG_HEAD, CX)
    assert closed.verdict == "OC"
    assert direct.is_oc in (True, None)


@pytest.mark.parametrize("family, message", [
    (lambda n: pw.MeasurableSet.from_intervals(H, [(0.0, n)]), "not nested"),
    (lambda n: pw.MeasurableSet.from_intervals(H, [(0.0, 1.0)]),
     "does not shrink"),
], ids=["growing", "fixed"])
def test_direct_check_validates_a_custom_family(family, message):
    with pytest.raises(InvalidFamilyError, match=message):
        oc.direct_oc_check(chi(H, 0.0, 1.0), CES2, family=family)


def test_direct_check_decides_along_a_custom_family():
    # C chi[0,1/n) has the squared L2 norm 2/n, and chi[0,1) vanishes on
    # [n, inf): the restrictions vanish
    head_and_tail = lambda n: pw.MeasurableSet.from_intervals(
        H, [(0.0, 1.0 / n), (n, INF)])
    rep = oc.direct_oc_check(chi(H, 0.0, 1.0), CES2, family=head_and_tail)
    assert (rep.decision, rep.family) == (True, "custom")
    # the average of 1 restricted to [n, inf) tends to 1 at infinity
    tail = lambda n: pw.MeasurableSet.from_intervals(H, [(n, INF)])
    rep = oc.direct_oc_check(chi(H, 0.0, INF), CESINF, family=tail)
    assert (rep.decision, rep.family) == (False, "custom")


def test_default_null_family_shrinks_to_nothing():
    # the tail leg keeps the raw measure infinite on the half-line, so
    # shrinkage is measured inside a fixed finite window
    f = chi(H, 0.0, 2.0)
    fam = oc.default_null_family(f)
    window = pw.MeasurableSet.from_intervals(H, [(0.0, 1024.0)])
    m_large = fam(4.0).intersect(window).measure()
    m_small = fam(4096.0).intersect(window).measure()
    assert m_small <= m_large
    assert m_small < 1e-3


def test_adversarial_search_finds_witness_for_bad_point():
    rep = oc.adversarial_family_search(chi(H, 0.0, 1.0), CESINF,
                                       budget=40, seed=3)
    assert rep.found
    assert rep.witness is not None


def test_adversarial_search_respects_good_point():
    rep = oc.adversarial_family_search(chi(H, 0.0, 1.0), CES2,
                                       budget=40, seed=3)
    assert not rep.found
    assert rep.families_tried > 0


ATOM_WEIGHT_CASES = [
    (family, phi, rule, keys)
    for family in ("lorentz", "marcinkiewicz")
    for phi, rule, keys in (
        (cat.sqrt_plus_atom_phi, "atom-unbounded",
         ["truncation_core", "vanishing_average_at_zero"]),
        (cat.atom_phi, "atom-bounded",
         ["vanishing_average_at_infinity", "vanishing_average_at_zero"]))]


@pytest.mark.parametrize("family,phi,rule,keys", ATOM_WEIGHT_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in ATOM_WEIGHT_CASES])
def test_atom_weight_rules_per_family(family, phi, rule, keys):
    # Lorentz and Marcinkiewicz weights with a jump at zero share one rule
    # pair; each family keeps its own rule ids
    base = getattr(sp, f"{family}_space")(phi(H))
    CX = sp.cesaro_space(base)
    head = oc.oc_point_closed_form(chi(H, 0.0, 1.0), CX)
    interior = oc.oc_point_closed_form(chi(H, 1.0, 2.0), CX)
    assert (head.verdict, interior.verdict) == ("not-OC", "OC")
    for v in (head, interior):
        assert v.rule == f"averaged-{family}/{rule}"
        assert sorted(v.evidence) == keys


_ONE_H = pw.step_function(H, [(0.0, INF, 1.0)])
_ONE_U = pw.step_function(U, [(0.0, 1.0, 1.0)])
_LORENTZ_BOUNDED = sp.cesaro_space(sp.lorentz_space(cat.bounded_sqrt_phi(H)))
_MARCINKIEWICZ_BOUNDED = sp.cesaro_space(
    sp.marcinkiewicz_space(cat.bounded_sqrt_phi(H)))
_SUM_U = sp.cesaro_space(sp.l1_plus_linf(U))
_CAP_U = sp.cesaro_space(sp.l1_cap_linf(U))

POINT_RULE_CASES = [
    (chi(H, 0.0, 1.0), _LORENTZ_BOUNDED, "OC",
     "averaged-lorentz/bounded-weight", {"rearranged_tail_value": 0.0}),
    (_ONE_H, _LORENTZ_BOUNDED, "not-OC",
     "averaged-lorentz/bounded-weight", {"rearranged_tail_value": 1.0}),
    # min(sqrt(t), 1) has lower dilation index 2
    (chi(H, 0.0, 1.0), _MARCINKIEWICZ_BOUNDED, "OC",
     "averaged-marcinkiewicz/vanishing-peak", {"peak_limits_exact": True}),
    (_ONE_H, _MARCINKIEWICZ_BOUNDED, "not-OC",
     "averaged-marcinkiewicz/vanishing-peak", {"peak_limits_exact": True}),
    (_ONE_U, _SUM_U, "OC", "averaged-sum-space/all-points", {}),
    (chi(U, 0.5, 1.0), _CAP_U, "OC", "averaged-power/vanishing-average",
     {"vanishing_average_at_zero": True}),
    (_ONE_U, _CAP_U, "not-OC", "averaged-power/vanishing-average",
     {"vanishing_average_at_zero": False}),
]


@pytest.mark.parametrize(
    "f,CX,verdict,rule,evidence", POINT_RULE_CASES,
    ids=[f"{c[3]}-{c[2]}" for c in POINT_RULE_CASES])
def test_closed_form_point_rules(f, CX, verdict, rule, evidence):
    v = oc.oc_point_closed_form(f, CX)
    assert (v.verdict, v.rule, v.evidence) == (verdict, rule, evidence)


_LATE_PEAK = pw.make_ppl(H, [(0.0, 4.0, {(-0.405, 2): -2.33})])
_LATE_PEAK_SPACE = sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H)))


def test_vanishing_peak_that_rises_until_far_below_one():
    # the peak ~ t**0.095 ln(t)**2 rises until t ~ e**-21 before it
    # vanishes; the theorem route reads the same germs
    v = oc.oc_point_closed_form(_LATE_PEAK, _LATE_PEAK_SPACE)
    assert (v.verdict, v.rule, v.evidence) == (
        "OC", "averaged-marcinkiewicz/vanishing-peak",
        {"peak_limits_exact": True})
    theorem = oc.oc_point(_LATE_PEAK, _LATE_PEAK_SPACE, method="theorem")
    assert (theorem.verdict, theorem.rule) == ("OC", "transform-image-of-core")


@pytest.mark.xfail(strict=True, reason=(
    "the direct route reads the plateau of the late peak as not-OC, so the "
    "routes conflict (ROADMAP item 1: routes that cannot disagree)"))
def test_all_routes_agree_on_the_late_peak():
    combined = oc.oc_point(_LATE_PEAK, _LATE_PEAK_SPACE, method="all")
    assert (combined.verdict, combined.rule) == (
        "OC", "averaged-marcinkiewicz/vanishing-peak")


@pytest.mark.xfail(strict=True, reason=(
    "the direct route reads the nearly flat head norms of ln(t)**6 "
    "(42179.26 ... 42142.80) as staying away, so it says not-OC and the "
    "routes conflict (ROADMAP item 1: routes that cannot disagree)"))
def test_all_routes_agree_on_a_sixth_power_of_a_log_at_zero():
    # at ln(t)**5 the direct route says inconclusive
    f = pw.make_ppl(H, [(0.0, 0.5, {(0.0, 6): 1.0})])
    combined = oc.oc_point(f, sp.cesaro_space(sp.lebesgue(2.0, H)),
                           method="all")
    assert (combined.verdict, combined.rule) == (
        "OC", "averaged-power/all-points")


def _tail(lo, alpha, coeff=1.0, logpow=0):
    return pw.power_piece(H, lo, INF, coeff, alpha, logpow)


PEAK_LIMIT_CASES = [
    ("zero-mass", pw.zero(H), "sqrt", 0.0),
    ("finite-mass", chi(H, 0.0, 1.0), "sqrt", 0.0),
    ("finite-mass-linear-phi", chi(H, 0.0, 1.0), "linear", 1.0),
    # phi*Q/t ~ t**-0.5 * ln t, with Q the integral of |g|
    ("inverse-tail", _tail(1.0, -1.0), "sqrt", 0.0),
    ("negative-tail", _tail(1.0, -1.0, coeff=-1.0), "sqrt", 0.0),
    # phi*Q/t -> 2
    ("inverse-sqrt-tail", _tail(1.0, -0.5), "sqrt", 2.0),
    ("negative-inverse-sqrt-tail", _tail(1.0, -0.5, coeff=-1.0), "sqrt", 2.0),
    # phi*Q/t ~ t**0.5
    ("constant-tail", _tail(1.0, 0.0), "sqrt", INF),
    # one piece from 0 to inf: its germ alone decides, with no value at 0
    ("constant-from-zero", _tail(0.0, 0.0), "sqrt", INF),
    # the rows below are outside the space, so no limit is asked of them
    ("growing-tail", _tail(1.0, 1.0), "sqrt", None),
    ("log-growing-tail", _tail(1.0, 0.0, logpow=1), "sqrt", None),
    ("divergent-mass-bounded-support", pw.power_piece(H, 0.0, 1.0, 1.0, -1.0),
     "sqrt", None),
    # the mass diverges at zero, so the integral of g* is infinite at
    # every t, whatever the integrable tail does
    ("divergent-head-integrable-tail",
     pw.make_ppl(H, [(0.0, 1.0, {(-1.0, 0): 1.0}),
                     (1.0, INF, {(-2.0, 0): 1.0})]), "sqrt", None),
]


@pytest.mark.parametrize("g,phi,want", [c[1:] for c in PEAK_LIMIT_CASES],
                         ids=[c[0] for c in PEAK_LIMIT_CASES])
def test_peak_limit_at_infinity(g, phi, want):
    spec = cat.sqrt_phi(H) if phi == "sqrt" else _unit_slope(H)
    if want is None:
        assert nm.in_space(g, sp.marcinkiewicz_space(spec)) is False
    else:
        assert nm.peak_limits(g, spec)[1] == want


# ---------------------------------------------------------------------------
# space verdicts


def _unit_slope(domain):
    return sp.QuasiConcaveSpec(pw.power_piece(domain, 0.0, domain.end, 1.0, 1.0))


def _flagless_square():
    return sp.OrliczFunctionSpec(cat.orlicz_square().phi)


def test_doubling_is_read_off_the_generator():
    assert [(s.delta2_zero, s.delta2_infty, s.delta2_all) for s in (
        _flagless_square(), cat.orlicz_square_capped(),
        cat.orlicz_flat_capped(), SHIFTED_SQUARE)] == [
        (True, True, True), (True, False, False), (True, False, False),
        (True, True, False)]


SYMMETRIC_SPACE_CASES = [
    (sp.lebesgue(2.0, H), "OC", "power-space", {"p": 2.0}),
    (sp.lebesgue_inf(H), "not-OC", "essential-sup", {}),
    (sp.lorentz_space(cat.sqrt_phi(H)), "OC", "lorentz-continuity", {}),
    (sp.marcinkiewicz_space(cat.sqrt_phi(H)), "not-OC",
     "marcinkiewicz-extremal", {"lower_index": 2.0}),
    (sp.lorentz_space(cat.sqrt_plus_atom_phi(U)), "not-OC", "fundamental-atom",
     {"atom_at_zero": 1.0}),
    (sp.orlicz_space(cat.orlicz_square(), H), "OC", "orlicz-doubling",
     {"doubling": True, "scope": "global"}),
    (sp.l1_cap_linf(H), "not-OC", "intersection-space", {}),
    (sp.l1_plus_linf(U), "OC", "sum-space",
     {"note": "coincides with the integrable class"}),
    (sp.l1_plus_linf(H), "not-OC", "sum-space", {}),
    (sp.marcinkiewicz_space(_unit_slope(U)), "OC", "weighted-l1-identity",
     {"note": "the weak space collapses to the integrable class"}),
    (sp.marcinkiewicz_space(cat.atom_phi(H)), "not-OC", "fundamental-atom",
     {"atom_at_zero": 1.0}),
    (sp.marcinkiewicz_space(cat.bounded_sqrt_phi(H)), "not-OC",
     "marcinkiewicz-extremal", {"lower_index": 2.0}),
    (sp.marcinkiewicz_space(sp.QuasiConcaveSpec(pw.make_ppl(H, [
        (0.0, 1.0, {(1.0, 0): 1.0}), (1.0, INF, {(0.5, 0): 1.0})]))),
     "inconclusive", "marcinkiewicz-extremal",
     {"lower_index": 1.0,
      "note": "the rule needs a lower dilation index above 1"}),
    # no declared flag: Phi = u**2 is doubling, and the space is L2
    (sp.orlicz_space(_flagless_square(), U), "OC",
     "orlicz-doubling", {"doubling": True, "scope": "large-argument"}),
    (sp.orlicz_space(_flagless_square(), H), "OC",
     "orlicz-doubling", {"doubling": True, "scope": "global"}),
    (sp.orlicz_space(SHIFTED_SQUARE, H), "not-OC",
     "orlicz-doubling", {"doubling": False, "scope": "global"}),
    (sp.orlicz_space(SHIFTED_SQUARE, U), "OC",
     "orlicz-doubling", {"doubling": True, "scope": "large-argument"}),
]


def test_symmetric_space_verdicts():
    for X, verdict, rule, evidence in SYMMETRIC_SPACE_CASES:
        v = oc.oc_space(X)
        assert (v.verdict, v.rule, v.evidence) == (verdict, rule, evidence), \
            X.describe()


AVERAGED_SPACE_CASES = [
    (CES2, "OC", "averaged-power/space", {"p": 2.0}),
    (CESINF, "not-OC", "averaged-power/space", {"p": "inf"}),
    (sp.cesaro_space(sp.lebesgue(1.0, H)), "trivial-space",
     "trivial-space/tail-membership", {"domain": "halfline"}),
    (sp.cesaro_space(sp.lebesgue(1.0, U)), "OC", "weighted-l1-identity",
     {"note": "unit-interval average with the log weight"}),
    (sp.cesaro_space(sp.l1_plus_linf(U)), "OC", "averaged-sum-space/space", {}),
    (sp.cesaro_space(sp.l1_plus_linf(H)), "not-OC", "averaged-sum-space/space",
     {"witness": "constant functions keep a tail average"}),
    (sp.cesaro_space(sp.marcinkiewicz_space(_unit_slope(U))), "OC",
     "weighted-l1-identity", {}),
    # Marcinkiewicz with phi(t) = t is L1 again, and 1/x on [1, inf) is not
    # integrable
    (sp.cesaro_space(sp.marcinkiewicz_space(_unit_slope(H))), "trivial-space",
     "trivial-space/tail-membership", {"domain": "halfline"}),
    (sp.cesaro_space(sp.marcinkiewicz_space(cat.atom_phi(H))), "not-OC",
     "averaged-marcinkiewicz/space", {"atom_at_zero": 1.0}),
    # sqrt(t) declares no index: it is read off phi
    (sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H))),
     "not-OC", "averaged-marcinkiewicz/space", {"lower_index": 2.0}),
    (sp.cesaro_space(sp.marcinkiewicz_space(cat.bounded_sqrt_phi(H))),
     "not-OC", "averaged-marcinkiewicz/space", {"lower_index": 2.0}),
    (sp.cesaro_space(sp.orlicz_space(_flagless_square(), U)), "OC",
     "averaged-orlicz/space", {"doubling": True}),
    (sp.cesaro_space(sp.orlicz_space(_flagless_square(), H)), "OC",
     "averaged-orlicz/space", {"doubling": True}),
    (sp.cesaro_space(sp.orlicz_space(SHIFTED_SQUARE, H)), "not-OC",
     "averaged-orlicz/space", {"doubling": False, "lower_index": 2.0}),
]


def test_averaged_space_verdicts():
    for CX, verdict, rule, evidence in AVERAGED_SPACE_CASES:
        v = oc.oc_space(CX)
        assert (v.verdict, v.rule, v.evidence) == (verdict, rule, evidence), \
            CX.describe()


@st.composite
def _generators(draw):
    """u**n, u**n + u**m, (u - z)_+**n (zero bound z) or u**n capped at b;
    z is a binary fraction, so (u - z)**n expanded reads 0 at u = z."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["power", "two-powers", "shifted", "capped"]))
    if kind == "power":
        return sp.OrliczFunctionSpec(pw.power_piece(H, 0.0, INF, 1.0, n))
    if kind == "two-powers":
        m = draw(st.integers(1, 4))
        return sp.OrliczFunctionSpec(
            pw.make_ppl(H, [(0.0, INF, {(float(n), 0): 1.0,
                                        (float(m), 0): 1.0})]))
    if kind == "shifted":
        z = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        terms = {(float(j), 0): math.comb(n, j) * (-z) ** (n - j)
                 for j in range(n + 1)}
        return sp.OrliczFunctionSpec(pw.make_ppl(H, [(z, INF, terms)]),
                                     zero_bound=z)
    b = draw(st.sampled_from([0.5, 1.0, 4.0]))
    return sp.OrliczFunctionSpec(pw.power_piece(H, 0.0, b, 1.0, n),
                                 finite_bound=b)


@pytest.mark.parametrize("domain", [H, U], ids=["halfline", "unit"])
@given(spec=_generators())
@settings(max_examples=40, deadline=None)
def test_boundedness_transfers_continuity_for_generated_generators(domain,
                                                                   spec):
    # criterion 10 on generators beyond the catalog: with no declared
    # doubling flag, wherever averaging is bounded the base space, its
    # averaged space and the transfer route give one definite verdict
    X = sp.orlicz_space(spec, domain)
    if not nm.cesaro_bounded(X).bounded:
        return
    CX = sp.cesaro_space(X)
    verdicts = [oc.oc_space(X), oc.oc_space(CX), oc.oc_space_via_transfer(CX)]
    assert all(v.is_oc is not None for v in verdicts), verdicts
    assert len({v.is_oc for v in verdicts}) == 1, verdicts


# ---------------------------------------------------------------------------
# point witnesses for averaged spaces the family rules leave open


def _linear_then_power(a: float, c: float = 0.0, d: float = 0.0):
    """phi = t*(1 - c*ln t) on [0, 1), then t**a*(1 + d*ln t): exponent 1
    at 0, so the lower dilation index is 1; quasi-concave for c <= 1 and
    d <= 1 - a."""
    return sp.QuasiConcaveSpec(pw.make_ppl(H, [
        (0.0, 1.0, {(1.0, 0): 1.0, (1.0, 1): -c}),
        (1.0, INF, {(a, 0): 1.0, (a, 1): d})]))


def _linear_log(c: float):
    """phi = t*(1 - c*ln t) on the unit interval."""
    return sp.QuasiConcaveSpec(
        pw.make_ppl(U, [(0.0, 1.0, {(1.0, 0): 1.0, (1.0, 1): -c})]))


# (u - 1)_+, which vanishes below its zero bound 1 and grows like u**1
SHIFTED_LINEAR = sp.OrliczFunctionSpec(
    pw.make_ppl(H, [(1.0, INF, {(1.0, 0): 1.0, (0.0, 0): -1.0})]),
    zero_bound=1.0)


def _assert_certified(CX, v):
    f = dc.function_from_doc(v.evidence["witness"])
    assert nm.in_space(f, CX)
    routes = [oc.oc_point_closed_form(f, CX),
              oc.oc_point_via_characterization(f, CX)]
    assert [r.verdict for r in routes] == ["not-OC", "not-OC"], routes
    assert v.evidence["point_rules"] == [r.rule for r in routes]


@pytest.mark.parametrize("CX,family_rule,witness", [
    # the constant 1 has norm 1: Phi(1/lam) = 0 for lam >= 1
    (sp.cesaro_space(sp.orlicz_space(SHIFTED_LINEAR, H)),
     "averaged-orlicz/space", pw.step_function(H, [(0.0, INF, 1.0)])),
    # phi = t on [0, 1], sqrt(t) after: t**-1/2 on [1, inf) has norm 4
    (sp.cesaro_space(sp.marcinkiewicz_space(_linear_then_power(0.5))),
     "averaged-marcinkiewicz/space", pw.power_piece(H, 1.0, INF, 1.0, -0.5)),
], ids=["orlicz-zero-bound", "marcinkiewicz-linear-then-sqrt"])
def test_a_point_witness_certifies_an_open_space_not_oc(CX, family_rule,
                                                        witness):
    v = oc.oc_space(CX)
    assert (v.verdict, v.rule) == ("not-OC", "point-witness/space")
    assert v.evidence["family_rule"] == family_rule
    assert v.evidence["witness"] == dc.function_to_doc(witness)
    _assert_certified(CX, v)
    assert oc.oc_point(witness, CX, "direct").verdict == "not-OC"


def test_a_space_with_no_witness_stays_inconclusive():
    # phi = t*(1 - ln t) on [0, 1]: the constant 1 is an OC point, and
    # t**-1 on [0, 1/2) is not in the space; the paper leaves this open
    v = oc.oc_space(sp.cesaro_space(sp.marcinkiewicz_space(_linear_log(1.0))))
    assert (v.verdict, v.rule, v.evidence) == (
        "inconclusive", "averaged-marcinkiewicz/space", {})


@pytest.mark.parametrize("a", [0.3, 0.1])
def test_an_average_keeps_the_exponent_of_its_integrand(a):
    # phi = t on [0, 1], t**a after, and f = t**-a on [1, inf): C f and
    # f** decay like t**-a, and phi*(C f)** tends to 1/(1 - a)**2.  With
    # the exponent of C f formed as (a + 1) - 1, an ulp off -a, the
    # closed-form and theorem routes read 0 at a = 0.3 and said OC against
    # the direct route, and at a = 0.1 the norm read inf
    CX = sp.cesaro_space(sp.marcinkiewicz_space(_linear_then_power(a)))
    f = pw.power_piece(H, 1.0, INF, 1.0, -a)
    assert nm.in_space(f, CX)
    assert nm.norm(f, CX).value == pytest.approx(1.0 / (1.0 - a) ** 2,
                                                 rel=1e-14)
    v = oc.oc_point(f, CX, "all")
    assert v.verdict == "not-OC"
    assert [verdict for _rule, verdict in v.evidence["verdicts"]] == \
        ["not-OC"] * 3
    space = oc.oc_space(CX)
    assert (space.verdict, space.rule) == ("not-OC", "point-witness/space")


@st.composite
def _open_family_spaces(draw):
    """Averaged Marcinkiewicz spaces whose phi has exponent 1 at one end,
    and averaged Orlicz spaces over the generators above."""
    kind = draw(st.sampled_from(["phi-unit", "phi-halfline", "Phi"]))
    if kind == "phi-unit":
        X = sp.marcinkiewicz_space(_linear_log(draw(st.floats(0.0, 1.0))))
    elif kind == "phi-halfline":
        a = draw(st.floats(0.0, 0.9))
        # only a pure power tail (d = 0) admits the tail candidate t**-a
        d = (1.0 - a) * draw(st.sampled_from([0.0, 0.5, 1.0]))
        X = sp.marcinkiewicz_space(_linear_then_power(
            a, draw(st.floats(0.0, 1.0)), d))
    else:
        X = sp.orlicz_space(draw(_generators()), draw(st.sampled_from([H, U])))
    return sp.cesaro_space(X)


@given(CX=_open_family_spaces())
@example(CX=sp.cesaro_space(sp.orlicz_space(SHIFTED_LINEAR, H)))
@settings(max_examples=60, deadline=None)
def test_point_witnesses_are_sound(CX):
    v = oc.oc_space(CX)
    if v.rule == "point-witness/space":
        _assert_certified(CX, v)
    elif v.verdict == "OC":
        # the exact point routes agree with the family rule: no candidate
        # is a not-OC point
        assert oc._point_witness(CX, v) is v


def test_transfer_route_matches_family_rules():
    for X in (sp.lebesgue(2.0, H), sp.lebesgue_inf(H),
              sp.lorentz_space(cat.sqrt_phi(H)),
              sp.marcinkiewicz_space(cat.bounded_sqrt_phi(H)),
              sp.l1_cap_linf(U)):
        direct = oc.oc_space(sp.cesaro_space(X))
        transfer = oc.oc_space_via_transfer(sp.cesaro_space(X))
        assert transfer.rule == "oc-transfer/bounded-averaging"
        assert transfer.is_oc == direct.is_oc


def test_transfer_abstains_without_boundedness():
    v = oc.oc_space_via_transfer(sp.cesaro_space(sp.lebesgue(1.0, H)))
    assert v.verdict == "inconclusive"


def test_transfer_rejects_symmetric_input():
    with pytest.raises(MethodInapplicableError):
        oc.oc_space_via_transfer(sp.lebesgue(2.0, H))


# ---------------------------------------------------------------------------
# core triviality


def test_core_triviality_in_unit_catalog():
    flags = {X.describe(): nm.xa_trivial(X) for X in cat.default_catalog(U)}
    assert flags["Linf[0,1]"] is True
    assert sum(1 for v in flags.values() if v) == 1


def test_core_triviality_refuses_unknown_families():
    # every known family is decided from its descriptor; anything else is
    # refused rather than sampled
    for X in (sp.SpaceDescriptor("unknown", H), CES2):
        with pytest.raises(MethodInapplicableError):
            nm.xa_trivial(X)


# 1/log and 1/log log tend to 0, but too slowly for any sample to show it
# below EPS_LIMIT: the sampled decision must refuse rather than guess
SLOW_DECAY = {
    "1/log": lambda x: 1.0 / math.log(x + math.e),
    "1/loglog": lambda x: 1.0 / math.log(math.log(x + math.e) + math.e),
}


@pytest.mark.parametrize("name", sorted(SLOW_DECAY))
def test_vanishing_sequence_refuses_slow_decay(name):
    decision, vals = oc.vanishing_sequence(SLOW_DECAY[name])
    assert decision is None
    assert min(vals) > oc.EPS_LIMIT
