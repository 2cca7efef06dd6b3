"""Order-continuity verdicts: rules, direct checks, adversarial search."""

from __future__ import annotations

import math

import pytest

from cesarospaces import catalog as cat
from cesarospaces import cesaro as cz
from cesarospaces import norms as nm
from cesarospaces import oc
from cesarospaces import piecewise as pw
from cesarospaces import spaces as sp
from cesarospaces.errors import MethodInapplicableError, NotInSpaceError
from cesarospaces.piecewise import INF
from support import HALFLINE as H, UNIT as U, chi

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


def test_constants_in_space_asks_the_membership_rule(monkeypatch):
    def no_norm(*args):
        raise AssertionError("a norm was computed")

    monkeypatch.setattr(nm, "norm", no_norm)
    assert oc._constants_in_space(sp.l1_plus_linf(H)) is True
    assert oc._constants_in_space(sp.lebesgue(2.0, H)) is False
    assert oc._constants_in_space(
        sp.marcinkiewicz_space(cat.bounded_sqrt_phi(H))) is True


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
    # u**2 is decided by one finiteness check of ||C|f| ||_2, u**2 + u**3 by
    # the modular at every scale; both report the same evidence
    CX = sp.cesaro_space(sp.orlicz_space(spec, H))
    v = oc.oc_point_closed_form(pw.power_piece(H, 0.0, 1.0, 1.0, -0.25), CX)
    assert (v.verdict, v.rule, v.evidence) == (
        "OC", "averaged-orlicz/unbounded-generator",
        {"scales_tested": 21, "first_failing_scale": None})


def test_capped_generator_builds_one_transform_per_horizon(monkeypatch):
    # 3 chi_(0,1) needs horizons 1 and 2 at each of the 21 scales: two
    # transforms for them, plus the averaged modulus and the membership
    # norm; rebuilt per scale it would be 44
    CX = sp.cesaro_space(sp.orlicz_space(cat.orlicz_square_capped(), H))
    calls = []
    original = cz.cesaro_transform

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(cz, "cesaro_transform", counted)
    v = oc.oc_point_closed_form(pw.scale(chi(H, 0.0, 1.0), 3.0), CX)
    assert (v.verdict, v.rule, v.evidence) == (
        "not-OC", "averaged-orlicz/capped-generator",
        {"first_failing_scale": None, "vanishing_average_at_zero": False})
    assert len(calls) == 4


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


# ---------------------------------------------------------------------------
# direct definition-level machinery


def test_direct_check_on_continuous_point():
    rep = oc.direct_oc_check(chi(H, 1.0, 2.0), CESINF)
    assert rep.decision is True
    assert rep.norms[-1] < 1e-6


def test_direct_check_on_discontinuous_point():
    rep = oc.direct_oc_check(chi(H, 0.0, 1.0), CESINF)
    assert rep.decision is False


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
         ["excess_norms", "tail_norms", "vanishing_average_at_zero"]),
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


def _tail(lo, alpha, coeff=1.0, logpow=0):
    return pw.power_piece(H, lo, INF, coeff, alpha, logpow)


PEAK_LIMIT_CASES = [
    ("zero-mass", pw.zero(H), "sqrt", True),
    ("finite-mass", chi(H, 0.0, 1.0), "sqrt", True),
    ("finite-mass-linear-phi", chi(H, 0.0, 1.0), "linear", False),
    # phi*Q/t ~ t**-0.5 * ln t
    ("inverse-tail", _tail(1.0, -1.0), "sqrt", True),
    # phi*Q/t -> 2
    ("inverse-sqrt-tail", _tail(1.0, -0.5), "sqrt", False),
    # phi*Q/t ~ t**0.5
    ("constant-tail", _tail(1.0, 0.0), "sqrt", False),
    # one piece from 0 to inf: its germ alone decides, with no value at 0
    ("constant-from-zero", _tail(0.0, 0.0), "sqrt", False),
    ("negative-tail", _tail(1.0, -1.0, coeff=-1.0), "sqrt", None),
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
    assert oc._peak_limit_at_infinity(g, spec) is want


# ---------------------------------------------------------------------------
# space verdicts


def _unit_slope(domain):
    return sp.QuasiConcaveSpec(pw.power_piece(domain, 0.0, domain.end, 1.0, 1.0))


def _flagless_square():
    return sp.OrliczFunctionSpec(cat.orlicz_square().phi)


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
    (sp.orlicz_space(_flagless_square(), U), "inconclusive",
     "orlicz-doubling", {"doubling": None, "scope": "large-argument"}),
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
    (sp.cesaro_space(sp.orlicz_space(_flagless_square(), U)), "inconclusive",
     "averaged-orlicz/space", {"doubling": None}),
]


def test_averaged_space_verdicts():
    for CX, verdict, rule, evidence in AVERAGED_SPACE_CASES:
        v = oc.oc_space(CX)
        assert (v.verdict, v.rule, v.evidence) == (verdict, rule, evidence), \
            CX.describe()


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
    flags = {X.describe(): oc.xa_trivial(X) for X in cat.default_catalog(U)}
    assert flags["Linf[0,1]"] is True
    assert sum(1 for v in flags.values() if v) == 1


def test_core_triviality_refuses_unknown_families():
    # every known family is decided from its descriptor; anything else is
    # refused rather than sampled
    for X in (sp.SpaceDescriptor("unknown", H), CES2):
        with pytest.raises(MethodInapplicableError):
            oc.xa_trivial(X)


def test_limit_estimate_on_simple_sequences():
    est = oc.limit_estimate(lambda n: 1.0 / n, "inf")
    assert est.tends_to_zero is True
    est = oc.limit_estimate(lambda n: 1.0 + 1.0 / n, "inf")
    assert est.tends_to_zero is False
    est = oc.limit_estimate(lambda t: t, "zero")
    assert est.tends_to_zero is True


# 1/log and 1/log log tend to 0, but too slowly for any sample to show it
# below EPS_LIMIT: the sampled decisions must refuse rather than guess
SLOW_DECAY = {
    "1/log": lambda x: 1.0 / math.log(x + math.e),
    "1/loglog": lambda x: 1.0 / math.log(math.log(x + math.e) + math.e),
}


@pytest.mark.parametrize("name", sorted(SLOW_DECAY))
def test_vanishing_sequence_refuses_slow_decay(name):
    decision, vals = oc.vanishing_sequence(SLOW_DECAY[name])
    assert decision is None
    assert min(vals) > oc.EPS_LIMIT


@pytest.mark.parametrize("name", sorted(SLOW_DECAY))
def test_limit_estimate_refuses_slow_decay_at_both_ends(name):
    fn = SLOW_DECAY[name]
    at_inf = oc.limit_estimate(fn, "inf")
    at_zero = oc.limit_estimate(lambda t: fn(1.0 / t), "zero")
    assert at_inf.tends_to_zero is None and at_inf.value is None
    assert at_zero.tends_to_zero is None and at_zero.value is None
