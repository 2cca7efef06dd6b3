"""Norm computations across the space catalog, plus operator diagnostics."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cesarospaces import catalog as cat
from cesarospaces import cesaro as cz
from cesarospaces import norms as nm
from cesarospaces import oc
from cesarospaces import piecewise as pw
from cesarospaces import rearrange as rr
from cesarospaces import spaces as sp
from cesarospaces.errors import (MethodInapplicableError, NotInSpaceError,
                                 RepresentationError, ValidationError)
from cesarospaces.piecewise import INF
from support import (HALFLINE as H, SHIFTED_SQUARE, UNIT as U, chi,
                     excess_over, marcinkiewicz_grid_reference,
                     nonzero_step_functions, power_log_pieces, step_functions,
                     tail_test_point, truncation_core_membership,
                     two_power_log_pieces)

L1 = sp.lebesgue(1.0, H)
L2 = sp.lebesgue(2.0, H)
LINF = sp.lebesgue_inf(H)


# ---------------------------------------------------------------------------
# power norms


def test_lp_norm_of_indicator():
    f = chi(H, 0.0, 2.0)
    assert nm.norm(f, L1).value == pytest.approx(2.0, abs=1e-15)
    assert nm.norm(f, L2).value == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert nm.norm(f, L2).method == "exact"


def test_lp_norm_of_power_function():
    f = pw.power_piece(H, 0.0, 1.0, 1.0, -0.25)
    # integral of t**(-p/4) over (0,1) is 4/(4-p) for p < 4
    assert nm.norm(f, L2).value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert math.isinf(nm.norm(f, sp.lebesgue(4.0, H)).value)


def test_linf_norm_is_essential_sup():
    f = pw.step_function(H, [(0.0, 1.0, -3.0), (1.0, 2.0, 1.0)])
    assert nm.norm(f, LINF).value == 3.0


def test_zero_function_has_zero_norm_everywhere():
    z = pw.zero(H)
    for X in cat.default_catalog(H):
        assert nm.norm(z, X).value == 0.0


def test_lp_norm_of_cancelling_exact_integral_is_real():
    # C chi_[a,1) is 1 - a/t on [a, 1) and (1-a)/t beyond; for a this close
    # to 1 the exact integral of its fourth power cancels to about -9e-16
    a = 0.9999208231417833
    res = nm.norm(chi(H, a, 1.0), sp.cesaro_space(sp.lebesgue(4.0, H)))
    assert isinstance(res.value, float)
    assert res.value == 0.0
    # the true norm, (1 - a) * (1/3 + O(1-a)) ** 0.25, sits inside the bound
    assert (1.0 - a) * 3.0 ** -0.25 <= res.error_bound < 1e-2


def test_adversarial_search_on_head_indicator_in_averaged_l4():
    e = next(e for e in cat.default_battery()
             if e.label == "ces4-h head indicator")
    report = oc.adversarial_family_search(e.f, e.space, budget=3, seed=1)
    assert report.found is False


def test_lp_norm_refuses_a_negative_integral_beyond_rounding(monkeypatch):
    monkeypatch.setattr(pw, "_piece_integral", lambda tm, p, q: -1e-3)
    with pytest.raises(RepresentationError):
        nm.norm(chi(H, 0.0, 1.0), L2)


# |ln t|**3 on [0, 1/2], from -ln t cubed (exact) and from ln(t)**2 to the
# power 1.5 (quadrature: the sign of ln t is not read off the term map);
# both came out as the negative integral of ln(t)**3.  The integral is
# Gamma(4, ln 2) = (ln2**3 + 3*ln2**2 + 6*ln2 + 6)/2
@pytest.mark.parametrize("tm, p, method", [({(0.0, 1): -1.0}, 3.0, "exact"),
                                           ({(0.0, 2): 1.0}, 1.5, "quadrature")])
def test_lp_norm_of_an_odd_power_of_a_log_below_one(tm, p, method):
    f = pw.make_ppl(H, [(0.0, 0.5, tm)])
    ln2 = math.log(2.0)
    integral = (ln2 ** 3 + 3.0 * ln2 ** 2 + 6.0 * ln2 + 6.0) / 2.0
    res = nm.norm(f, sp.lebesgue(p, H))
    assert res.method == method
    assert res.value == pytest.approx(integral ** (1.0 / p), rel=1e-12)


# ---------------------------------------------------------------------------
# intersection and sum


def test_intersection_norm_is_max():
    f = chi(H, 0.0, 3.0)
    assert nm.norm(f, sp.l1_cap_linf(H)).value == 3.0
    g = pw.scale(chi(H, 0.0, 0.25), 2.0)
    assert nm.norm(g, sp.l1_cap_linf(H)).value == 2.0


def test_sum_norm_integrates_rearrangement_head():
    # the sum-space norm is the integral of f* over (0, 1)
    f = pw.scale(chi(H, 0.0, 0.5), 4.0)
    assert nm.norm(f, sp.l1_plus_linf(H)).value == pytest.approx(2.0, abs=1e-12)
    c = pw.step_function(H, [(0.0, INF, 1.0)])
    assert nm.norm(c, sp.l1_plus_linf(H)).value == pytest.approx(1.0, abs=1e-12)


def test_sum_norm_on_spread_out_mass():
    # f* = chi_(0,2): head integral picks up only the first unit
    f = chi(H, 5.0, 7.0)
    assert nm.norm(f, sp.l1_plus_linf(H)).value == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Orlicz


def test_orlicz_square_matches_l2():
    X = sp.orlicz_space(cat.orlicz_square(), H)
    for f in (chi(H, 0.0, 4.0),
              pw.step_function(H, [(0.0, 1.0, 2.0), (3.0, 5.0, 0.5)]),
              pw.power_piece(H, 0.0, 1.0, 1.0, -0.25)):
        lux = nm.norm(f, X)
        assert lux.value == pytest.approx(nm.norm(f, L2).value, rel=1e-9)


def test_orlicz_capped_norm_tracks_sup_for_small_support():
    X = sp.orlicz_space(cat.orlicz_square_capped(), H)
    f = pw.scale(chi(H, 0.0, 1.0), 3.0)
    # modular jumps to +inf as soon as |f|/lam exceeds the cap at 1
    assert nm.norm(f, X).value == pytest.approx(3.0, rel=1e-9)


def test_orlicz_capped_norm_keeps_integral_term_for_large_support():
    X = sp.orlicz_space(cat.orlicz_square_capped(), H)
    f = chi(H, 0.0, 9.0)
    # lam must satisfy 9 / lam**2 <= 1 once the cap is respected
    assert nm.norm(f, X).value == pytest.approx(3.0, rel=1e-9)


def test_orlicz_degenerate_generator_ignores_low_values():
    X = sp.orlicz_space(cat.orlicz_flat_capped(), H)
    f = pw.scale(chi(H, 0.0, 2.0), 0.25)
    # modular(lam) = 2 * (0.5/lam - 1) once 0.25/lam passes 1/2, so the
    # smallest admissible lam solves 2 * (0.5/lam - 1) = 1
    assert nm.norm(f, X).value == pytest.approx(1.0 / 3.0, rel=1e-9)
    # far below the dead zone the modular is identically zero
    tiny = pw.scale(chi(H, 0.0, 2.0), 1e-6)
    assert nm.norm(tiny, X).value < 1e-5


def test_orlicz_exact_path_used_for_power_functions():
    X = sp.orlicz_space(cat.orlicz_square(), H)
    f = pw.power_piece(H, 0.0, 1.0, 1.0, -0.25)
    res = nm.norm(f, X)
    assert res.method == "exact"


def _count_calls(monkeypatch, module, name) -> list:
    calls: list = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_marcinkiewicz_sup_search_measures_each_level_once(monkeypatch):
    # the running average of 2*t**0.5*ln(t)**2 on [0, 0.5] has no exact
    # rearrangement; the search samples levels, not points t, so no level
    # is measured twice and no rearrangement is inverted by bisection (the
    # old t-grid search took 4,355 distribution evaluations here)
    X = sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H)))
    f = pw.make_ppl(H, [(0.0, 0.5, {(0.5, 2): 2.0})])
    bisections = _count_calls(monkeypatch, rr, "_measure_above")
    samples = _count_calls(monkeypatch, rr, "_level_mass")
    res = nm.norm(f, X)
    assert res.method == "sup-search"
    levels = [lam for _segs, lam in samples]
    assert 0 < len(levels) == len(set(levels)) <= 100
    assert not bisections


def test_a_norm_and_a_rearrangement_split_each_modulus_once(monkeypatch):
    # the norm in averaged Lorentz splits |C|f||; the rearrangement reads
    # sup |f|, its tail and whether |f| is nonincreasing off one split
    X = sp.cesaro_space(sp.lorentz_space(cat.sqrt_phi(H)))
    f = pw.make_ppl(H, [(0.0, 1.0, {(0.5, 1): -2.0}),
                        (1.0, 2.0, {(0.0, 0): 3.0})])
    splits = _count_calls(monkeypatch, pw, "monotone_segments")
    nm.norm(f, X)
    assert rr.decreasing_rearrangement(f).exact is None
    split = [g for g, in splits]
    assert len(split) == len({id(g) for g in split}) == 2
    assert all(pw.absolute(g) is g for g in split)
    assert any(g is pw.absolute(f) for g in split)


def test_luxemburg_bisection_takes_absolute_value_once(monkeypatch):
    # loose and tight tolerances differ by about 26 bisection steps; the
    # lam-free work (|f|, its sup and tail) must not follow the step count
    X = sp.orlicz_space(cat.orlicz_square(), H)
    calls = _count_calls(monkeypatch, pw, "_absolute")
    counts = []
    for k, tol in enumerate((1e-4, 1e-12)):
        monkeypatch.setattr(nm, "LUXEMBURG_REL_TOL", tol)
        f = pw.make_ppl(H, [(0.0, 1.0, {(-0.25, 0): 1.0 + k}),
                            (1.0, 2.0, {(0.0, 0): -2.0})])
        del calls[:]
        nm.norm(f, X)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 1


def test_luxemburg_bisection_on_dead_zone_generator_takes_absolute_value_once(
        monkeypatch):
    # the generator vanishes below 1/2, so it has no closed form and the
    # norm still bisects; the same count as above must hold there
    X = sp.orlicz_space(cat.orlicz_flat_capped(), H)
    calls = _count_calls(monkeypatch, pw, "_absolute")
    counts = []
    for k, tol in enumerate((1e-4, 1e-12)):
        monkeypatch.setattr(nm, "LUXEMBURG_REL_TOL", tol)
        f = pw.make_ppl(H, [(0.0, 1.0, {(0.5, 0): 1.0 + k}),
                            (1.0, 2.0, {(0.0, 0): -2.0})])
        del calls[:]
        res = nm.norm(f, X)
        counts.append(len(calls))
        assert res.error_bound > 0.0  # a bisection bracket, not a closed form
    assert counts[0] == counts[1] == 1


POWER_GENERATOR_SPACES = [sp.orlicz_space(gen(), dom)
                          for gen in (cat.orlicz_square, cat.orlicz_square_capped)
                          for dom in (H, U)]


def _assert_inside_bisection_bracket(f, X):
    res = nm.norm(f, X)
    lux = nm._luxemburg(*nm._orlicz_modular(f, X.orlicz))
    assert (res.method, res.error_bound) == ("exact", 0.0)
    assert lux.value - lux.error_bound <= res.value <= lux.value, (res, lux)


@pytest.mark.parametrize(
    "X", POWER_GENERATOR_SPACES,
    ids=["square-halfline", "square-unit", "capped-halfline", "capped-unit"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_power_generator_closed_form_inside_bisection_bracket(X, data):
    _assert_inside_bisection_bracket(
        data.draw(nonzero_step_functions(domain=X.domain)), X)


def test_power_generator_closed_form_inside_bisection_bracket_on_battery():
    checked = 0
    for e in cat.default_battery():
        X = e.space.inner
        if X is None or X.tag != "orlicz" \
                or nm._power_generator(X.orlicz) is None:
            continue
        _assert_inside_bisection_bracket(
            cz.cesaro_transform(pw.absolute(e.f)), X)
        checked += 1
    assert checked == 6


def test_generators_off_the_closed_form():
    # a positive zero bound, two monomials and a fractional power all keep
    # the bisection
    two_terms = pw.make_ppl(H, [(0.0, INF, {(2.0, 0): 1.0, (3.0, 0): 1.0})])
    fractional = pw.make_ppl(H, [(0.0, INF, {(1.5, 0): 1.0})])
    for spec in (cat.orlicz_flat_capped(), sp.OrliczFunctionSpec(two_terms),
                 sp.OrliczFunctionSpec(fractional)):
        assert nm._power_generator(spec) is None
    assert nm._power_generator(cat.orlicz_square()) == (1.0, 2)
    assert nm._power_generator(cat.orlicz_square_capped()) == (1.0, 2)


@pytest.mark.parametrize("s", [1e31, 1e-31, 1e300, 1e308, 5e-324])
def test_bisected_norm_brackets_the_whole_float_range(s):
    # the dead-zone generator still bisects, and the norm of s chi_[0,1) is
    # exactly s at every scale, far above 1e30 and below 1e-30 included
    X = sp.orlicz_space(cat.orlicz_flat_capped(), H)
    res = nm.norm(pw.step_function(H, [(0.0, 1.0, s)]), X)
    assert res.method == "exact"
    assert res.value - res.error_bound <= s <= res.value, res


def test_bisected_norm_is_inf_only_past_the_largest_float():
    # t**-0.5 is unbounded, so Phi(|f|/lam) is +inf on a set of positive
    # measure at every lam: the doubling runs to the largest float
    X = sp.orlicz_space(cat.orlicz_flat_capped(), H)
    res = nm.norm(pw.power_piece(H, 0.0, 1.0, 1.0, -0.5), X)
    assert (res.value, res.method, res.error_bound) == (INF, "exact", 0.0)


def test_a_bounded_norm_past_the_largest_float_reads_inf(monkeypatch):
    # 1e308*chi_[0,100) is bounded, so membership lets it through; its
    # modular 100*(2e308/lam - 1) is 1 at lam = 2e310/101 ~ 1.98e308, past
    # the largest float, so the doubling of lam runs out there
    X = sp.orlicz_space(cat.orlicz_flat_capped(), H)
    seen = []

    def spy(*args):
        seen.append(luxemburg(*args))
        return seen[-1]

    luxemburg = nm._luxemburg
    monkeypatch.setattr(nm, "_luxemburg", spy)
    res = nm.norm(pw.step_function(H, [(0.0, 100.0, 1e308)]), X)
    assert (res.value, res.method, res.error_bound) == (INF, "exact", 0.0)
    assert seen == [res]


# u**2 up to 1, then its tangent 2u - 1: two bands of integer powers
_SQUARE_THEN_TANGENT = sp.OrliczFunctionSpec(pw.make_ppl(cat.domain_u(), [
    (0.0, 1.0, {(2.0, 0): 1.0}), (1.0, INF, {(1.0, 0): 2.0, (0.0, 0): -1.0})]))


@pytest.mark.parametrize("lam", [1.5, 4.0])
def test_two_band_modular_of_a_power_piece_matches_quadrature(lam):
    # 2*t**-0.25 on [0, 1) stays above 2: at lam = 1.5 all of f/lam lies in
    # the upper band, at lam = 4 it enters the lower one at t = (2/lam)**4
    f = pw.make_ppl(H, [(0.0, 1.0, {(-0.25, 0): 2.0})])
    modular, exact = nm._orlicz_modular(f, _SQUARE_THEN_TANGENT)
    value, error = modular(lam)
    ref, _ = cz._quad(
        lambda t: _SQUARE_THEN_TANGENT.value(pw.evaluate(f, t) / lam),
        0.0, 1.0, [(2.0 / lam) ** 4], 1e-12)
    assert exact and error == 0.0
    assert value == pytest.approx(ref, rel=1e-9)


# u**3 + u up to 2, then +inf: one band with two powers and a cap
_CUBE_PLUS_LINEAR_CAPPED = sp.OrliczFunctionSpec(pw.make_ppl(cat.domain_u(), [
    (0.0, 2.0, {(3.0, 0): 1.0, (1.0, 0): 1.0})]), finite_bound=2.0)
BAND_GENERATORS = [cat.orlicz_flat_capped(), _SQUARE_THEN_TANGENT,
                   SHIFTED_SQUARE, _CUBE_PLUS_LINEAR_CAPPED]


@st.composite
def _modular_cases(draw):
    """(f, spec, lam): a signed step function, one piece c*t**a*ln(t)**k or
    two such pieces side by side, on either domain, in the Orlicz space of
    a band generator, and a scale lam that passes the sup and tail tests."""
    spec = draw(st.sampled_from(BAND_GENERATORS))
    domain = draw(st.sampled_from([H, U]))
    kind = draw(st.sampled_from(["step", "piece", "two pieces"]))
    if kind == "step":
        f = draw(nonzero_step_functions(domain=domain))
    elif kind == "piece":
        f = draw(power_log_pieces(domain=domain))
    else:
        f = draw(two_power_log_pieces(domain=domain))
    # next to a = -1 the exact integrals of the powers |f|**n ~ t**(n*a)
    # cancel and the quadrature misses mass past the float range (ROADMAP
    # items 6 and 3); next to a = 0 the peak of |f|, or its fall to a band
    # edge, lies past the float range (item 3)
    degrees = {int(au) for _lo, _hi, terms in nm._generator_power_bands(spec)
               for (au, _k), _c in terms if au > 0.0}
    assume(all((n * a == -1.0 or abs(n * a + 1.0) >= 0.05)
               and (a == 0.0 or abs(a) >= 0.05)
               for p in f.pieces for (a, _k), _c in p.pairs
               for n in degrees))
    assume(not f.is_zero and nm.in_space(f, sp.orlicz_space(spec, domain)))
    g = pw.absolute(f)
    floor = pw.essential_sup_abs(g) / spec.finite_bound \
        if math.isfinite(spec.finite_bound) else 0.0
    if spec.zero_bound > 0.0:
        floor = max(floor, rr._tail_limit(g) / spec.zero_bound)
    lam = max(floor * draw(st.floats(min_value=1.0, max_value=4.0)),
              2.0 ** draw(st.integers(min_value=-3, max_value=3)))
    return f, spec, lam


def _band_rounding(f, spec, lam: float) -> float:
    """64 ulps of the antiderivative monomials that the exact modular of
    f at lam subtracts, the rounding bound ``norms._lp_ppl`` puts on its
    exact integrals: next to t**-1 a power of |f| has antiderivative terms
    of size 1/(n*a + 1)**(k + 1), which cancel (ROADMAP item 6)."""
    total = 0.0
    for seg in pw.segment_table(f):
        for lo, hi, terms in nm._generator_power_bands(spec):
            cut = None if seg.vlo == seg.vhi else \
                nm._band_part(seg, lam * lo, lam * hi)
            if cut is None:
                continue
            magnitudes: dict = {}
            for (au, _k), cu in terms:
                n = int(au)
                for key, c in nm._map_pow_int(seg.terms, n).items():
                    magnitudes[key] = magnitudes.get(key, 0.0) \
                        + abs(cu * c) / lam ** n
            total += nm._antiderivative_magnitude(magnitudes, *cut)
    return 64.0 * math.ulp(1.0) * total


@given(case=_modular_cases())
@settings(max_examples=80, deadline=None)
def test_the_band_modular_matches_the_quadrature_of_phi(case):
    # the quadrature splits at the ends of the segments of |f| and at the
    # crossings of every band edge, where Phi(|f|/lam) has its kinks; next
    # to a peak, rounding can lift |f| a few ulps over its sup, past the
    # finite bound or a band edge, so |f| is held at its sup
    f, spec, lam = case
    modular, exact = nm._orlicz_modular(f, spec)
    value, error = modular(lam)
    assert exact and error == 0.0
    g = pw.absolute(f)
    sup = pw.essential_sup_abs(g)
    levels = {lam * u for lo, hi, _terms in nm._generator_power_bands(spec)
              for u in (lo, hi) if 0.0 < u < INF}
    cuts = {t for seg in pw.segment_table(g) for t in (seg.lo, seg.hi)}
    cuts |= {t for level in levels
             for iv in rr.superlevel_set(g, level).intervals for t in iv}
    want, estimate = cz._quad(
        lambda t: spec.value(min(pw.evaluate(g, t), sup) / lam), g.pieces[0].lo,
        g.support_bound(), sorted(t for t in cuts if 0.0 < t < INF), 1e-12)
    slack = 1e-9 * abs(want) + estimate + _band_rounding(f, spec, lam)
    assert abs(value - want) <= slack, (value, want)


def test_the_modular_fixes_its_exactness_when_it_is_built():
    # u**1.5 has no integer bands: a step function still reads Phi at its
    # heights, a power-log f is quadrature at every lam; so is a piece
    # whose cube passes the term budget under an integer generator
    fractional = sp.OrliczFunctionSpec(pw.make_ppl(cat.domain_u(), [
        (0.0, INF, {(1.5, 0): 1.0})]))
    step = pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, 3.0, -0.5)])
    power_log = pw.make_ppl(H, [(0.0, 2.0, {(0.5, 1): 1.0})])
    many_terms = pw.make_ppl(U, [(0.0, 1.0, {(0.5 + 2.0 ** j / 512.0, 0): 1.0
                                             for j in range(9)})])
    assert nm._orlicz_modular(step, fractional)[1] is True
    assert nm._orlicz_modular(power_log, fractional)[1] is False
    assert nm._orlicz_modular(many_terms, _CUBE_PLUS_LINEAR_CAPPED)[1] is False
    X = sp.orlicz_space(fractional, H)
    assert nm.norm(step, X).method == "exact"
    assert nm.norm(power_log, X).method == "quadrature"


@pytest.mark.parametrize("domain,lo,hi,tm", [
    (U, 0.0, 1.0, {(-0.7, 0): 1.0, (-0.1, 0): 1.0}),
    (H, 1.0, INF, {(-0.6, 0): 1.0, (-2.0, 0): 1.0}),
], ids=["zero-end", "infinite-end"])
def test_power_norm_divergence_read_off_dominant_exponent(monkeypatch, domain,
                                                          lo, hi, tm):
    # two monomials have no exact 1.5th power; the dominant one decides
    # divergence at the improper end before any quadrature could run, and
    # the membership rule makes that +inf exact
    def no_quadrature(*args):
        raise AssertionError("quadrature ran on a divergent integral")

    monkeypatch.setattr(cz, "_quad", no_quadrature)
    res = nm.norm(pw.make_ppl(domain, [(lo, hi, tm)]), sp.lebesgue(1.5, domain))
    assert (res.value, res.method, res.error_bound) == (INF, "exact", 0.0)


def test_marcinkiewicz_sup_search_takes_absolute_value_once(monkeypatch):
    # rising steps make the running average rise, so the norm leaves the
    # exact path for the level search; a tighter tolerance samples more
    # levels, and |f| must not follow the sample count
    X = sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H)))
    calls = _count_calls(monkeypatch, pw, "_absolute")
    samples = _count_calls(monkeypatch, rr, "_level_mass")
    counts, levels = [], []
    for k, tol in enumerate((1e-4, 1e-12)):
        monkeypatch.setattr(nm, "SUP_SEARCH_TOL", tol)
        f = pw.step_function(H, [(0.0, 1.0, 1.0 + k), (1.0, 2.0, 5.0)])
        del calls[:], samples[:]
        res = nm.norm(f, X)
        assert res.method == "sup-search"
        assert res.error_bound <= tol * res.value
        counts.append(len(calls))
        levels.append(len(samples))
    assert counts[0] == counts[1] <= 2  # |f| and |C|f||
    assert levels[1] > levels[0] >= 10


# ---------------------------------------------------------------------------
# Lorentz and Marcinkiewicz


def test_lorentz_norm_of_indicator_is_weight_value():
    X = sp.lorentz_space(cat.sqrt_phi(H))
    assert nm.norm(chi(H, 0.0, 4.0), X).value == pytest.approx(2.0, rel=1e-12)
    assert nm.norm(chi(H, 2.0, 6.0), X).value == pytest.approx(2.0, rel=1e-12)


def test_lorentz_norm_of_two_level_step():
    X = sp.lorentz_space(cat.sqrt_phi(H))
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, 4.0, 1.0)])
    # int f* dphi = 2 phi(1) + (phi(4) - phi(1)) = 2 + 1 = 3
    assert nm.norm(f, X).value == pytest.approx(3.0, rel=1e-12)


def test_lorentz_atom_charges_the_sup():
    X = sp.lorentz_space(cat.sqrt_plus_atom_phi(U))
    f = pw.scale(chi(U, 0.0, 0.25), 2.0)
    # atom of height 1 at zero adds 2, the sqrt part adds 2 * 0.5
    assert nm.norm(f, X).value == pytest.approx(3.0, rel=1e-9)


def test_marcinkiewicz_norm_of_indicator():
    X = sp.marcinkiewicz_space(cat.sqrt_phi(H))
    assert nm.norm(chi(H, 0.0, 1.0), X).value == pytest.approx(1.0, rel=1e-9)


def test_marcinkiewicz_norm_of_matched_singularity():
    X = sp.marcinkiewicz_space(cat.sqrt_phi(H))
    # f* = t**-1/2 gives f**(t) = 2 t**-1/2 and sup phi f** = 2
    f = pw.power_piece(H, 0.0, 1.0, 1.0, -0.5)
    assert nm.norm(f, X).value == pytest.approx(2.0, rel=1e-9)


def test_negative_piece_with_a_falling_modulus_takes_the_exact_paths():
    # f* = |f| exactly; the Lorentz level quadrature read 13.600000000017934
    # and the Marcinkiewicz norm came from the level search
    f = pw.make_ppl(H, [(0.0, 1.0, {(-0.25, 1): 1.7})])
    lorentz = nm.norm(f, sp.lorentz_space(cat.sqrt_phi(H)))
    assert (lorentz.value, lorentz.method) == (13.6, "exact")
    marcinkiewicz = nm.norm(f, sp.marcinkiewicz_space(cat.sqrt_phi(H)))
    assert (marcinkiewicz.value, marcinkiewicz.method) == (
        4.654981879228835, "exact")
    # sup of sqrt(t)*f**(t) at ln t = -8/3: 1.7*(16/3)*e**(-2/3)
    reference = 4.654981879228834377
    assert abs(marcinkiewicz.value - reference) <= 2 * math.ulp(reference)


# ---------------------------------------------------------------------------
# the Marcinkiewicz sup search over levels

_SQRT_M = sp.marcinkiewicz_space(cat.sqrt_phi(H))


def test_marcinkiewicz_sup_reached_only_at_infinity_reads_its_limit():
    # sqrt(t) f**(t) = 2 (sqrt(1 + t) - 1) / sqrt(t) rises to 2 and never
    # gets there; a t-grid that stops at 2**24 read 1.9995 +- 3e-8
    res = nm.norm(pw.power_piece(H, 1.0, INF, 1.0, -0.5), _SQRT_M)
    assert res.method == "sup-search"
    assert res.value <= 2.0 <= res.value + res.error_bound


@pytest.mark.parametrize("X", [_SQRT_M, sp.cesaro_space(_SQRT_M)],
                         ids=["marcinkiewicz", "averaged"])
def test_marcinkiewicz_sup_growing_at_infinity_is_exactly_infinite(X):
    # f* ~ s**-0.4 (and C f ~ t**-0.4 / 0.6), so sqrt(t) f**(t) ~ t**0.1;
    # a t-grid read 8.80 and 14.65
    res = nm.norm(pw.power_piece(H, 1.0, INF, 1.0, -0.4), X)
    assert (res.value, res.method, res.error_bound) == (INF, "exact", 0.0)


def test_marcinkiewicz_with_linear_phi_is_l1_and_infinite_on_inverse_tail():
    # phi(t) = t makes the space L1, and the integral of 1/(1+s) diverges;
    # a t-grid read 16.6
    X = sp.marcinkiewicz_space(
        sp.QuasiConcaveSpec(pw.power_piece(H, 0.0, INF, 1.0, 1.0)))
    res = nm.norm(pw.power_piece(H, 1.0, INF, 1.0, -1.0), X)
    assert (res.value, res.method, res.error_bound) == (INF, "exact", 0.0)


def test_marcinkiewicz_unbounded_f_under_an_atom_is_exactly_infinite():
    # phi(0+) = 1 gives phi(t) f**(t) >= f**(t), which is unbounded
    f = pw.make_ppl(H, [(0.0, 1.0, {(-0.3, 0): 1.0}),
                        (1.0, 2.0, {(0.0, 0): 3.0})])
    res = nm.norm(f, sp.marcinkiewicz_space(cat.sqrt_plus_atom_phi(H)))
    assert (res.value, res.method, res.error_bound) == (INF, "exact", 0.0)


def test_marcinkiewicz_level_measure_stays_inside_the_domain():
    # the crossings of one level summed to a measure of -1.1e-16, and the
    # closed-form sup over the stretch from there raised ValidationError
    phi = pw.make_ppl(U, [(0.0, 1.0, {(1.0, 0): 1.0, (1.0, 1): -1.0})])
    X = sp.marcinkiewicz_space(sp.QuasiConcaveSpec(phi))
    f = pw.step_function(U, [
        (0.38560059789491946, 0.4357559147140928, 1.6471145460634986),
        (0.4357559147140928, 0.90177430002172, 0.7733918187132662)])
    res = nm.norm(f, sp.cesaro_space(X))
    ref, bound = marcinkiewicz_grid_reference(oc.averaged_modulus(f), X.quasi)
    assert res.method == "sup-search"
    assert abs(res.value - ref) <= bound + res.error_bound


@pytest.mark.parametrize("a", [0.005, 0.01, 0.03])
def test_marcinkiewicz_level_crossing_that_underflows_to_zero(a):
    # the closed-form crossing (lam/1.3)**(1/a) underflows to t = 0, where
    # the level mass reads the antiderivative's limit; as a -> 0 the norm
    # tends to that of 1.3*chi[0,1), 2.6/sqrt(e)
    f = pw.make_ppl(H, [(0.0, 1.0, {(a, 0): 1.3})])
    X = sp.marcinkiewicz_space(cat.sqrt_phi(H))
    res = nm.norm(f, sp.cesaro_space(X))
    ref, bound = marcinkiewicz_grid_reference(oc.averaged_modulus(f), X.quasi)
    assert res.method == "sup-search"
    assert abs(res.value - ref) <= bound + res.error_bound
    assert res.value < 2.6 / math.sqrt(math.e)


def test_norm_of_a_head_whose_average_has_a_late_dominating_log():
    # the tail of C|f| is 184.0/t + 0.6*ln(t)/t, whose log term dominates
    # only near ln t = 307
    f = pw.make_ppl(H, [(0.0, 1.0, {(-0.475, 3): -2.33}),
                        (1.0, INF, {(-1.0, 0): 0.6})])
    X = sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H)))
    assert nm.in_space(f, X)
    assert math.isfinite(nm.norm(f, X).value)
    closed = oc.oc_point(f, X)
    theorem = oc.oc_point(f, X, method="theorem")
    assert closed.is_oc is theorem.is_oc is True


def test_marcinkiewicz_head_sup_below_every_grid_point():
    # f = c t**a ln(t)**2 on [0, 2] is unbounded, and near 0 f* = |f|, so
    # sqrt(t) f**(t) = c t**(a + 1/2) (L**2/b - 2 L/b**2 + 2/b**3) with
    # L = ln t and b = a + 1; its max sits near t = e**-20, below the old
    # grid's 2**-24, where that search read 323.14
    c, a = 2.9636445191632146, -0.40118636597259466
    f = pw.make_ppl(H, [(0.0, 2.0, {(a, 2): c})])
    b = a + 1.0
    peak = lambda u: c * math.exp((a + 0.5) * u) * (
        u * u / b - 2.0 * u / b ** 2 + 2.0 / b ** 3)
    lo, hi = -40.0, -5.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        lo, hi = (m1, hi) if peak(m1) < peak(m2) else (lo, m2)
    res = nm.norm(f, sp.marcinkiewicz_space(cat.bounded_sqrt_phi(H)))
    assert res.method == "sup-search"
    assert res.value == pytest.approx(peak(lo), rel=1e-12)
    assert res.value <= peak(lo) * (1.0 + 1e-12) <= \
        res.value + res.error_bound + 1e-12 * res.value


_SEARCH_PHIS = [cat.sqrt_phi, cat.bounded_sqrt_phi, cat.sqrt_plus_atom_phi]


@st.composite
def _search_inputs(draw, domain, averaged: bool, bounded: bool):
    """Rising steps (averaged spaces only: in the base space a step
    function has an exact rearrangement) or one piece c*t**a*ln(t)**k on
    [lo, hi).  The exponents keep every peak of phi*f** above 2**-24; no
    piece reaches infinity.  These are the inputs on which the t-grid
    search of ``support.marcinkiewicz_grid_reference`` is right."""
    end = 1.0 if domain.is_unit else 8.0
    sign = lambda: draw(st.sampled_from([1.0, -1.0]))
    if averaged and draw(st.booleans()):
        n = draw(st.integers(2, 4))
        cuts = sorted(draw(st.lists(
            st.floats(end / 64.0, end), min_size=n, max_size=n, unique=True)))
        start = draw(st.sampled_from([0.0, cuts[0] / 2.0]))
        values = sorted(draw(st.lists(st.floats(0.1, 4.0), min_size=n,
                                      max_size=n)))
        knots = [start] + cuts
        return pw.step_function(domain, [
            (lo, hi, v * sign())
            for lo, hi, v in zip(knots, knots[1:], values) if hi > lo])
    lo = draw(st.sampled_from([0.0, draw(st.floats(end / 64.0, end / 2.0))]))
    hi = draw(st.floats(lo + end / 16.0, end))
    k = draw(st.integers(0, 2))
    a = draw(st.floats(0.2, 2.0) | st.floats(-0.3, -0.05)
             if not bounded or lo > 0.0 else st.floats(0.2, 2.0))
    return pw.make_ppl(domain, [(lo, hi, {(a, k): draw(st.floats(0.1, 4.0))
                                          * sign()})])


@pytest.mark.parametrize("averaged", [False, True],
                         ids=["marcinkiewicz", "averaged"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_level_search_inside_the_grid_search_bound(averaged, data):
    domain = data.draw(st.sampled_from([H, U]))
    spec = data.draw(st.sampled_from(_SEARCH_PHIS))(domain)
    X = sp.marcinkiewicz_space(spec)
    # an atom at zero makes every unbounded f infinite, which the t-grid
    # search cannot see
    f = data.draw(_search_inputs(domain, averaged,
                                 bounded=spec.atom_at_zero > 0.0))
    g = cz.cesaro_transform(pw.absolute(f)) if averaged else f
    r = rr.decreasing_rearrangement(g)
    assume(r.exact is None)
    res = nm.norm(f, sp.cesaro_space(X) if averaged else X)
    old, old_bound = marcinkiewicz_grid_reference(g, spec)
    assert res.method == "sup-search"
    assert abs(res.value - old) <= old_bound, (res, old, old_bound)
    # no point t beats value + bound; second_maximal bisects f*(t) to
    # BISECT_TOL and so reads f**(t) high by at most that much
    for u in data.draw(st.lists(st.floats(-14.0, 7.0), min_size=3,
                                max_size=3)):
        t = min(math.exp(u), domain.end)
        peak = spec.value(t) * rr.second_maximal(g, t)
        slack = 2.0 * rr.BISECT_TOL * max(1.0, peak)
        assert peak <= res.value + res.error_bound + slack, (t, peak, res)


def test_level_search_finds_a_peak_between_grid_octaves():
    # phi*f** of C|f| has a bump near t = 0.34 above its value at t = 1,
    # and rises over the octave grid 1/8, 1/4, 1/2, 1, so a search that
    # refines only around the best octave point reads the value at t = 1
    f = pw.step_function(U, [(0.0, 0.625, 0.25), (0.625, 0.875, 2.0),
                             (0.875, 1.0, 3.0)])
    spec = cat.sqrt_phi(U)
    g = cz.cesaro_transform(pw.absolute(f))
    res = nm.norm(f, sp.cesaro_space(sp.marcinkiewicz_space(spec)))
    assert res.method == "sup-search"
    t = 1.0 - 1.09375 / (2.0 - 0.34375)  # d(0.34375), beside the peak
    assert res.value >= spec.value(t) * rr.second_maximal(g, t) - 1e-11
    assert res.value > pw.integrate(g) + 4e-4
    ref, bound = marcinkiewicz_grid_reference(g, spec)
    assert abs(res.value - ref) <= bound + res.error_bound


# ---------------------------------------------------------------------------
# averaged spaces


def test_averaged_l2_norm_of_indicator():
    X = sp.cesaro_space(L2)
    assert nm.norm(chi(H, 0.0, 1.0), X).value == pytest.approx(
        math.sqrt(2.0), abs=1e-9)


def test_averaged_norm_uses_absolute_value():
    X = sp.cesaro_space(L2)
    f = pw.step_function(H, [(0.0, 1.0, 1.0), (1.0, 2.0, -1.0)])
    g = pw.absolute(f)
    assert nm.norm(f, X).value == pytest.approx(nm.norm(g, X).value, rel=1e-12)


def test_averaged_l1_unit_matches_log_weight():
    X = sp.cesaro_space(sp.lebesgue(1.0, U))
    f = pw.step_function(U, [(0.0, 0.5, 1.0), (0.5, 1.0, 3.0)])
    w = pw.make_ppl(U, [(0.0, 1.0, {(0.0, 1): -1.0})])  # ln(1/t)
    expected = pw.integrate(pw.product(pw.absolute(f), w))
    assert nm.norm(f, X).value == pytest.approx(expected, abs=1e-10)


def test_averaged_l1_halfline_is_trivial():
    X = sp.cesaro_space(L1)
    assert math.isinf(nm.norm(chi(H, 0.0, 1.0), X).value)


def test_undefined_transform_reads_as_nonmembership():
    X = sp.cesaro_space(L2)
    f = pw.power_piece(H, 0.0, 1.0, 1.0, -1.0)
    assert math.isinf(nm.norm(f, X).value)


# ---------------------------------------------------------------------------
# shared norm axioms


SPACES_H = [
    L1, L2, LINF,
    sp.l1_cap_linf(H), sp.l1_plus_linf(H),
    sp.orlicz_space(cat.orlicz_square(), H),
    sp.lorentz_space(cat.sqrt_phi(H)),
    sp.marcinkiewicz_space(cat.sqrt_phi(H)),
    sp.cesaro_space(L2),
]


@given(f=step_functions())
@settings(max_examples=25, deadline=None)
def test_homogeneity(f):
    for X in SPACES_H:
        base = nm.norm(f, X).value
        scaled = nm.norm(pw.scale(f, -2.5), X).value
        assert scaled == pytest.approx(2.5 * base, rel=1e-7, abs=1e-9)


@given(f=step_functions(), g=step_functions())
@settings(max_examples=25, deadline=None)
def test_triangle_inequality(f, g):
    s = pw.combine(f, g, "add")
    for X in SPACES_H:
        lhs = nm.norm(s, X).value
        rhs = nm.norm(f, X).value + nm.norm(g, X).value
        assert lhs <= rhs * (1.0 + 1e-7) + 1e-9


@given(f=step_functions())
@settings(max_examples=25, deadline=None)
def test_ideal_property_on_truncation(f):
    # dropping pieces can only shrink the norm
    A = pw.MeasurableSet.from_intervals(H, [(0.0, 2.0), (5.0, 9.0)])
    g = pw.restrict(f, A)
    for X in SPACES_H:
        assert nm.norm(g, X).value <= nm.norm(f, X).value * (1.0 + 1e-7) + 1e-9


@given(f=step_functions())
@settings(max_examples=20, deadline=None)
def test_rearrangement_invariance_on_steps(f):
    r = rr.decreasing_rearrangement(f).exact
    for X in SPACES_H:
        if not X.is_symmetric:
            continue
        a = nm.norm(f, X)
        b = nm.norm(r, X)
        tol = 1e-12 if (a.method == "exact" and b.method == "exact") else 1e-8
        if math.isinf(a.value) or math.isinf(b.value):
            assert a.value == b.value
        else:
            assert abs(a.value - b.value) <= tol * (1.0 + abs(a.value))


def test_norm_of_inexact_rearrangement_is_norm_of_source():
    # t**0.5 increases on [0, 1), so its rearrangement has no exact form;
    # a symmetric norm of f* is the norm of f, and no other norm is taken
    f = pw.power_piece(U, 0.0, 1.0, 1.0, 0.5)
    r = rr.decreasing_rearrangement(f)
    assert r.exact is None
    for X in cat.default_catalog(U):
        assert nm.norm(r, X) == nm.norm(f, X)
        with pytest.raises(MethodInapplicableError):
            nm.norm(r, sp.cesaro_space(X))


def test_norm_of_exact_rearrangement_is_norm_of_its_exact_form():
    # a step function's f* is a step function, measured in every space,
    # averaged ones included, through that form
    f = pw.step_function(U, [(0.0, 0.25, 1.0), (0.5, 1.0, -3.0)])
    r = rr.decreasing_rearrangement(f)
    assert r.exact is not None
    for X in cat.default_catalog(U):
        for space in (X, sp.cesaro_space(X)):
            assert nm.norm(r, space) == nm.norm(r.exact, space)


def test_hardy_inequality_single_case():
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, 3.0, 1.0)])
    cf = cz.cesaro_transform(f)
    assert nm.norm(cf, L2).value <= 2.0 * nm.norm(f, L2).value + 1e-12


# ---------------------------------------------------------------------------
# fundamental function


def test_fundamental_function_known_shapes():
    assert nm.fundamental_function(L2, 4.0) == pytest.approx(2.0, rel=1e-12)
    assert nm.fundamental_function(LINF, 0.01) == 1.0
    assert nm.fundamental_function(sp.l1_plus_linf(H), 0.5) == pytest.approx(
        0.5, abs=1e-10)
    assert nm.fundamental_function(sp.l1_plus_linf(H), 3.0) == pytest.approx(
        1.0, abs=1e-10)


def test_fundamental_function_agrees_with_indicator_norm():
    for X in (L1, L2, sp.l1_cap_linf(H),
              sp.lorentz_space(cat.sqrt_phi(H)),
              sp.marcinkiewicz_space(cat.sqrt_phi(H))):
        for t in (0.25, 1.0, 5.0):
            direct = nm.norm(chi(H, 0.0, t), X).value
            assert nm.fundamental_function(X, t) == pytest.approx(
                direct, rel=1e-9)


# ---------------------------------------------------------------------------
# dilation diagnostics


def test_boyd_indices_closed_form_and_declared():
    # no family declares its indices: every one is read in closed form
    b = nm.boyd_indices(L2)
    assert (b.lower, b.upper) == (2.0, 2.0)
    assert b.method == "closed-form"
    b = nm.boyd_indices(sp.l1_cap_linf(H))
    assert b.lower == 1.0 and math.isinf(b.upper)
    for X in (sp.orlicz_space(cat.orlicz_square(), H),
              sp.lorentz_space(cat.sqrt_phi(H)),
              sp.marcinkiewicz_space(cat.sqrt_phi(H))):
        b = nm.boyd_indices(X)
        assert (b.lower, b.upper, b.method) == (2.0, 2.0, "closed-form")


def test_boyd_indices_reject_averaged_spaces():
    with pytest.raises(MethodInapplicableError):
        nm.boyd_indices(sp.cesaro_space(L2))


def test_cesaro_bounded_catalog_row():
    assert nm.cesaro_bounded(L1).bounded is False
    assert nm.cesaro_bounded(L2).bounded is True
    assert nm.cesaro_bounded(LINF).bounded is True
    assert nm.cesaro_bounded(sp.lorentz_space(cat.sqrt_phi(H))).bounded is True


@pytest.mark.parametrize("make", [sp.lorentz_space, sp.marcinkiewicz_space])
@pytest.mark.parametrize("a", [0.5, 0.9, 1.0])
def test_capped_power_parameter_has_lower_index_one_over_a(make, a):
    # phi = min(t**a, 1); at a = 1 the space is L1 + Linf, where the
    # averaging operator is unbounded
    phi = pw.make_ppl(H, [(0.0, 1.0, {(a, 0): 1.0}),
                          (1.0, INF, {(0.0, 0): 1.0})])
    X = make(sp.QuasiConcaveSpec(phi))
    b = nm.boyd_indices(X)
    assert (b.lower, b.upper, b.method) == (1.0 / a, INF, "closed-form")
    v = nm.cesaro_bounded(X)
    assert (v.bounded, v.lower_index) == (a < 1.0, 1.0 / a)


@pytest.mark.parametrize("make", [sp.lorentz_space, sp.marcinkiewicz_space])
def test_linear_parameter_on_unit_interval_is_l1(make):
    X = make(sp.QuasiConcaveSpec(pw.power_piece(U, 0.0, 1.0, 1.0, 1.0)))
    b = nm.boyd_indices(X)
    assert (b.lower, b.upper) == (1.0, 1.0)
    assert nm.cesaro_bounded(X).bounded is False


def test_sum_and_intersection_indices_follow_the_domain():
    # on [0, 1] the intersection is Linf and the sum is L1
    for X, want in ((sp.l1_cap_linf(H), (1.0, INF)),
                    (sp.l1_plus_linf(H), (1.0, INF)),
                    (sp.l1_cap_linf(U), (INF, INF)),
                    (sp.l1_plus_linf(U), (1.0, 1.0))):
        b = nm.boyd_indices(X)
        assert (b.lower, b.upper) == want, X.describe()
    assert nm.cesaro_bounded(sp.l1_cap_linf(U)).bounded is True
    assert nm.cesaro_bounded(sp.l1_plus_linf(U)).bounded is False


def _indices(X):
    b = nm.boyd_indices(X)
    return b.lower, b.upper


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.0, 8.0), c=st.floats(0.1, 10.0),
       unit=st.booleans())
def test_parameter_and_generator_indices_match_coinciding_spaces(p, c, unit):
    dom = U if unit else H
    end = dom.end
    power = sp.QuasiConcaveSpec(pw.power_piece(dom, 0.0, end, c, 1.0 / p))
    capped = sp.QuasiConcaveSpec(pw.make_ppl(dom, [
        (0.0, 1.0, {(1.0, 0): c}), (1.0, end, {(0.0, 0): c})]))
    floored = sp.QuasiConcaveSpec(pw.make_ppl(dom, [
        (0.0, 1.0, {(0.0, 0): c}), (1.0, end, {(1.0, 0): c})]))
    for make in (sp.lorentz_space, sp.marcinkiewicz_space):
        lower, upper = _indices(make(power))
        assert lower == pytest.approx(p, rel=1e-12)
        assert upper == pytest.approx(p, rel=1e-12)
        assert _indices(make(capped)) == _indices(sp.l1_plus_linf(dom))
        assert _indices(make(floored)) == _indices(sp.l1_cap_linf(dom))
    generator = sp.OrliczFunctionSpec(pw.power_piece(cat.domain_u(), 0.0, INF,
                                                     c, p))
    assert _indices(sp.orlicz_space(generator, dom)) == (p, p)
    assert _indices(sp.orlicz_space(cat.orlicz_square_capped(), U)) \
        == _indices(sp.lebesgue_inf(U))


def test_cx_nontrivial_catalog():
    assert nm.cx_nontrivial(L2) is True
    assert nm.cx_nontrivial(L1) is False
    assert nm.cx_nontrivial(sp.lebesgue(1.0, U)) is True
    assert nm.cx_nontrivial(LINF) is True
    assert nm.cx_nontrivial(sp.l1_cap_linf(H)) is False


_SLOPE = pw.make_ppl(H, [(0.0, INF, {(1.0, 0): 1.0})])
_SQRT = pw.make_ppl(H, [(0.0, INF, {(0.5, 0): 1.0})])
_SLOPE_THEN_SQRT = pw.make_ppl(H, [(0.0, 1.0, {(1.0, 0): 1.0}),
                                   (1.0, INF, {(0.5, 0): 1.0})])


@pytest.mark.parametrize("family", [sp.lorentz_space, sp.marcinkiewicz_space])
@pytest.mark.parametrize("phi, member", [
    (_SLOPE, False), (_SQRT, True), (_SLOPE_THEN_SQRT, True)])
def test_cx_nontrivial_reads_phi_exponent_at_infinity(family, phi, member):
    # 1/x on [1, inf) belongs exactly when phi grows like t**a with a < 1;
    # phi(t) = t makes both families L1, where the tail is not integrable
    X = family(sp.QuasiConcaveSpec(phi))
    assert nm.cx_nontrivial(X) is member
    assert nm.cx_nontrivial(sp.cesaro_space(X)) is member


def _gapped(a):
    # t**a with a hole at [3, 3.5), where it would read 0
    return pw.make_ppl(H, [(0.0, 3.0, {(a, 0): 1.0}),
                           (3.5, INF, {(a, 0): 1.0})])


def _short(a):
    # t**a up to 2**30, whose last piece still reads as growing like t**a
    return pw.power_piece(H, 0.0, 2.0 ** 30, 1.0, a)


@pytest.mark.parametrize("family", [sp.lorentz_space, sp.marcinkiewicz_space])
@pytest.mark.parametrize("phi", [_gapped(0.5), _short(0.5)],
                         ids=["gap", "short"])
def test_parameter_function_must_cover_its_domain(family, phi):
    with pytest.raises(ValidationError, match="cover"):
        family(sp.QuasiConcaveSpec(phi))


@pytest.mark.parametrize("spec", [
    sp.OrliczFunctionSpec(_gapped(2.0)),
    sp.OrliczFunctionSpec(_short(2.0)),
    # u**2 up to 1/2 under a finite bound of 1
    sp.OrliczFunctionSpec(pw.power_piece(H, 0.0, 0.5, 1.0, 2.0),
                          finite_bound=1.0),
    # 2u - 1 from 3/4 on, above a zero bound of 1/2
    sp.OrliczFunctionSpec(
        pw.make_ppl(H, [(0.75, INF, {(1.0, 0): 2.0, (0.0, 0): -1.0})]),
        zero_bound=0.5),
], ids=["gap", "short", "short-of-finite-bound", "gap-above-zero-bound"])
def test_generator_must_cover_zero_to_finite_bound(spec):
    with pytest.raises(ValidationError, match="cover"):
        sp.orlicz_space(spec, H)


def test_generator_pieces_may_run_past_the_finite_bound():
    spec = sp.OrliczFunctionSpec(pw.power_piece(H, 0.0, INF, 1.0, 2.0),
                                 finite_bound=1.0)
    assert sp.orlicz_space(spec, H).orlicz is spec


@pytest.mark.parametrize("family", [sp.lorentz_space, sp.marcinkiewicz_space])
@pytest.mark.parametrize("pieces", [
    # t, then 2**-21 t**2: phi(t)/t rises past the last probe at 2**20
    [(0.0, 2.0 ** 21, {(1.0, 0): 1.0}), (2.0 ** 21, INF, {(2.0, 0): 2.0 ** -21})],
    # 2**21 t**2, then t: phi(t)/t rises below the first probe at 2**-20
    [(0.0, 2.0 ** -21, {(2.0, 0): 2.0 ** 21}), (2.0 ** -21, INF, {(1.0, 0): 1.0})],
], ids=["infinity", "zero"])
def test_parameter_function_exponents_must_lie_in_zero_one(family, pieces):
    # a quasi-concave phi ~ t**a has 0 <= a <= 1 at both ends; the probes
    # alone let t**2 past 2**21 through, with a lower index of 0.5
    with pytest.raises(ValidationError, match="0 <= a <= 1"):
        family(sp.QuasiConcaveSpec(pw.make_ppl(H, pieces)))


# Phi = u**2 up to 2**21, then 2**31.5 u**0.5; and u**0.5 up to 2**-21,
# then 2**31.5 u**2: each is continuous, and convex at every probe
_SQRT_ABOVE_PROBES = [(0.0, 2.0 ** 21, {(2.0, 0): 1.0}),
                      (2.0 ** 21, INF, {(0.5, 0): 2.0 ** 31.5})]
_SQRT_BELOW_PROBES = [(0.0, 2.0 ** -21, {(0.5, 0): 1.0}),
                      (2.0 ** -21, INF, {(2.0, 0): 2.0 ** 31.5})]


@pytest.mark.parametrize("pieces", [_SQRT_ABOVE_PROBES, _SQRT_BELOW_PROBES],
                         ids=["infinity", "zero"])
def test_generator_exponents_must_be_at_least_one(pieces):
    # a convex Phi ~ u**b has b >= 1 where it is finite and positive; the
    # probes alone let u**0.5 through, with a lower index of 0.5
    spec = sp.OrliczFunctionSpec(pw.make_ppl(H, pieces))
    with pytest.raises(ValidationError, match="b >= 1"):
        sp.orlicz_space(spec, H)


def test_generator_exponents_are_checked_only_where_phi_is_finite():
    # u**0.5 above a finite bound, or below a zero bound, is never read
    capped = sp.OrliczFunctionSpec(pw.make_ppl(H, _SQRT_ABOVE_PROBES),
                                   finite_bound=2.0 ** 22)
    assert sp.orlicz_space(capped, H).orlicz is capped
    shifted = sp.OrliczFunctionSpec(
        pw.make_ppl(H, [(1.0, INF, {(1.0, 0): 1.0, (0.0, 0): -1.0})]),
        zero_bound=1.0)
    assert sp.orlicz_space(shifted, H).orlicz is shifted


# ---------------------------------------------------------------------------
# membership before magnitude

_SQRT_L = sp.lorentz_space(cat.sqrt_phi(H))


@pytest.mark.parametrize("f, X", [
    # f* ~ s**-0.4 and phi' ~ s**-0.5: the level quadrature read -4.27
    (pw.power_piece(H, 1.0, INF, 1.0, -0.4), _SQRT_L),
    # C f ~ t**-0.4 / 0.6: it read -9.40
    (pw.power_piece(H, 1.0, INF, 1.0, -0.4), sp.cesaro_space(_SQRT_L)),
    # logarithmic divergence at the tie a + b = 0: it read 144.6 and 22,758.7
    (pw.power_piece(H, 1.0, INF, 1.0, -0.5), _SQRT_L),
    (pw.make_ppl(H, [(1.0, INF, {(-0.5, 0): 1.0, (-0.5, 1): 1.0})]), _SQRT_L),
    # phi(t) = t makes the space L1, where 1/x is not integrable: 144.6
    (pw.power_piece(H, 1.0, INF, 1.0, -1.0), sp.lorentz_space(
        sp.QuasiConcaveSpec(pw.power_piece(H, 0.0, INF, 1.0, 1.0)))),
], ids=["t^-0.4", "averaged-t^-0.4", "t^-0.5", "log-t^-0.5", "linear-phi"])
def test_lorentz_norm_outside_the_space_is_exactly_infinite(f, X):
    assert nm.in_space(f, X) is False
    res = nm.norm(f, X)
    assert (res.value, res.method, res.error_bound) == (INF, "exact", 0.0)


_QUARTERS = [i / 4.0 for i in range(-12, 9)]


def _single_pieces(domain):
    """(lo, hi) of the pieces c*t**a*ln(t)**k on (0, 1] and [1, inf)."""
    return [(0.0, 1.0)] + ([] if domain.is_unit else [(1.0, INF)])


@st.composite
def _membership_inputs(draw, domain):
    """A step function, on the half-line possibly with a constant tail, or
    one piece c*t**a*ln(t)**k on (0, 1] or [1, inf), a a multiple of 1/4
    in [-3, 2] (so every tie of the germ rules comes up) and k in 0..3."""
    if draw(st.booleans()):
        f = draw(step_functions(domain=domain))
        if domain.is_unit or draw(st.booleans()):
            return f
        tail = draw(st.floats(0.1, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
        return pw.make_ppl(domain, [(p.lo, p.hi, p.term_map())
                                    for p in f.pieces]
                           + [(16.0, INF, {(0.0, 0): tail})])
    lo, hi = draw(st.sampled_from(_single_pieces(domain)))
    a = draw(st.sampled_from(_QUARTERS))
    c = draw(st.floats(0.1, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
    return pw.make_ppl(domain, [(lo, hi, {(a, draw(st.integers(0, 3))): c})])


_CATALOG = [X for dom in (H, U) for base in cat.default_catalog(dom)
            for X in (base, sp.cesaro_space(base))]


@pytest.mark.parametrize("X", _CATALOG, ids=lambda X: X.describe())
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_membership_rule_is_the_finiteness_of_the_norm(X, data):
    f = data.draw(_membership_inputs(X.domain))
    res = nm.norm(f, X)
    assert nm.in_space(f, X) is math.isfinite(res.value), res
    assert not res.value < 0.0, res
    if X.tag == "cesaro" and nm.cx_nontrivial(X):
        # a point verdict exists exactly for the functions of finite norm
        try:
            oc.oc_point(f, X)
        except NotInSpaceError:
            assert math.isinf(res.value), res
        else:
            assert math.isfinite(res.value), res


def _germ_rule(lorentz: bool, b: float, lo: float, a: float, k: int) -> bool:
    """Membership of c*t**a*ln(t)**k on (0, 1] (lo = 0) or [1, inf) in the
    Lorentz or the Marcinkiewicz space of phi = t**b, 0 < b <= 1.

    f* is the piece's germ at its improper end, where it is unbounded at 0
    or decays at infinity (a bounded head, or a tail that does not decay,
    is decided at once).  The Lorentz integrand f* phi' ~ t**(a+b-1)
    converges at 0 iff a + b > 0 and at infinity iff a + b < 0.  phi f**
    ~ t**(a+b) ln(t)**k needs a > -1 at 0, and is t**(b-1) ln(t)**(k+1)
    at infinity when a = -1 and b/t times the mass when a < -1.
    """
    if lo == 0.0:
        if a > 0.0 or a == k == 0:
            return True
        if lorentz:
            return a + b > 0.0
        return a > -1.0 and (a + b > 0.0 or a + b == k == 0)
    if a >= 0.0:
        return False
    if lorentz:
        return a + b < 0.0
    if a < -1.0:
        return True
    if a == -1.0:
        return b < 1.0
    return a + b < 0.0 or a + b == k == 0


_POWER_PHIS = [0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("domain", [H, U], ids=["halfline", "unit"])
@pytest.mark.parametrize("b", _POWER_PHIS)
@pytest.mark.parametrize("lorentz", [True, False],
                         ids=["lorentz", "marcinkiewicz"])
def test_membership_rule_matches_the_germ_rule(lorentz, b, domain):
    make = sp.lorentz_space if lorentz else sp.marcinkiewicz_space
    X = make(sp.QuasiConcaveSpec(pw.power_piece(domain, 0.0, domain.end,
                                                1.0, b)))
    for lo, hi in _single_pieces(domain):
        for a in _QUARTERS:
            for k in range(4):
                f = pw.make_ppl(domain, [(lo, hi, {(a, k): -1.5})])
                assert nm.in_space(f, X) is _germ_rule(lorentz, b, lo, a, k), \
                    (lo, a, k)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_norm_is_infinite_exactly_where_the_germ_rule_says(data):
    lorentz = data.draw(st.booleans())
    b = data.draw(st.sampled_from(_POWER_PHIS))
    domain = data.draw(st.sampled_from([H, U]))
    make = sp.lorentz_space if lorentz else sp.marcinkiewicz_space
    X = make(sp.QuasiConcaveSpec(pw.power_piece(domain, 0.0, domain.end,
                                                1.0, b)))
    lo, hi = data.draw(st.sampled_from(_single_pieces(domain)))
    a = data.draw(st.sampled_from(_QUARTERS))
    k = data.draw(st.integers(0, 3))
    f = pw.make_ppl(domain, [(lo, hi, {(a, k): data.draw(st.floats(0.1, 4.0))})])
    res = nm.norm(f, X)
    assert math.isfinite(res.value) is _germ_rule(lorentz, b, lo, a, k), res
    if math.isinf(res.value):
        assert (res.method, res.error_bound) == ("exact", 0.0)
    else:
        assert res.value >= 0.0, res


@st.composite
def _falling_moduli(draw, domain):
    """An f whose |f| does not rise, so that C|f| has an exact g*: falling
    steps from 0, one piece c*t**a*ln(t)**k on (0, 1] with a <= 0, or, on
    the half-line, c*t**a on (0, 1] continued by c*t**b on [1, inf)."""
    c = draw(st.floats(0.1, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
    a = draw(st.sampled_from([-0.75, -0.5, -0.25, 0.0]))
    kind = draw(st.sampled_from(["steps", "piece"] if domain.is_unit
                                else ["steps", "piece", "tail"]))
    if kind == "steps":
        end = domain.end if domain.is_unit else 16.0
        cuts = sorted(set(draw(st.lists(st.floats(end / 64.0, end),
                                        min_size=1, max_size=5))))
        sizes = sorted(draw(st.lists(st.floats(0.1, 4.0), min_size=len(cuts),
                                     max_size=len(cuts))), reverse=True)
        return pw.step_function(domain, [
            (lo, hi, v * draw(st.sampled_from([1.0, -1.0])))
            for lo, hi, v in zip([0.0] + cuts, cuts, sizes)])
    if kind == "piece":
        return pw.make_ppl(domain, [(0.0, 1.0,
                                     {(a, draw(st.integers(0, 3))): c})])
    b = draw(st.sampled_from([q for q in _QUARTERS if q < 0.0]))
    return pw.make_ppl(domain, [(0.0, 1.0, {(a, 0): c}),
                                (1.0, INF, {(b, 0): c})])


@pytest.mark.parametrize("domain", [H, U], ids=["halfline", "unit"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_peak_limits_match_the_exact_rearrangement(domain, data):
    # where g = C|f| has an exact g*, phi*C(g*) is phi*g** itself, and its
    # limits at the ends are the ones the germs give
    g = cz.cesaro_transform(pw.absolute(data.draw(_falling_moduli(domain))))
    r = rr.decreasing_rearrangement(g)
    assume(r.exact is not None)
    spec = cat.sqrt_phi(domain)
    w = pw.product(spec.phi, cz.cesaro_transform(r.exact))
    want = (pw.limit_at_zero(w),
            0.0 if domain.is_unit else pw.limit_at_infinity(w))
    assert nm.peak_limits(g, spec) == pytest.approx(want, rel=1e-12)
    # g** is the maximal function of |g|
    assert nm.peak_limits(pw.scale(g, -1.0), spec) == nm.peak_limits(g, spec)


# ---------------------------------------------------------------------------
# core membership


def _power_phi(domain, a):
    return sp.QuasiConcaveSpec(pw.power_piece(domain, 0.0, domain.end, 1.0, a))


# (u - 1)_+**2, u**2 + u**3, and u (the space L1)
_CORE_GENERATORS = [
    ("capped", cat.orlicz_square_capped()),
    ("flat-capped", cat.orlicz_flat_capped()),
    ("shifted-square", SHIFTED_SQUARE),
    ("square-plus-cube", sp.OrliczFunctionSpec(
        pw.make_ppl(H, [(0.0, INF, {(2.0, 0): 1.0, (3.0, 0): 1.0})]))),
    ("linear", sp.OrliczFunctionSpec(pw.power_piece(H, 0.0, INF, 1.0, 1.0))),
]


def _core_spaces(domain):
    """(id, X): the catalog, the Orlicz generators above, and Lorentz and
    Marcinkiewicz spaces of a bounded phi, an atom and t**a; on the
    half-line also phi = t and phi = sqrt(t) + t, linear at infinity."""
    out = [("catalog", X) for X in cat.default_catalog(domain)]
    out += [(name, sp.orlicz_space(spec, domain))
            for name, spec in _CORE_GENERATORS]
    phis = [("bounded", cat.bounded_sqrt_phi(domain)),
            ("atom", cat.atom_phi(domain)),
            ("t^0.25", _power_phi(domain, 0.25)),
            ("t^0.75", _power_phi(domain, 0.75))]
    if not domain.is_unit:
        phis += [("t", _power_phi(domain, 1.0)),
                 ("sqrt+t", sp.QuasiConcaveSpec(pw.make_ppl(
                     domain, [(0.0, INF, {(0.5, 0): 1.0, (1.0, 0): 1.0})])))]
    out += [(name, make(q)) for name, q in phis
            for make in (sp.lorentz_space, sp.marcinkiewicz_space)]
    return [(f"{X.describe()}-{name}", X) for name, X in out]


_CORE_SPACES = _core_spaces(H) + _core_spaces(U)


@st.composite
def _core_inputs(draw, domain):
    """A step function, one piece c*t**a*ln(t)**k on [0, b], or on the
    half-line a tail c/t on [b, inf)."""
    kind = draw(st.sampled_from(["steps", "piece"] if domain.is_unit
                                else ["steps", "piece", "tail"]))
    c = draw(st.floats(0.1, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
    if kind == "steps":
        return draw(step_functions(domain=domain))
    if kind == "piece":
        b = 1.0 if domain.is_unit else draw(st.sampled_from([0.5, 1.0, 4.0]))
        a = draw(st.sampled_from([q for q in _QUARTERS if -1.0 <= q]))
        return pw.make_ppl(domain, [(0.0, b, {(a, draw(st.integers(0, 3))): c})])
    b = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return pw.make_ppl(domain, [(b, INF, {(-1.0, 0): c})])


@pytest.mark.parametrize("X", [X for _, X in _CORE_SPACES],
                         ids=[ident for ident, _ in _CORE_SPACES])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_core_rule_agrees_with_the_sampled_test(X, data):
    g = data.draw(_core_inputs(X.domain))
    member = nm.in_core(g, X)
    sampled, evidence = tail_test_point(g, X)
    if sampled is not None:
        assert member is sampled, evidence


_HALFLINE_CORE_SPACES = [(i, X) for i, X in _CORE_SPACES
                         if not X.domain.is_unit]


@pytest.mark.parametrize("X", [X for _, X in _HALFLINE_CORE_SPACES],
                         ids=[ident for ident, _ in _HALFLINE_CORE_SPACES])
def test_decaying_tail_lies_in_every_nonzero_core(X):
    # the characterization route's premise, for every power-log phi and Phi
    # whose averaged space is nonzero
    if nm.cx_nontrivial(X) and not nm.xa_trivial(X):
        assert nm.in_core(pw.power_piece(H, 1.0, INF, 1.0, -1.0), X) is True


def test_linear_phi_at_infinity_keeps_the_core_off_the_peak_at_infinity():
    # phi = t makes M_phi[0, inf) L1: chi_[0,1] is in the core, though
    # phi*g** tends to 1 at infinity
    X = sp.marcinkiewicz_space(_power_phi(H, 1.0))
    g = chi(H, 0.0, 1.0)
    assert nm.peak_limits(g, X.quasi) == (0.0, 1.0)
    assert nm.in_core(g, X) is True
    assert tail_test_point(g, X)[0] is True


def test_core_rule_computes_no_norm(monkeypatch):
    def no_norm(*args):
        raise AssertionError("a norm was computed")

    monkeypatch.setattr(nm, "norm", no_norm)
    tail = pw.power_piece(H, 1.0, INF, 1.0, -1.0)
    for X in (sp.l1_plus_linf(H), sp.orlicz_space(SHIFTED_SQUARE, H),
              sp.marcinkiewicz_space(cat.sqrt_phi(H))):
        assert nm.in_core(tail, X) is True
        assert nm.in_core(pw.step_function(H, [(0.0, INF, 1.0)]), X) is False


def test_core_rule_refuses_an_averaged_space():
    with pytest.raises(MethodInapplicableError):
        nm.in_core(chi(H, 0.0, 1.0), sp.cesaro_space(L2))


# ---------------------------------------------------------------------------
# truncation-core membership


def _quasi(domain, rows):
    return sp.QuasiConcaveSpec(pw.make_ppl(domain, rows))


def _truncation_core_spaces():
    """(id, X): the bases whose truncation core a point route asks about.

    L-infinity, the capped and flat-capped Orlicz generators, and Lorentz
    and Marcinkiewicz spaces of 1 + sqrt(t) and of the atom 1, on both
    domains; L1 cap L-infinity on [0, 1]; Marcinkiewicz spaces of t and
    t(1 - ln t) on [0, 1] and of t then sqrt(t) on the half-line.
    """
    out = []
    for domain in (H, U):
        out += [("", sp.lebesgue_inf(domain)),
                ("capped", sp.orlicz_space(cat.orlicz_square_capped(), domain)),
                ("flat-capped",
                 sp.orlicz_space(cat.orlicz_flat_capped(), domain))]
        out += [(name, make(phi(domain)))
                for name, phi in (("sqrt+atom", cat.sqrt_plus_atom_phi),
                                  ("atom", cat.atom_phi))
                for make in (sp.lorentz_space, sp.marcinkiewicz_space)]
    out += [("", sp.l1_cap_linf(U)),
            ("t", sp.marcinkiewicz_space(_power_phi(U, 1.0))),
            ("t(1-ln t)", sp.marcinkiewicz_space(_quasi(
                U, [(0.0, 1.0, {(1.0, 0): 1.0, (1.0, 1): -1.0})]))),
            ("t-then-sqrt", sp.marcinkiewicz_space(_quasi(
                H, [(0.0, 1.0, {(1.0, 0): 1.0}), (1.0, INF, {(0.5, 0): 1.0})])))]
    return [(f"{X.describe()}-{name}" if name else X.describe(), X)
            for name, X in out]


_TRUNCATION_CORE_SPACES = _truncation_core_spaces()


@st.composite
def _truncation_inputs(draw, domain):
    """A step function, or a piece c*t**a*ln(t)**k on [0, b]; on the
    half-line either may be followed by a tail c*t**a*ln(t)**k on
    [4, inf), constant or decaying."""
    c = draw(st.floats(0.1, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        f = draw(step_functions(domain=domain))
        rows = [(p.lo, p.hi, p.term_map()) for p in f.pieces]
    else:
        b = 1.0 if domain.is_unit else draw(st.sampled_from([0.5, 1.0, 4.0]))
        a = draw(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0]))
        rows = [(0.0, b, {(a, draw(st.integers(0, 1))): c})]
    if not domain.is_unit and draw(st.booleans()):
        a = draw(st.sampled_from([-2.0, -1.0, -0.5, -0.25, 0.0]))
        k = 0 if a == 0.0 else draw(st.integers(0, 2))
        rows = [r for r in rows if r[1] <= 4.0] + [(4.0, INF, {(a, k): c})]
    return pw.make_ppl(domain, rows)


@pytest.mark.parametrize("X", [X for _, X in _TRUNCATION_CORE_SPACES],
                         ids=[ident for ident, _ in _TRUNCATION_CORE_SPACES])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_truncation_core_rule_agrees_with_the_sampled_test(X, data):
    f = data.draw(_truncation_inputs(X.domain))
    CX = sp.cesaro_space(X)
    if not nm.in_space(f, CX):
        return  # the rule is asked only of points of the space
    member = nm.in_truncation_core(oc.averaged_modulus(f), X)
    sampled, evidence = truncation_core_membership(f, CX)
    if sampled is not None:
        assert member is sampled, evidence


def test_an_end_value_of_abs_f_that_rounds_below_zero_reads_zero():
    # C g of g = (3.65145811278845 t^2 - 16)_+ has a double zero where g
    # starts; there its terms round to about 5.6e-17, so |C g| begins
    # with a sliver of negated terms that read -5.6e-17 at its start, and
    # the Orlicz generator refused that level with ValueError
    g = excess_over(pw.make_ppl(H, [(0.0, 4.0, {(2.0, 0): 3.65145811278845})]),
                    16.0, INF)
    segs = pw.segment_table(cz.cesaro_transform(g))
    assert min(min(seg.vlo, seg.vhi) for seg in segs) == 0.0
    X = sp.orlicz_space(cat.orlicz_flat_capped(), H)
    assert nm.norm(g, sp.cesaro_space(X)).value > 0.0


def test_truncation_core_rule_refuses_a_nonzero_core():
    with pytest.raises(MethodInapplicableError):
        nm.in_truncation_core(chi(H, 0.0, 1.0), L2)
