"""Hand-derived reference values, frozen before they were implemented.

Each value here was computed independently of the library (closed-form
integration or series work on paper) and serves as an anchor against
silent regressions in the exact paths.
"""

from __future__ import annotations

import math

import pytest

from cesarospaces import catalog as cat
from cesarospaces import cesaro as cz
from cesarospaces import norms as nm
from cesarospaces import piecewise as pw
from cesarospaces import rearrange as rr
from cesarospaces import spaces as sp
from cesarospaces.piecewise import INF
from support import HALFLINE as H, UNIT as U, chi


def test_log_weight_has_unit_mass():
    # int_0^1 ln(1/t) dt = [t - t ln t]_0^1 = 1
    w = pw.make_ppl(U, [(0.0, 1.0, {(0.0, 1): -1.0})])
    assert pw.integrate(w) == pytest.approx(1.0, abs=1e-15)


def test_averaged_l2_norm_of_head_indicator():
    # (C chi)(x) = min(1, 1/x); its squared L2 mass is 1 + 1 = 2
    X = sp.cesaro_space(sp.lebesgue(2.0, H))
    assert nm.norm(chi(H, 0.0, 1.0), X).value == pytest.approx(
        math.sqrt(2.0), abs=1e-12)


def test_rearrangement_of_hyperbola_tail():
    # d(lam) = 1/lam - 1 for lam < 1, so f*(s) = 1/(1+s)
    f = pw.power_piece(H, 1.0, INF, 1.0, -1.0)
    r = rr.decreasing_rearrangement(f)
    for s in (0.25, 1.0, 7.0):
        assert r.evaluate(s) == pytest.approx(1.0 / (1.0 + s), abs=1e-8)


def test_distribution_of_hyperbola_at_quarter():
    # {1/t > 1/4} meets [1, inf) in [1, 4)
    f = pw.power_piece(H, 1.0, INF, 1.0, -1.0)
    assert rr.distribution(f, 0.25) == pytest.approx(3.0, abs=1e-12)


def test_l2_dilation_factor_is_sqrt():
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, 2.0, 1.0)])
    base = nm.norm(f, sp.lebesgue(2.0, H)).value
    stretched = nm.norm(rr.dilation(f, 4.0), sp.lebesgue(2.0, H)).value
    assert stretched == pytest.approx(2.0 * base, rel=1e-12)


def test_maximal_function_of_hyperbola_tail():
    # f* = 1/(1+s) integrates to ln(1+t), so f**(t) = ln(1+t)/t
    f = pw.power_piece(H, 1.0, INF, 1.0, -1.0)
    m = rr.maximal_function(f)
    assert m(1.0) == pytest.approx(math.log(2.0), abs=1e-7)


def test_average_of_shifted_hyperbola_at_one():
    val, err = cz.cesaro_numeric(lambda s: 1.0 / (1.0 + s), 1.0)
    assert val == pytest.approx(math.log(2.0), abs=err + 1e-9)


def test_hardy_bound_is_not_tight_for_indicator():
    # ratio for the head indicator is sqrt(2), well under the constant 2
    X2 = sp.lebesgue(2.0, H)
    f = chi(H, 0.0, 1.0)
    cf = cz.cesaro_transform(f)
    ratio = nm.norm(cf, X2).value / nm.norm(f, X2).value
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert ratio < 2.0


def test_capped_generator_norm_collapses_to_sup_scale():
    # 3 chi_(0,1): modular is finite only for lam >= 3, where it equals
    # (3/lam)**2 <= 1, so the infimum sits exactly at 3
    X = sp.orlicz_space(cat.orlicz_square_capped(), H)
    assert nm.norm(pw.scale(chi(H, 0.0, 1.0), 3.0), X).value == \
        pytest.approx(3.0, rel=1e-9)


def test_weak_space_norm_of_head_indicator():
    # sup_t sqrt(t) min(1, 1/t) peaks at t = 1
    X = sp.marcinkiewicz_space(cat.sqrt_phi(H))
    assert nm.norm(chi(H, 0.0, 1.0), X).value == pytest.approx(1.0, rel=1e-9)


def test_lorentz_norm_of_quadruple_length_indicator():
    X = sp.lorentz_space(cat.sqrt_phi(H))
    assert nm.norm(chi(H, 0.0, 4.0), X).value == pytest.approx(2.0, rel=1e-12)


def test_unit_averaged_l1_of_constant():
    # ||1||_{Avg(L1[0,1])} = int_0^1 ln(1/t) dt = 1
    X = sp.cesaro_space(sp.lebesgue(1.0, U))
    one = pw.step_function(U, [(0.0, 1.0, 1.0)])
    assert nm.norm(one, X).value == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Regression pins for the numeric fallbacks.  Unlike the values above these
# are not hand-derived: they are what the library returned, repr for repr,
# so a change to the Luxemburg bisection, the Marcinkiewicz sup search, the
# rearrangement bisection or the quadrature rule that moves a single bit
# shows here.  Each also checks its bound against a closed form or a 30- to
# 40-digit reference computed independently (mpmath).

_QUARTER_THEN_STEP = pw.make_ppl(H, [(0.0, 1.0, {(-0.25, 0): 1.0}),
                                     (1.0, 2.0, {(0.0, 0): -2.0})])


def test_frozen_orlicz_norm_by_quadrature():
    # Phi(u) = u**1.5 has no integer-power composition, so the modular is
    # integrated numerically; the norm is the L1.5 norm (1.6 + 2**1.5)**(2/3)
    phi = pw.make_ppl(H, [(0.0, INF, {(1.5, 0): 1.0})])
    X = sp.orlicz_space(sp.OrliczFunctionSpec(phi), H)
    res = nm.norm(_QUARTER_THEN_STEP, X)
    assert (res.method, res.value, res.error_bound) == (
        "quadrature", 2.6967022747267038, 2.329396675548878e-10)
    assert abs(res.value - (1.6 + 2.0 ** 1.5) ** (2.0 / 3.0)) \
        <= res.error_bound


def test_frozen_averaged_lorentz_norm_by_level_quadrature():
    X = sp.cesaro_space(sp.lorentz_space(cat.sqrt_phi(H)))
    res = nm.norm(_QUARTER_THEN_STEP, X)
    assert (res.method, res.value, res.error_bound) == (
        "quadrature", 5.681859122723186, 1.4832191030933473e-11)
    assert abs(res.value - 5.68185912272318660896) <= res.error_bound


def test_frozen_averaged_marcinkiewicz_norm_by_sup_search():
    # the running average of rising steps rises, so f** has no exact form;
    # the sup brackets a 40-digit reference
    X = sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H)))
    f = pw.step_function(H, [(0.0, 1.0, 1.0), (1.0, 2.0, 3.0)])
    res = nm.norm(f, X)
    assert (res.method, res.value, res.error_bound) == (
        "sup-search", 2.885162303990178, 2.8047342226500405e-11)
    assert abs(res.value - 2.88516230399023173) <= res.error_bound


# 2*t**0.5*ln(t)**2 on [0, 0.5]: its running average has no exact
# rearrangement, and its level crossings have no closed form, so every
# distribution value on these two paths comes through the Brent solve
_POWER_LOG_HEAD = pw.make_ppl(H, [(0.0, 0.5, {(0.5, 2): 2.0})])


def test_frozen_averaged_marcinkiewicz_norm_through_brent_crossings():
    X = sp.cesaro_space(sp.marcinkiewicz_space(cat.sqrt_phi(H)))
    res = nm.norm(_POWER_LOG_HEAD, X)
    assert (res.method, res.value, res.error_bound) == (
        "sup-search", 2.3252247925930254, 1.5647394491224986e-10)
    assert abs(res.value - 2.32522479261836972) <= res.error_bound


def test_frozen_averaged_lorentz_norm_through_brent_crossings():
    X = sp.cesaro_space(sp.lorentz_space(cat.sqrt_phi(H)))
    res = nm.norm(_POWER_LOG_HEAD, X)
    assert (res.method, res.value, res.error_bound) == (
        "quadrature", 4.001405193722876, 5.248024237403115e-13)
    assert abs(res.value - 4.00140519372287267304) <= res.error_bound
