"""Brent's method in plain Python, pinned float for float to scipy's."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from cesarospaces import rootfind as rf

# the tolerances of rootfind.roots_u; rearrange._crossing uses the same
XTOL = rf._XTOL
RTOL = rf._BRENT_RTOL

IMPLEMENTATIONS = [rf.brentq, optimize.brentq]


def _clipped(terms):
    return lambda u: min(max(rf.eval_exp_poly(terms, u), -1e300), 1e300)


@st.composite
def bracketed_exp_polys(draw):
    """(terms, a, b): 1-3 terms c * e^(alpha u) * u^k, shifted by a constant
    so that the sum changes sign between a and b."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from([-2.0, -1.5, -1.0, -0.5, -0.25, 0.25, 0.5,
                                   1.0, 1.5, 2.0]),
                  st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=3, unique=True))
    coeff = st.floats(min_value=0.1, max_value=10.0) | st.floats(
        min_value=-10.0, max_value=-0.1)
    terms = {key: draw(coeff) for key in keys}
    # far out, the values underflow or are clipped as in _crossing
    a = draw(st.floats(min_value=-12.0, max_value=11.0)
             | st.floats(min_value=-700.0, max_value=670.0))
    b = a + draw(st.floats(min_value=1e-3, max_value=30.0))
    fa, fb = _clipped(terms)(a), _clipped(terms)(b)
    if (fa > 0.0) == (fb > 0.0) or fa == 0.0 or fb == 0.0:
        terms[(0.0, 0)] = terms.get((0.0, 0), 0.0) - (fa + fb) / 2.0
    return terms, a, b


@given(case=bracketed_exp_polys())
@settings(max_examples=300, deadline=None)
# 0.5*u**2*(e**(-2u) - e**(-1.5u)) has a triple root at u = 0, on which
# both solvers give up after 100 iterations
@example(case=({(-2.0, 2): 0.5, (-1.5, 2): -0.5}, -1.0, 1.0))
def test_brentq_returns_the_same_float_as_scipy(case):
    terms, a, b = case
    h = _clipped(terms)
    fa, fb = h(a), h(b)
    if fa == fb or (fa > 0.0) == (fb > 0.0):
        return  # the shift cancelled to rounding; no bracket to compare
    runs = []
    for solver in IMPLEMENTATIONS:
        visited = []
        f = lambda u: visited.append(u) or h(u)
        try:
            outcome = solver(f, a, b, xtol=XTOL, rtol=RTOL)
        except RuntimeError as exc:  # no convergence: the same error
            outcome = str(exc)
        runs.append((outcome, visited))
    (ours, our_steps), (theirs, their_steps) = runs
    assert ours == theirs
    assert our_steps == their_steps  # the same iterates, bit for bit


@pytest.mark.parametrize("solver", IMPLEMENTATIONS)
def test_brentq_refuses_ends_of_one_sign(solver):
    with pytest.raises(ValueError, match="different signs"):
        solver(lambda u: u * u + 1.0, -1.0, 2.0, xtol=XTOL, rtol=RTOL)


@pytest.mark.parametrize("solver", IMPLEMENTATIONS)
def test_brentq_refuses_a_nan_value(solver):
    f = lambda u: math.nan if u > 0.5 else u - 0.7
    with pytest.raises(ValueError, match="NaN"):
        solver(f, 0.0, 1.0, xtol=XTOL, rtol=RTOL)


@pytest.mark.parametrize("solver", IMPLEMENTATIONS)
def test_brentq_gives_up_after_maxiter(solver):
    with pytest.raises(RuntimeError, match="2 iterations"):
        solver(lambda u: math.exp(u) - 1.5, -3.0, 30.0, xtol=XTOL, rtol=RTOL,
               maxiter=2)


def test_dominant_key_at_both_ends():
    # t -> inf: largest exponent, then the highest log power;
    # t -> 0: smallest exponent, then the highest log power
    terms = {(-1.0, 0): 1.0, (-1.0, 2): 1.0, (0.5, 0): 1.0, (0.5, 1): 1.0}
    assert rf.dominant_key(terms, True) == (0.5, 1)
    assert rf.dominant_key(terms, False) == (-1.0, 2)


# ---------------------------------------------------------------------------
# root isolation on the float range


def test_roots_are_found_up_to_the_float_range():
    # the root e**-273.7 lies past where the old march gave up (|u| = 508)
    roots = rf.roots_t({(0.0, 1): -1.4613, (0.0, 0): -400.0}, 0.0, 1.0)
    assert roots == [math.exp(-400.0 / 1.4613)]


def test_a_sum_past_the_float_range_takes_the_sign_of_its_largest_term():
    # e**u - e**(2u) at u = 701: the first term to pass the cap is not
    # the largest one
    assert rf.eval_exp_pairs((((1.0, 0), 1.0), ((2.0, 0), -1.0)), 701.0) \
        == -math.inf
    # judged on the whole term: e**700 * 700**2 overflows although 1*700
    # does not pass the cap, and two opposite infinities would give NaN
    terms = {(1.0, 1): 50.0, (1.0, 2): -1.0, (0.0, 0): 1.0}
    assert rf.eval_exp_poly(terms, 700.0) == -math.inf
    roots = rf.roots_u(terms, -math.inf, math.inf)
    assert roots[-1] == pytest.approx(50.0, abs=1e-12)


def test_a_root_past_the_cap_is_returned_at_the_cap():
    # ln t + 800 vanishes at ln t = -800, which is no float t; the sum
    # changes sign past the cap, so the cap stands in for that root
    assert rf.roots_u({(0.0, 1): 1.0, (0.0, 0): 800.0}, -math.inf, 0.0) \
        == [-rf._U_CAP]
    # a finite end asks only for roots inside it
    assert rf.roots_u({(0.0, 1): 1.0, (0.0, 0): 800.0}, -900.0, 0.0) == []


def _reference_sign(terms, u):
    """Sign of the sum at u from its terms scaled by the largest one, or
    None where the sum is within 1e-9 of that term's size of 0."""
    logs = {key: rf._log_mag(c, key[0], key[1], u) for key, c in terms.items()}
    top = max(logs.values())
    if math.isinf(top):
        return None
    s = math.fsum(math.copysign(math.exp(logs[key] - top), c * u ** key[1])
                  for key, c in terms.items())
    return None if abs(s) <= 1e-9 else s > 0.0


@st.composite
def exp_polys(draw):
    keys = draw(st.lists(st.tuples(st.floats(-2.0, 2.0),
                                   st.integers(min_value=0, max_value=3)),
                         min_size=2, max_size=4, unique=True))
    coeff = st.floats(min_value=0.1, max_value=10.0) | st.floats(
        min_value=-10.0, max_value=-0.1)
    return {key: draw(coeff) for key in keys}


@given(terms=exp_polys())
@settings(max_examples=300, deadline=None)
# a pure-log sum whose root lies past the cap at both ends in turn
@example(terms={(0.0, 1): 1.0, (0.0, 0): 800.0})
@example(terms={(0.0, 1): 1.0, (0.0, 0): -800.0})
# near-equal exponents: e**u (1 - e**(1e-7 u)) vanishes only at u = 0
@example(terms={(1.0, 0): 1.0, (1.0000001, 0): -1.0})
@example(terms={(1.0, 1): 50.0, (1.0, 2): -1.0, (0.0, 0): 1.0})
def test_roots_split_the_float_range_into_stretches_of_one_sign(terms):
    roots = rf.roots_u(terms, -math.inf, math.inf)
    assert roots == sorted(roots)
    knots = [-rf._U_CAP] + roots + [rf._U_CAP]
    for a, b in zip(knots, knots[1:]):
        signs = {_reference_sign(terms, a + (b - a) * q)
                 for q in (0.25, 0.5, 0.75)} - {None}
        assert len(signs) <= 1, (a, b, roots)
