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
