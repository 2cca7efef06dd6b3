"""JSON document round-trips, deterministic emission, parse diagnostics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from cesarospaces import catalog as cat
from cesarospaces import documents as dc
from cesarospaces import norms as nm
from cesarospaces import piecewise as pw
from cesarospaces import spaces as sp
from cesarospaces.errors import ParseError
from cesarospaces.piecewise import INF
from support import HALFLINE as H, UNIT as U, step_functions


# ---------------------------------------------------------------------------
# function documents


def test_function_round_trip_step():
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (2.5, 4.0, -0.75)])
    assert dc.load_function(dc.dump_function(f)) == f


def test_function_round_trip_power_log():
    f = pw.make_ppl(U, [(0.0, 0.5, {(-0.25, 0): 1.0, (0.0, 2): -3.5}),
                        (0.5, 1.0, {(1.0, 1): 0.125})])
    assert dc.load_function(dc.dump_function(f)) == f


def test_function_round_trip_infinite_piece():
    f = pw.make_ppl(H, [(1.0, INF, {(-1.0, 0): 1.0})])
    text = dc.dump_function(f)
    assert '"inf"' in text
    assert dc.load_function(text) == f


def test_function_document_schema_and_shape():
    doc = dc.function_to_doc(pw.indicator(H, 0.0, 1.0))
    assert doc["schema"] == dc.FUNCTION_SCHEMA
    assert doc["domain"] == "halfline"
    assert len(doc["pieces"]) == 1


@given(f=step_functions())
@settings(max_examples=40, deadline=None)
def test_function_round_trip_random_steps(f):
    assert dc.load_function(dc.dump_function(f)) == f


def test_seventeen_digit_floats_survive():
    v = 1.0 / 3.0
    f = pw.step_function(H, [(0.0, 1.0, v)])
    g = dc.load_function(dc.dump_function(f))
    assert g.pieces[0].terms[0].coeff == v


# ---------------------------------------------------------------------------
# space documents


ALL_SPACES = (
    cat.default_catalog(H)
    + cat.default_catalog(U)
    + [sp.cesaro_space(sp.lebesgue(2.0, H)),
       sp.cesaro_space(sp.lebesgue_inf(H)),
       sp.cesaro_space(sp.orlicz_space(cat.orlicz_square_capped(), H)),
       sp.cesaro_space(sp.lorentz_space(cat.sqrt_plus_atom_phi(U))),
       sp.orlicz_space(cat.orlicz_flat_capped(), H),
       sp.marcinkiewicz_space(cat.atom_phi(H))]
)


@pytest.mark.parametrize("X", ALL_SPACES, ids=[
    f"{X.describe()}-{i}" for i, X in enumerate(ALL_SPACES)])
def test_space_round_trip(X):
    Y = dc.load_space(dc.dump_space(X))
    assert Y == X


def test_space_round_trip_preserves_norms():
    X = sp.lorentz_space(cat.sqrt_phi(H))
    Y = dc.load_space(dc.dump_space(X))
    f = pw.step_function(H, [(0.0, 1.0, 2.0), (1.0, 4.0, 1.0)])
    assert nm.norm(f, Y).value == nm.norm(f, X).value


# ---------------------------------------------------------------------------
# deterministic emission


def test_dumps_is_deterministic():
    f = pw.step_function(H, [(0.0, 1.0, 1.0 / 7.0)])
    a = dc.dump_function(f)
    b = dc.dump_function(dc.load_function(a))
    assert a == b


def test_dumps_ends_with_single_newline():
    text = dc.dump_space(sp.lebesgue(2.0, H))
    assert text.endswith("\n")
    assert not text.endswith("\n\n")


def test_dumps_handles_negative_infinity():
    assert '"-inf"' in dc.dumps({"v": -INF})
    assert dc.loads(dc.dumps({"v": -INF}))["v"] == "-inf"


# ---------------------------------------------------------------------------
# parse diagnostics


def test_malformed_json_raises():
    with pytest.raises(ParseError):
        dc.load_function("{not json")


def test_wrong_schema_rejected():
    f = pw.indicator(H, 0.0, 1.0)
    doc = dc.function_to_doc(f)
    doc["schema"] = "cesarospaces/other-v1"
    with pytest.raises(ParseError):
        dc.function_from_doc(doc)


def test_missing_field_rejected():
    doc = dc.loads(dc.dump_function(pw.indicator(H, 0.0, 1.0)))
    del doc["pieces"]
    with pytest.raises(ParseError):
        dc.function_from_doc(doc)


def test_bad_number_rejected():
    doc = dc.loads(dc.dump_function(pw.indicator(H, 0.0, 1.0)))
    doc["pieces"][0]["interval"][1] = "wide"
    with pytest.raises(ParseError):
        dc.function_from_doc(doc)


def test_negative_log_power_rejected():
    doc = dc.loads(dc.dump_function(pw.indicator(H, 0.0, 1.0)))
    doc["pieces"][0]["terms"][0]["logpow"] = -1
    with pytest.raises(ParseError):
        dc.function_from_doc(doc)


def test_fractional_log_power_rejected():
    doc = dc.loads(dc.dump_function(pw.indicator(H, 0.0, 1.0)))
    doc["pieces"][0]["terms"][0]["logpow"] = 0.5
    with pytest.raises(ParseError):
        dc.function_from_doc(doc)


def test_unknown_space_tag_rejected():
    doc = dc.loads(dc.dump_space(sp.lebesgue(2.0, H)))
    doc["tag"] = "sobolev"
    with pytest.raises(ParseError):
        dc.space_from_doc(doc)


def test_unit_domain_space_round_trip_keeps_domain():
    X = sp.cesaro_space(sp.lebesgue(1.0, U))
    Y = dc.load_space(dc.dump_space(X))
    assert Y.domain.is_unit
    assert Y.inner.domain.is_unit


def test_space_documents_write_no_index_keys():
    for X in ALL_SPACES:
        text = dc.dump_space(X)
        assert "boyd_" not in text and "growth_" not in text, X.describe()


def test_space_documents_write_no_doubling_keys():
    for X in ALL_SPACES:
        assert "delta2_" not in dc.dump_space(X), X.describe()


@pytest.mark.parametrize("spec", [cat.orlicz_square(),
                                  cat.orlicz_square_capped(),
                                  cat.orlicz_flat_capped()],
                         ids=["square", "capped", "flat-capped"])
def test_declared_doubling_flags_are_checked_against_the_generator(spec):
    X = sp.orlicz_space(spec, H)
    doc = dc.space_to_doc(X)
    doc["generator"].update(delta2_zero=None, delta2_infty=None,
                            delta2_all=None)
    assert dc.space_from_doc(doc) == X
    doc["generator"].update(delta2_zero=spec.delta2_zero,
                            delta2_infty=spec.delta2_infty,
                            delta2_all=spec.delta2_all)
    assert dc.space_from_doc(doc) == X
    doc["generator"]["delta2_all"] = not spec.delta2_all
    with pytest.raises(ParseError, match="delta2_all"):
        dc.space_from_doc(doc)
    doc["generator"]["delta2_all"] = "yes"
    with pytest.raises(ParseError, match="delta2_all"):
        dc.space_from_doc(doc)


def test_declared_growth_indices_are_checked_against_the_generator():
    X = sp.orlicz_space(cat.orlicz_square_capped(), H)
    doc = dc.space_to_doc(X)
    doc["generator"].update(growth_lower=2.0, growth_upper="inf")
    assert dc.space_from_doc(doc) == X
    doc["generator"]["growth_upper"] = None
    assert dc.space_from_doc(doc) == X
    doc["generator"]["growth_lower"] = 1.5
    with pytest.raises(ParseError, match="growth_lower"):
        dc.space_from_doc(doc)
