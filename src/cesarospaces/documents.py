"""Structured JSON documents for functions, spaces, and results.

The interchange format keeps every number exactly reproducible: finite
floats are written with 17 significant digits (enough to round-trip a
double), infinities are the strings "inf" and "-inf".  Emission is fully
deterministic, so serialized documents can be compared byte for byte.
"""

from __future__ import annotations

import json
import math
from typing import Any

from . import norms as nm
from . import piecewise as pw
from . import spaces as sp
from .errors import ParseError, RepresentationError, ValidationError
from .piecewise import INF, PPL, DomainSpec
from .spaces import OrliczFunctionSpec, QuasiConcaveSpec, SpaceDescriptor

FUNCTION_SCHEMA = "cesarospaces/function-v1"
SPACE_SCHEMA = "cesarospaces/space-v1"


# ---------------------------------------------------------------------------
# deterministic emission


def _emit(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if math.isnan(value):
            raise ValueError("documents cannot carry NaN")
        if math.isinf(value):
            out.append('"inf"' if value > 0 else '"-inf"')
        else:
            out.append(format(value, ".17g"))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value: Any) -> str:
    out: list[str] = []
    _emit(value, out)
    out.append("\n")
    return "".join(out)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# field helpers


def _require(doc: Any, field: str) -> Any:
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object")
    if field not in doc:
        raise ParseError(f"missing field {field!r}")
    return doc[field]


def _num(value: Any, field: str, allow_inf: bool = True) -> float:
    if isinstance(value, str):
        if allow_inf and value == "inf":
            return INF
        if allow_inf and value == "-inf":
            return -INF
        raise ParseError(f"field {field!r}: unrecognized number {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {field!r}: expected a number")
    v = float(value)
    if math.isnan(v):
        raise ParseError(f"field {field!r}: NaN is not allowed")
    if math.isinf(v) and not allow_inf:
        raise ParseError(f"field {field!r}: must be finite")
    return v


def _domain(doc: Any) -> DomainSpec:
    name = _require(doc, "domain")
    if name not in ("unit", "halfline"):
        raise ParseError(f"unknown domain {name!r}")
    return pw.domain_from_name(name)


def _domain_name(domain: DomainSpec) -> str:
    return "unit" if domain.is_unit else "halfline"


# ---------------------------------------------------------------------------
# functions


def _pieces_to_doc(f: PPL) -> list[dict]:
    doc = []
    for piece in f.pieces:
        terms = [{"c": c, "alpha": alpha, "logpow": k}
                 for (alpha, k), c in piece.term_map().items()]
        hi: Any = "inf" if math.isinf(piece.hi) else piece.hi
        doc.append({"interval": [piece.lo, hi], "terms": terms})
    return doc


def _pieces_from_doc(doc: Any, domain: DomainSpec, what: str) -> PPL:
    if not isinstance(doc, list):
        raise ParseError(f"{what}: 'pieces' must be a list")
    triples = []
    for i, entry in enumerate(doc):
        iv = _require(entry, "interval")
        if not (isinstance(iv, list) and len(iv) == 2):
            raise ParseError(f"{what} piece {i}: interval must be [lo, hi]")
        lo = _num(iv[0], "interval lo", allow_inf=False)
        hi = _num(iv[1], "interval hi")
        if not lo < hi:
            raise ParseError(f"{what} piece {i}: interval [{lo}, {hi}] "
                             "is empty or inverted")
        raw_terms = _require(entry, "terms")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise ParseError(f"{what} piece {i}: needs at least one term")
        tm: dict[tuple[float, int], float] = {}
        for term in raw_terms:
            c = _num(_require(term, "c"), "c", allow_inf=False)
            alpha = _num(_require(term, "alpha"), "alpha", allow_inf=False)
            logpow = _require(term, "logpow")
            if isinstance(logpow, bool) or not isinstance(logpow, int) \
                    or logpow < 0:
                raise ParseError(f"{what} piece {i}: logpow must be an "
                                 "integer >= 0")
            key = (alpha, logpow)
            tm[key] = tm.get(key, 0.0) + c
        triples.append((lo, hi, tm))
    try:
        return pw.make_ppl(domain, triples)
    except (ValidationError, RepresentationError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def function_to_doc(f: PPL) -> dict:
    return {"schema": FUNCTION_SCHEMA,
            "domain": _domain_name(f.domain),
            "pieces": _pieces_to_doc(f)}


def function_from_doc(doc: Any) -> PPL:
    if _require(doc, "schema") != FUNCTION_SCHEMA:
        raise ParseError(f"expected schema {FUNCTION_SCHEMA!r}")
    domain = _domain(doc)
    return _pieces_from_doc(_require(doc, "pieces"), domain, "function")


# ---------------------------------------------------------------------------
# spaces


def _flag(value: Any, field: str) -> bool | None:
    if value is None or isinstance(value, bool):
        return value
    raise ParseError(f"field {field!r}: expected true, false, or null")


def _opt_num(value: Any, field: str) -> float | None:
    if value is None:
        return None
    return _num(value, field)


def _check_indices(X: SpaceDescriptor, fields: Any, lower_key: str,
                   upper_key: str) -> SpaceDescriptor:
    """X, once the dilation indices an older document declares agree with
    those read off its generator or parameter function (null: none)."""
    idx = nm.boyd_indices(X)
    for key, computed in ((lower_key, idx.lower), (upper_key, idx.upper)):
        declared = _opt_num(fields.get(key), key)
        if declared is not None and not math.isclose(declared, computed,
                                                     rel_tol=1e-9):
            raise ValidationError(
                f"field {key!r}: declared {declared!r}, but the index is "
                f"{computed!r}")
    return X


def _check_doubling(spec: OrliczFunctionSpec, fields: Any) -> None:
    """Do the doubling flags an older document declares agree with those
    read off its generator (null: none)?"""
    for key in ("delta2_zero", "delta2_infty", "delta2_all"):
        declared = _flag(fields.get(key), key)
        computed = getattr(spec, key)
        if declared is not None and declared != computed:
            raise ValidationError(
                f"field {key!r}: declared {declared!r}, but the generator "
                f"gives {computed!r}")


def space_to_doc(X: SpaceDescriptor) -> dict:
    doc: dict[str, Any] = {"schema": SPACE_SCHEMA, "tag": X.tag,
                           "domain": _domain_name(X.domain)}
    if X.tag == "Lp":
        doc["p"] = "inf" if math.isinf(X.p) else X.p
    elif X.tag == "orlicz":
        g = X.orlicz
        doc["generator"] = {
            "pieces": _pieces_to_doc(g.phi),
            "zero_bound": g.zero_bound,
            "finite_bound": "inf" if math.isinf(g.finite_bound)
            else g.finite_bound,
        }
    elif X.tag in ("lorentz", "marcinkiewicz"):
        doc["parameter"] = {"pieces": _pieces_to_doc(X.quasi.phi)}
    elif X.tag == "cesaro":
        inner = space_to_doc(X.inner)
        inner.pop("schema")
        doc["inner"] = inner
    elif X.tag not in ("L1capLinf", "L1plusLinf"):
        raise ValueError(f"cannot serialize tag {X.tag!r}")
    return doc


def _space_from_fields(doc: Any) -> SpaceDescriptor:
    tag = _require(doc, "tag")
    domain = _domain(doc)
    try:
        if tag == "Lp":
            p = _num(_require(doc, "p"), "p")
            return sp.lebesgue_inf(domain) if math.isinf(p) \
                else sp.lebesgue(p, domain)
        if tag == "L1capLinf":
            return sp.l1_cap_linf(domain)
        if tag == "L1plusLinf":
            return sp.l1_plus_linf(domain)
        if tag == "orlicz":
            g = _require(doc, "generator")
            phi = _pieces_from_doc(_require(g, "pieces"),
                                   pw.domain_from_name("halfline"),
                                   "generator")
            spec = OrliczFunctionSpec(
                phi=phi,
                zero_bound=_num(g.get("zero_bound", 0.0), "zero_bound"),
                finite_bound=_num(g.get("finite_bound", "inf"),
                                  "finite_bound"),
            )
            X = sp.orlicz_space(spec, domain)
            _check_doubling(spec, g)
            return _check_indices(X, g, "growth_lower", "growth_upper")
        if tag in ("lorentz", "marcinkiewicz"):
            q = _require(doc, "parameter")
            phi = _pieces_from_doc(_require(q, "pieces"), domain, "parameter")
            spec = QuasiConcaveSpec(phi)
            X = sp.lorentz_space(spec) if tag == "lorentz" \
                else sp.marcinkiewicz_space(spec)
            return _check_indices(X, q, "boyd_lower", "boyd_upper")
        if tag == "cesaro":
            inner_doc = dict(_require(doc, "inner"))
            inner_doc.setdefault("domain", _require(doc, "domain"))
            return sp.cesaro_space(_space_from_fields(inner_doc))
    except ValidationError as exc:
        raise ParseError(f"space fails validation: {exc}") from exc
    raise ParseError(f"unknown space tag {tag!r}")


def space_from_doc(doc: Any) -> SpaceDescriptor:
    if _require(doc, "schema") != SPACE_SCHEMA:
        raise ParseError(f"expected schema {SPACE_SCHEMA!r}")
    return _space_from_fields(doc)


# ---------------------------------------------------------------------------
# convenience text round-trips


def dump_function(f: PPL) -> str:
    return dumps(function_to_doc(f))


def load_function(text: str) -> PPL:
    return function_from_doc(loads(text))


def dump_space(X: SpaceDescriptor) -> str:
    return dumps(space_to_doc(X))


def load_space(text: str) -> SpaceDescriptor:
    return space_from_doc(loads(text))
