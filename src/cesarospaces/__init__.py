"""Exact piecewise functions, rearrangement-invariant norms, the Hardy
averaging transform, and order-continuity decisions.

The package keeps every function as a finite list of power-log pieces, so
transforms, rearrangements, and most norms stay in closed form; numeric
quadrature and sampling oracles exist only to cross-check the exact paths.
"""

from __future__ import annotations

from .cesaro import ChainReport, cesaro_numeric, cesaro_transform, fact1_check
from .documents import (dump_function, dump_space, function_from_doc,
                        function_to_doc, load_function, load_space,
                        space_from_doc, space_to_doc)
from .errors import (CesaroSpacesError, DomainMismatchError,
                     EvaluationDomainError, InvalidFamilyError,
                     MethodInapplicableError, NotInSpaceError,
                     NotRearrangeableError, ParseError, RepresentationError,
                     TransformUndefinedError, UndefinedIntegralError,
                     ValidationError)
from .norms import (BoundednessVerdict, BoydIndices, NormResult,
                    boyd_indices, cesaro_bounded, cx_nontrivial,
                    fundamental_function, norm, xa_trivial)
from .oc import (DirectCheckReport, FamilySearchReport, OCVerdict,
                 adversarial_family_search, direct_oc_check, oc_point,
                 oc_point_closed_form, oc_point_via_characterization,
                 oc_space, oc_space_via_transfer)
from .oracle import OracleReport, quadrature_norm_oracle, rearrangement_oracle
from .piecewise import (INF, PPL, DomainSpec, MeasurableSet, Piece,
                        PiecewisePowerLog, Term, absolute, combine,
                        domain_from_name, evaluate, indicator, integrate,
                        limit_at_infinity, limit_at_zero, make_ppl,
                        power_piece, product, restrict, scale, step_function,
                        zero)
from .rearrange import (MaximalFunction, RearrangedFunction,
                        decreasing_rearrangement, dilation, distribution,
                        equimeasurable, maximal_function, second_maximal,
                        superlevel_set)
from .spaces import (OrliczFunctionSpec, QuasiConcaveSpec, SpaceDescriptor,
                     cesaro_space, l1_cap_linf, l1_plus_linf, lebesgue,
                     lebesgue_inf, lorentz_space, marcinkiewicz_space,
                     orlicz_space)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # representation
    "INF", "PPL", "PiecewisePowerLog", "DomainSpec", "Term", "Piece",
    "MeasurableSet", "domain_from_name", "make_ppl", "zero", "step_function",
    "indicator", "power_piece", "evaluate", "integrate", "combine", "scale",
    "product", "absolute", "restrict", "limit_at_zero", "limit_at_infinity",
    # rearrangement
    "RearrangedFunction", "MaximalFunction", "decreasing_rearrangement",
    "distribution", "maximal_function", "second_maximal", "dilation",
    "equimeasurable", "superlevel_set",
    # averaging transform
    "cesaro_transform", "cesaro_numeric", "fact1_check", "ChainReport",
    # spaces and norms
    "SpaceDescriptor", "OrliczFunctionSpec", "QuasiConcaveSpec", "lebesgue",
    "lebesgue_inf", "l1_cap_linf", "l1_plus_linf", "orlicz_space",
    "lorentz_space", "marcinkiewicz_space", "cesaro_space", "NormResult",
    "norm", "fundamental_function", "BoydIndices", "boyd_indices",
    "BoundednessVerdict", "cesaro_bounded", "cx_nontrivial", "xa_trivial",
    # order continuity
    "OCVerdict", "oc_point", "oc_point_closed_form",
    "oc_point_via_characterization", "oc_space", "oc_space_via_transfer",
    "DirectCheckReport", "FamilySearchReport",
    "direct_oc_check", "adversarial_family_search",
    # oracles
    "OracleReport", "rearrangement_oracle", "quadrature_norm_oracle",
    # documents
    "function_to_doc", "function_from_doc", "space_to_doc", "space_from_doc",
    "dump_function", "load_function", "dump_space", "load_space",
    # errors
    "CesaroSpacesError", "DomainMismatchError", "EvaluationDomainError",
    "RepresentationError", "UndefinedIntegralError", "TransformUndefinedError",
    "NotRearrangeableError", "ValidationError", "NotInSpaceError",
    "InvalidFamilyError", "ParseError", "MethodInapplicableError",
]
