"""Exact folding of Coxeter groups along diagram automorphisms.

Core objects: CoxeterMatrix (labels), CoxeterGroup (word-problem engine on
exact cyclotomic scalars), Automorphism / fold (the folded system), and
the brute-force verifier in coxfold.verify.
"""

from .coxeter import (
    CoxeterMatrix,
    FiniteTypeLabel,
    ParseError,
    classify_finite,
    components,
    coxeter_order,
    parse_input,
    type_string,
    validate,
)
from .cyclo import INF, ArithContext, CycloReal, make_context
from .folding import (
    Automorphism,
    FoldedSystem,
    InvariantViolation,
    fold,
    is_fixed,
    orbits,
    validate_automorphism,
)
from .verify import (
    Ball,
    Report,
    VerifyConfig,
    enumerate_ball,
    fixed_subgroup,
    presentation_check,
    property_suite,
)
from .words import CoxeterGroup, Element, parse_word

__version__ = "0.1.0"

__all__ = [
    "ArithContext", "Automorphism", "Ball", "CoxeterGroup", "CoxeterMatrix",
    "CycloReal", "Element", "FiniteTypeLabel", "FoldedSystem", "INF",
    "InvariantViolation", "ParseError", "Report", "VerifyConfig",
    "classify_finite", "components", "coxeter_order", "enumerate_ball",
    "fixed_subgroup", "fold", "is_fixed", "make_context",
    "orbits", "parse_input", "parse_word", "presentation_check",
    "property_suite", "type_string", "validate", "validate_automorphism",
]
