"""Exact folding of Coxeter groups along diagram automorphisms.

Core objects: CoxeterMatrix (labels), CoxeterGroup (word-problem engine on
exact cyclotomic scalars), Automorphism / fold (the folded system), and
the brute-force verifier in coxfold.verify.

Importing the package loads only the word engine (cyclo, coxeter, words).
The folding and verify names below load their module on first use
(PEP 562), so a process that only reduces words never compiles them.
"""

from importlib import import_module

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

_LAZY = {
    **dict.fromkeys(("Automorphism", "FoldedSystem", "InvariantViolation",
                     "fold", "is_fixed", "orbits", "validate_automorphism"),
                    "folding"),
    **dict.fromkeys(("Ball", "Report", "VerifyConfig", "enumerate_ball",
                     "fixed_subgroup", "presentation_check", "property_suite"),
                    "verify"),
}


def __getattr__(name):
    # Only missing names get here.  Submodule names raise too, so that
    # `from coxfold import verify` falls back to importing the submodule.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
