"""Closed-formula factorization of X^n - a over finite fields.

The factor module evaluates the factorization directly from the arithmetic
invariants of (q, n, a); the oracle module provides an independent
brute-force cross-check; cli wires both to a command line.
"""

from .errors import (CyclofactorError, InvariantViolated, MathDomainError,
                     ParseError)
from .ff import (FieldCtx, FieldElem, element_order, element_text, embed,
                 field_text, make_extension, parse_element, parse_field)
from .poly import (Factorization, FactorEntry, Poly, coeff_frobenius,
                   parse_poly, poly_gcd, poly_order, poly_text, q_spin,
                   q_transform, rabin_irreducible)
from .factor import (BinomialPlan, CompositionPlan, VerifyReport,
                     butler_profile, clear_caches, factor_binomial,
                     factor_composition, factor_cyclotomic, factor_radq1,
                     factor_unity, serret_irreducible, step_irreducible_tp,
                     unity_shortcut, verify)
from .oracle import OracleConfig, brute_factor, is_irreducible

__version__ = "0.1.0"

__all__ = [
    "BinomialPlan", "CompositionPlan", "CyclofactorError", "Factorization",
    "FactorEntry", "FieldCtx", "FieldElem", "InvariantViolated",
    "MathDomainError", "OracleConfig",
    "ParseError", "Poly", "VerifyReport",
    "brute_factor", "butler_profile", "clear_caches", "coeff_frobenius",
    "element_order", "element_text", "embed", "factor_binomial",
    "factor_composition", "factor_cyclotomic", "factor_radq1", "factor_unity",
    "field_text",
    "is_irreducible", "make_extension", "parse_element", "parse_field",
    "parse_poly", "poly_gcd", "poly_order", "poly_text", "q_spin",
    "q_transform", "rabin_irreducible", "serret_irreducible",
    "step_irreducible_tp", "unity_shortcut", "verify",
]
