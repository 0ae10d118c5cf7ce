"""Exact-arithmetic toolkit for Macaulay inverse systems of Artin local algebras.

Computes annihilator ideals, Hilbert functions, socle types, and
compressedness from dual generators, and constructively decides canonical
gradedness via killing systems for truncated automorphisms.  All arithmetic
is exact over the rationals.
"""

from .catalecticant import (
    HilbertFunction,
    catalecticant_matrix,
    compressed_hilbert_function,
    hilbert_function_of_form,
    initial_degree,
    is_compressed_level,
    socle_correction,
    stacked_catalecticant,
)
from .automorphism import TruncatedAutomorphism, dual_apply
from .errors import (
    ApolarError,
    DependentLeadingForms,
    InvariantViolation,
    ParseError,
    SocleDegreeTooLarge,
)
from .grading import (
    GradingOutcome,
    GradingReport,
    KillingStep,
    Obstruction,
    canonically_graded,
    killing_matrix,
    killing_step,
    rank_criterion,
    reduce_generators,
    replay_certificate,
    stacked_killing_matrix,
)
from .inverse_system import (
    AlgebraPresentation,
    SocleType,
    algebra_length,
    annihilator_slice,
    annihilator_upto,
    hilbert_function,
    is_compressed,
    macaulay_validate,
    socle_type,
    type_mismatch_warning,
)
from .linalg import RationalMatrix
from .parsing import format_polynomial, parse_dual, parse_jet
from .poly import (
    DualPolynomial,
    Exponent,
    JetPolynomial,
    contract,
    derivative_span,
    dual_coordinates,
    from_dual_coordinates,
    monomials,
    monomials_up_to,
    pairing,
    slice_dimensions,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraPresentation",
    "ApolarError",
    "DependentLeadingForms",
    "DualPolynomial",
    "Exponent",
    "GradingOutcome",
    "GradingReport",
    "HilbertFunction",
    "InvariantViolation",
    "JetPolynomial",
    "KillingStep",
    "Obstruction",
    "ParseError",
    "RationalMatrix",
    "SocleDegreeTooLarge",
    "SocleType",
    "TruncatedAutomorphism",
    "algebra_length",
    "annihilator_slice",
    "annihilator_upto",
    "canonically_graded",
    "catalecticant_matrix",
    "compressed_hilbert_function",
    "contract",
    "derivative_span",
    "dual_apply",
    "dual_coordinates",
    "format_polynomial",
    "from_dual_coordinates",
    "hilbert_function",
    "hilbert_function_of_form",
    "initial_degree",
    "is_compressed",
    "is_compressed_level",
    "killing_matrix",
    "killing_step",
    "macaulay_validate",
    "monomials",
    "monomials_up_to",
    "pairing",
    "parse_dual",
    "parse_jet",
    "rank_criterion",
    "reduce_generators",
    "replay_certificate",
    "slice_dimensions",
    "socle_correction",
    "socle_type",
    "stacked_catalecticant",
    "stacked_killing_matrix",
    "type_mismatch_warning",
]
