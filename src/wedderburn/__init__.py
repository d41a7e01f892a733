"""Exact block decomposition of semisimple algebras over odd prime fields.

Given structure constants over F_p, compute an orthogonal primitive
idempotent decomposition of the identity, group it into blocks with
connecting elements and matrix units, present each block's entry field,
and assemble an explicitly invertible ring isomorphism onto the direct sum
of matrix rings -- all in exact modular arithmetic, all re-verified.
"""

from . import errors
from .algebra import Algebra, from_doc, make_presentation
from .blocks import (
    DecompositionResult,
    VerificationReport,
    full_isomorphism,
    result_to_doc,
    verify_isomorphism,
    verify_report_doc,
)
from .field import check_modulus, is_prime
from .generators import (
    Planted,
    build_planted,
    cayley_fixture,
    direct_sum,
    group_algebra,
    matrix_algebra,
    scramble,
)
from .idempotents import decompose_identity, equivalence_witness, split_once
from .radical import (
    RadicalReport,
    is_semisimple,
    radical_basis,
    radical_report,
    require_semisimple,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "DecompositionResult",
    "Planted",
    "RadicalReport",
    "VerificationReport",
    "build_planted",
    "cayley_fixture",
    "check_modulus",
    "decompose_identity",
    "direct_sum",
    "equivalence_witness",
    "errors",
    "from_doc",
    "full_isomorphism",
    "group_algebra",
    "is_prime",
    "is_semisimple",
    "make_presentation",
    "matrix_algebra",
    "radical_basis",
    "radical_report",
    "require_semisimple",
    "result_to_doc",
    "scramble",
    "split_once",
    "verify_isomorphism",
    "verify_report_doc",
]
