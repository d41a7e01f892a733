"""Exact block decomposition of semisimple algebras over odd prime fields.

Given structure constants over F_p, read the blocks off the centre, find
one primitive idempotent per block, take connecting elements and matrix
units from a dual basis of its left ideal, present each block's entry
field, and assemble an explicitly invertible ring isomorphism onto the
direct sum of matrix rings -- all in exact modular arithmetic, all
re-verified.
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
from .idempotents import block_idempotents, primitive_idempotent
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
    "block_idempotents",
    "build_planted",
    "cayley_fixture",
    "check_modulus",
    "direct_sum",
    "errors",
    "from_doc",
    "full_isomorphism",
    "group_algebra",
    "is_prime",
    "is_semisimple",
    "make_presentation",
    "matrix_algebra",
    "primitive_idempotent",
    "radical_basis",
    "radical_report",
    "require_semisimple",
    "result_to_doc",
    "scramble",
    "verify_isomorphism",
    "verify_report_doc",
]
