"""Exception hierarchy.

Mathematical rejections carry data (a radical basis, a witness triple) so
callers can inspect *why* an input was refused; invariant violations are
fatal and indicate a bug upstream, never a recoverable state.
"""


class WedderburnError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(WedderburnError):
    """The requested modulus is not a prime number."""


class UnsupportedCharacteristic(WedderburnError):
    """The modulus is prime but outside the supported range.

    Raised for p = 2 (odd characteristic is required), for moduli too large
    for the exact int64 kernels, and when the small-characteristic radical
    chain cannot be verified.
    """


class DivisionByZero(WedderburnError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class NotAssociative(WedderburnError):
    """Structure constants fail associativity.

    Attributes:
        witness: triple (i, j, k) of basis indices with (b_i b_j) b_k != b_i (b_j b_k).
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"associativity fails at basis triple {witness}")


class NoIdentity(WedderburnError):
    """The presentation admits no two-sided multiplicative identity."""


class NotCommutative(WedderburnError):
    """A presentation assumed commutative has asymmetric structure constants."""


class NotSemisimple(WedderburnError):
    """The algebra has a nonzero Jacobson radical.

    Attributes:
        radical_basis: (r, dim) array whose rows span the radical.
    """

    def __init__(self, radical_basis):
        self.radical_basis = radical_basis
        super().__init__(
            f"algebra is not semisimple: radical has dimension {len(radical_basis)}"
        )


class SplitIterationCapExceeded(WedderburnError):
    """The primitive idempotent search of one block used up its draws.

    Las Vegas failure: never a wrong answer, retry with another seed.
    """

    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"no primitive idempotent after {cap} random draws "
                         "in one block")


class WitnessSolveFailed(WedderburnError):
    """The dual-basis system for the connecting elements was inconsistent.

    Indicates a violated precondition (non-primitive or non-semisimple input).
    """


class EntryOutsideCorner(WedderburnError):
    """Basis rows span no subalgebra holding the given identity.  Only
    Algebra.subalgebra raises it; check reports it on a division basis."""


class NonBijective(WedderburnError):
    """The assembled global linear map is not square: the block sizes
    n^2 d do not sum to the dimension (fatal).  A square map that is not
    invertible fails the check's bijective stage instead."""


class ShapeMismatch(WedderburnError):
    """Block-matrix operands do not match the decomposition layout.

    Raised for a wrong number of blocks, a ragged or misshapen grid, and
    grid entries that are not integers (never truncated).
    """


class InvalidCayley(WedderburnError):
    """A Cayley table is not a valid group multiplication table."""


class ReduciblePolynomial(WedderburnError):
    """A polynomial required to be irreducible factors nontrivially."""


class ModulusMismatch(WedderburnError):
    """Operands live over different prime fields."""


class InternalSamplingFailure(WedderburnError):
    """Rejection sampling failed to find an invertible matrix within its cap."""


class InternalInvariantViolation(WedderburnError):
    """A result the algorithm guarantees failed its own check: a bug, not bad input.

    Checked with a real test, not an assert, so it survives python -O; the
    command line exits 6 on it.
    """


class InvalidDocument(WedderburnError):
    """A serialized algebra/report/Cayley document is malformed."""
