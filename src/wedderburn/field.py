"""Validity checks for the prime modulus p of the field F_p.

Scalars are plain ints in [0, p); bulk arithmetic lives in the numpy
kernels of `linalg`, not here.
"""

from .errors import NotPrime, UnsupportedCharacteristic

# Largest modulus the exact int64 matmul kernels accept: n*(p-1)^2 must stay
# below 2^62 for any dimension n we allow, so cap p itself well under 2^31.
MAX_MODULUS = 2**31 - 1


def is_prime(n):
    """Deterministic primality check by trial division (moduli are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_modulus(p):
    """Validate p as a supported field characteristic.

    Raises NotPrime for composites and UnsupportedCharacteristic for p = 2
    (idempotent splitting needs 2 invertible) or oversized p.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise NotPrime(f"modulus must be an int, got {type(p).__name__}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        raise UnsupportedCharacteristic("characteristic 2 is not supported")
    if p > MAX_MODULUS:
        raise UnsupportedCharacteristic(
            f"modulus {p} exceeds the exact-arithmetic limit {MAX_MODULUS}"
        )
    return p

