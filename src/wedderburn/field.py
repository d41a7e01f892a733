"""Validity checks for the prime modulus p of the field F_p.

Scalars are plain ints in [0, p); bulk arithmetic lives in the numpy
kernels of `linalg`, not here.
"""

from functools import lru_cache

from .errors import NotPrime, UnsupportedCharacteristic

# Largest modulus the exact kernels accept: matmul_mod splits entries below
# 2^31 into 16-bit limbs (the high one under 2^15), and the int64 sums in
# char_poly and poly.mul bound products of residues by (p-1)^2 < 2^62.
MAX_MODULUS = 2**31 - 1


# Miller-Rabin with these bases is exact below this bound (3215031751 itself
# is the first composite that passes all four), which exceeds MAX_MODULUS
_MR_BASES = (2, 3, 5, 7)
_MR_EXACT_BELOW = 3215031751


@lru_cache(maxsize=1024)
def is_prime(n):
    """Deterministic primality check.

    Miller-Rabin with bases 2, 3, 5, 7 below _MR_EXACT_BELOW, trial division
    above it.  Cached: every Algebra constructor checks its modulus.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    if n >= _MR_EXACT_BELOW:
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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

