"""Validity checks for the prime modulus p of the field F_p.

Scalars are plain ints in [0, p); bulk arithmetic lives in the numpy
kernels of `linalg`, not here.
"""

from functools import lru_cache

from .errors import NotPrime, UnsupportedCharacteristic

# Largest modulus the exact kernels accept: matmul_mod splits entries below
# 2^31 into 16-bit limbs (the high one under 2^15), and rref's int64 updates
# bound products of residues by (p-1)^2 < 2^62.
MAX_MODULUS = 2**31 - 1


# Miller-Rabin with the first twelve prime bases is exact below this bound,
# the least composite that passes all twelve (Sorenson & Webster, Math. Comp.
# 2017); it exceeds 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


@lru_cache(maxsize=1024)
def is_prime(n):
    """Deterministic primality check by Miller-Rabin with _MR_BASES.

    ValueError from _MR_EXACT_BELOW up, where those bases no longer decide.
    Cached: every Algebra constructor checks its modulus.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is past the exact primality test's bound")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
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

    Raises UnsupportedCharacteristic for p > MAX_MODULUS (prime or not) and
    for p = 2 (poly factors by a quadratic-residue probe, which raises to
    the power (p - 1)/2), NotPrime for other composites.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise NotPrime(f"modulus must be an int, got {type(p).__name__}")
    # the range test comes first: an unsupported p needs no primality test
    if p > MAX_MODULUS:
        raise UnsupportedCharacteristic(
            f"modulus {p} exceeds the exact-arithmetic limit {MAX_MODULUS}"
        )
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        raise UnsupportedCharacteristic("characteristic 2 is not supported")
    return p

