"""Polynomial arithmetic over F_p and Berlekamp factorization.

Polynomials are int64 numpy arrays of coefficients, lowest degree first,
with no trailing zeros (the zero polynomial is the single coefficient [0]).
Everything here is deterministic: the factor splitter's quadratic-residue
probe draws its shifts from an internally seeded generator.
"""

import random

import numpy as np

from .errors import (
    DivisionByZero,
    InternalInvariantViolation,
    InternalSamplingFailure,
)
from .linalg import kernel as mat_kernel

_PROBE_CAP = 256

NEG_INF = float("-inf")


def normalize(c, p):
    c = np.asarray(c, dtype=np.int64) % p
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.ascontiguousarray(c[: int(nz[-1]) + 1])


def is_zero(c):
    return len(c) == 1 and c[0] == 0


def degree(c):
    if is_zero(c):
        return NEG_INF
    return len(c) - 1


def constant(value, p):
    return normalize([value], p)


def add(a, b, p):
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] += b
    return normalize(out, p)


def sub(a, b, p):
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] -= b
    return normalize(out, p)


def mul(a, b, p):
    if is_zero(a) or is_zero(b):
        return np.zeros(1, dtype=np.int64)
    if min(len(a), len(b)) * (p - 1) ** 2 < 2**63:
        return normalize(np.convolve(a, b) % p, p)
    # one int64 convolution sum would overflow: split a into 16-bit limbs,
    # so each sum holds products below 2^47 (exact for < 2^16 terms)
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    high = np.convolve(a >> 16, b) % p
    return normalize((high * 2**16 + np.convolve(a & 0xFFFF, b)) % p, p)


def scalar_mul(k, a, p):
    return normalize(np.asarray(a, dtype=np.int64) * (k % p), p)


def divmod_poly(a, b, p):
    """Quotient and remainder of a by b (b nonzero)."""
    a = normalize(a, p)
    b = normalize(b, p)
    if is_zero(b):
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if degree(a) < db:
        return np.zeros(1, dtype=np.int64), a
    rem = a.copy()
    q = np.zeros(len(a) - db, dtype=np.int64)
    lead_inv = pow(int(b[-1]), p - 2, p)
    for i in range(len(a) - db - 1, -1, -1):
        coef = int(rem[i + db]) * lead_inv % p
        if coef:
            q[i] = coef
            rem[i : i + db + 1] = (rem[i : i + db + 1] - coef * b) % p
    return normalize(q, p), normalize(rem, p)


def exact_div(a, b, p):
    q, r = divmod_poly(a, b, p)
    if not is_zero(r):
        raise InternalInvariantViolation("exact_div called on a non-divisor")
    return q


def monic(a, p):
    a = normalize(a, p)
    if is_zero(a):
        return a
    lead = int(a[-1])
    if lead == 1:
        return a
    return scalar_mul(pow(lead, p - 2, p), a, p)


def gcd(a, b, p):
    a = normalize(a, p)
    b = normalize(b, p)
    while not is_zero(b):
        a, b = b, divmod_poly(a, b, p)[1]
    return monic(a, p)


def bezout(a, b, p):
    """(g, s, t) with s*a + t*b = g = monic gcd(a, b)."""
    r0, r1 = normalize(a, p), normalize(b, p)
    s0, s1 = constant(1, p), constant(0, p)
    t0, t1 = constant(0, p), constant(1, p)
    while not is_zero(r1):
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if is_zero(r0):
        return r0, s0, t0
    lead_inv = pow(int(r0[-1]), p - 2, p)
    return (
        scalar_mul(lead_inv, r0, p),
        scalar_mul(lead_inv, s0, p),
        scalar_mul(lead_inv, t0, p),
    )


def pow_mod(base, e, modulus, p):
    """base**e reduced mod the polynomial `modulus`."""
    result = constant(1, p)
    acc = divmod_poly(base, modulus, p)[1]
    while e > 0:
        if e & 1:
            result = divmod_poly(mul(result, acc, p), modulus, p)[1]
        acc = divmod_poly(mul(acc, acc, p), modulus, p)[1]
        e >>= 1
    return result


def derivative(c, p):
    if len(c) == 1:
        return np.zeros(1, dtype=np.int64)
    ks = np.arange(1, len(c), dtype=np.int64)
    return normalize(c[1:] * ks % p, p)


def pth_root(c, p):
    """p-th root of a polynomial in T^p (coefficients are Frobenius-fixed)."""
    if degree(c) != NEG_INF and degree(c) % p:
        raise InternalInvariantViolation("pth_root of a polynomial not in T^p")
    return normalize(c[::p], p)


def _frobenius_fixed_space(f, p):
    """Basis of {v in F_p[T]/(f) : v^p = v}, one row per basis vector.

    Its dimension equals the number of distinct irreducible factors of f
    (multiplicities do not change it).
    """
    n = int(degree(f))
    tp = pow_mod(np.array([0, 1], dtype=np.int64), p, f, p)
    Q = np.zeros((n, n), dtype=np.int64)
    col = constant(1, p)
    for j in range(n):
        Q[: len(col), j] = col
        col = divmod_poly(mul(col, tp, p), f, p)[1]
    return mat_kernel((Q - np.eye(n, dtype=np.int64)) % p, p)


def is_irreducible(f, p):
    """Certify irreducibility: squarefree with a single distinct factor."""
    f = normalize(f, p)
    d = degree(f)
    if d is NEG_INF or d < 1:
        return False
    if d == 1:
        return True
    fp = derivative(f, p)
    if is_zero(fp) or degree(gcd(f, fp, p)) > 0:
        return False
    return len(_frobenius_fixed_space(f, p)) == 1


def split_squarefree(f, p, rng):
    """Distinct irreducible factors of a squarefree monic f (unsorted).

    f and its divisors are squarefree, so a part is returned only when it is
    irreducible: at degree <= 1, or with a one-dimensional Frobenius fixed
    space (the test is_irreducible makes).
    """
    if degree(f) <= 1:
        return [f]
    fixed = _frobenius_fixed_space(f, p)
    if len(fixed) == 1:
        return [f]
    # pick a non-constant fixed vector: reduced mod each irreducible factor it
    # is a scalar, and not the same scalar for all of them
    v = None
    for row in fixed:
        if np.any(row[1:]):
            v = normalize(row, p)
            break
    if v is None:
        raise InternalInvariantViolation(
            "fixed space of dim > 1 must contain a non-constant"
        )
    for _ in range(_PROBE_CAP):
        shift = add(v, constant(rng.randrange(p), p), p)
        w = pow_mod(shift, (p - 1) // 2, f, p)
        g = gcd(sub(w, constant(1, p), p), f, p)
        dg = degree(g)
        if dg != NEG_INF and 0 < dg < degree(f):
            return split_squarefree(g, p, rng) + split_squarefree(
                exact_div(f, g, p), p, rng
            )
    raise InternalSamplingFailure(
        f"quadratic-residue probe failed to split after {_PROBE_CAP} attempts"
    )


def squarefree_decomposition(f, p):
    """[(g, m)] with f = prod g^m, the g monic squarefree and pairwise coprime."""
    f = monic(f, p)
    out = []
    if degree(f) is NEG_INF or degree(f) == 0:
        return out
    fp = derivative(f, p)
    if is_zero(fp):
        return [(g, m * p) for g, m in squarefree_decomposition(pth_root(f, p), p)]
    c = gcd(f, fp, p)
    w = exact_div(f, c, p)
    i = 1
    while degree(w) > 0:
        y = gcd(w, c, p)
        z = exact_div(w, y, p)
        if degree(z) > 0:
            out.append((z, i))
        w = y
        c = exact_div(c, y, p)
        i += 1
    if degree(c) > 0:
        out.extend(
            (g, m * p) for g, m in squarefree_decomposition(pth_root(c, p), p)
        )
    return out


def berlekamp_factor(f, p):
    """Full factorization of f into monic irreducibles with multiplicity.

    Returns a list of (factor, multiplicity) sorted by (degree, coefficient
    tuple).  Each factor is irreducible by the test that ends its split.
    Deterministic: the only randomness is the internally seeded probe, and
    it only changes the discovery order, never the result.
    """
    f = normalize(f, p)
    if is_zero(f):
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(0x5EED)
    found = {}
    for g, m in squarefree_decomposition(f, p):
        for h in split_squarefree(g, p, rng):
            key = tuple(int(x) for x in h)
            found[key] = found.get(key, 0) + m
    return sorted(
        ((np.array(k, dtype=np.int64), m) for k, m in found.items()),
        key=lambda fm: (len(fm[0]), tuple(int(x) for x in fm[0])),
    )


def find_irreducible(d, p):
    """First monic irreducible of degree d over F_p in coefficient lex order."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if d == 1:
        return np.array([0, 1], dtype=np.int64)
    coeffs = np.zeros(d + 1, dtype=np.int64)
    coeffs[-1] = 1
    while True:
        cand = normalize(coeffs, p)
        if is_irreducible(cand, p):
            return cand
        # odometer increment over the d low coefficients
        for i in range(d):
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
        else:
            raise InternalInvariantViolation(
                "no irreducible of the requested degree found"
            )
