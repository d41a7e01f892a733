"""Polynomial arithmetic over F_p and Berlekamp factorization.

A polynomial is a list of Python ints in [0, p), lowest degree first, with
no trailing zeros (the zero polynomial is [0]).  Every function takes and
returns that form, and computes on it exactly at any p: a Python int does
not overflow, where an int64 sum of products of residues near 2^31 would.
So normalize is the one entry point for coefficients from outside (an int64
kernel row, a document's list): it reduces each with int(x) % p and trims
the trailing zeros; nothing else converts its arguments.  factor draws its
probe's shifts from the caller's random.Random; they change only the order
in which the factors are found, never the factors.
"""

from itertools import zip_longest

import numpy as np

from .errors import (
    DivisionByZero,
    InternalInvariantViolation,
    InternalSamplingFailure,
)
from .linalg import kernel as mat_kernel

_PROBE_CAP = 256

NEG_INF = float("-inf")


def _trim(c):
    """Drop trailing zeros in place; the zero polynomial stays [0]."""
    while len(c) > 1 and not c[-1]:
        c.pop()
    return c


def normalize(c, p):
    """Coefficients from outside (any integers, lowest degree first) as a
    polynomial: Python ints in [0, p), no trailing zero."""
    return _trim([int(x) % p for x in c] or [0])


def is_zero(c):
    return len(c) == 1 and c[0] == 0


def degree(c):
    if is_zero(c):
        return NEG_INF
    return len(c) - 1


# -- arithmetic ----------------------------------------------------------------


def _add(a, b, p):
    return _trim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _sub(a, b, p):
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _convolve(a, b):
    """Coefficients of a*b, not yet reduced mod p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def mul(a, b, p):
    return _trim([x % p for x in _convolve(a, b)])


def _scale(k, a, p):
    return _trim([k * x % p for x in a])


def divmod_poly(a, b, p):
    """Quotient and remainder of a by b (b nonzero)."""
    if is_zero(b):
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db or is_zero(a):
        return [0], a
    rem = a[:]
    q = [0] * (len(a) - db)
    lead_inv = pow(b[-1], p - 2, p)
    for i in range(len(a) - db - 1, -1, -1):
        coef = rem[i + db] * lead_inv % p
        if coef:
            q[i] = coef
            for j in range(db):
                rem[i + j] = (rem[i + j] - coef * b[j]) % p
    # each step clears rem[i + db], so only the db low coefficients remain
    return q, _trim(rem[:db] or [0])


def _rem(a, b, p):
    return divmod_poly(a, b, p)[1]


def exact_div(a, b, p):
    q, r = divmod_poly(a, b, p)
    if not is_zero(r):
        raise InternalInvariantViolation("exact_div called on a non-divisor")
    return q


def monic(a, p):
    lead = a[-1]
    if lead in (0, 1):
        return a
    return _scale(pow(lead, p - 2, p), a, p)


def _gcd(a, b, p):
    while not is_zero(b):
        a, b = b, _rem(a, b, p)
    return monic(a, p)


def _mul_mod(a, b, f, p):
    """a*b mod a monic f; a coefficient is reduced mod p only when read."""
    out = _convolve(a, b)
    d = len(f) - 1
    for i in range(len(out) - 1, d - 1, -1):
        coef = out[i] % p
        if coef:
            for j in range(d):
                out[i - d + j] -= coef * f[j]
    return _trim([x % p for x in out[:d]] or [0])


def _pow_mod(base, e, modulus, p):
    f = monic(modulus, p)  # the same residues, without a leading inverse
    result, acc = _rem([1], f, p), _rem(base, f, p)
    while e > 0:
        if e & 1:
            result = _mul_mod(result, acc, f, p)
        e >>= 1
        if e:
            acc = _mul_mod(acc, acc, f, p)
    return result


def _derivative(c, p):
    return _trim([k * x % p for k, x in enumerate(c)][1:] or [0])


def _pth_root(c, p):
    if len(c) > 1 and (len(c) - 1) % p:
        raise InternalInvariantViolation("pth_root of a polynomial not in T^p")
    return c[::p]


def bezout(a, b, p):
    """(g, s, t) with s*a + t*b = g = monic gcd(a, b)."""
    r0, r1 = a, b
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while not is_zero(r1):
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, mul(q, t1, p), p)
    if not is_zero(r0):
        lead_inv = pow(r0[-1], p - 2, p)
        r0, s0, t0 = (_scale(lead_inv, c, p) for c in (r0, s0, t0))
    return r0, s0, t0


def _frobenius_fixed_space(f, tp, p):
    """Basis of {v in F_p[T]/(f) : v^p = v}, one row per basis vector.

    tp is T^p mod f.  The dimension equals the number of distinct
    irreducible factors of f (multiplicities do not change it).
    """
    f = monic(f, p)
    n = len(f) - 1
    Q = np.zeros((n, n), dtype=np.int64)
    col = [1]
    for j in range(n):
        Q[: len(col), j] = col
        col = _mul_mod(col, tp, f, p)
    return mat_kernel((Q - np.eye(n, dtype=np.int64)) % p, p)


def _t_to_the_p(f, p):
    return _pow_mod([0, 1], p, f, p)


def is_irreducible(f, p):
    """Certify irreducibility: squarefree with a single distinct factor."""
    if len(f) <= 2:
        return len(f) == 2  # a nonzero constant or zero is not irreducible
    fp = _derivative(f, p)
    if is_zero(fp) or len(_gcd(f, fp, p)) > 1:
        return False
    return len(_frobenius_fixed_space(f, _t_to_the_p(f, p), p)) == 1


def _split(f, p, rng, tp):
    """Distinct irreducible factors of a squarefree monic list f, unsorted.

    A part is returned only when irreducible: at degree <= 1, or with a
    one-dimensional Frobenius fixed space.  tp is T^p mod a multiple of f,
    or None; it is computed once and reduced mod each part.
    """
    if len(f) <= 2:
        return [f]
    tp = _t_to_the_p(f, p) if tp is None else _rem(tp, f, p)
    fixed = _frobenius_fixed_space(f, tp, p)
    if len(fixed) == 1:
        return [f]
    # pick a non-constant fixed vector: reduced mod each irreducible factor it
    # is a scalar, and not the same scalar for all of them
    v = next((normalize(row, p) for row in fixed if row[1:].any()), None)
    if v is None:
        raise InternalInvariantViolation(
            "fixed space of dim > 1 must contain a non-constant"
        )
    for _ in range(_PROBE_CAP):
        shift = _add(v, [rng.randrange(p)], p)
        w = _pow_mod(shift, (p - 1) // 2, f, p)
        g = _gcd(_sub(w, [1], p), f, p)
        if 1 < len(g) < len(f):
            return _split(g, p, rng, tp) + _split(exact_div(f, g, p), p, rng, tp)
    raise InternalSamplingFailure(
        f"quadratic-residue probe failed to split after {_PROBE_CAP} attempts"
    )


def _squarefree(f, p):
    """[(g, m)] with f = prod g^m, the g squarefree and pairwise coprime."""
    if len(f) == 1:
        return []
    fp = _derivative(f, p)
    if is_zero(fp):
        return [(g, m * p) for g, m in _squarefree(_pth_root(f, p), p)]
    c = _gcd(f, fp, p)
    w = exact_div(f, c, p)
    out = []
    i = 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        z = exact_div(w, y, p)
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = exact_div(c, y, p)
        i += 1
    if len(c) > 1:
        out.extend((g, m * p) for g, m in _squarefree(_pth_root(c, p), p))
    return out


def factor(f, p, rng):
    """Factorization of a nonzero f into monic irreducibles with multiplicity.

    Returns a list of (factor, multiplicity) sorted by (degree, coefficient
    tuple).  Each squarefree part, in the order _squarefree gives them, is
    split with shifts drawn from rng; the draws change only the order in
    which the factors are found, never the result.
    """
    if is_zero(f):
        raise ValueError("cannot factor the zero polynomial")
    # the parts are pairwise coprime, so each factor is found once
    found = [(h, m) for g, m in _squarefree(monic(f, p), p)
             for h in _split(g, p, rng, None)]
    found.sort(key=lambda hm: (len(hm[0]), hm[0]))
    return found


def find_irreducible(d, p):
    """First monic irreducible of degree d over F_p in coefficient lex order.

    The order walks the p binomials x^d + c first.  Some x^d - a is
    irreducible exactly when every prime factor of d divides p - 1, and
    p = 1 mod 4 whenever 4 | d (Lidl & Niederreiter, Finite Fields,
    Thm 3.75); otherwise the walk starts at x^d + x, where it would arrive
    after all p of them.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    coeffs = [0] * d + [1]
    if not _has_irreducible_binomial(d, p):
        coeffs[1] = 1
    while not is_irreducible(coeffs, p):
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
    return coeffs


def _has_irreducible_binomial(d, p):
    """Whether some x^d - a with a != 0 is irreducible over F_p (Thm 3.75,
    with a of order p - 1)."""
    if d % 4 == 0 and p % 4 != 1:
        return False
    r, m = 2, d
    while m > 1:
        if m % r == 0:
            if (p - 1) % r:
                return False
            while m % r == 0:
                m //= r
        r += 1
    return True
