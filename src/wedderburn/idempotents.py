"""Block idempotents from the centre, and one primitive idempotent per block.

The central idempotents of the simple blocks are read off the centre Z of
A: the Frobenius fixed space of Z is F_p^k, one coordinate per block, and
the spectral idempotents of its basis rows refine {1} into the k block
idempotents.  Inside a block, the descent follows one branch: it keeps the
least primary component of a random element of the corner until the
corner is the block's entry field, in at most SPLIT_CAP draws.  Neither
step builds a corner algebra.

The descent works with the maps of its corner, built once per idempotent e
(a Corner): L_e, R_e and P = R_e L_e, which takes x to e*x*e.  A draw is
x = P y.  While p > dim, dim(e*A*e) is the trace of P, and no corner
basis is eliminated before the last one, the entry field D; otherwise it
is the rank of P.  The dual basis in `blocks` reuses the last corner's
maps.  In a block M_n(F_{p^d}) a corner of dimension r^2 d is
M_r(F_{p^d}), where every element has a minimal polynomial of degree at
most r*d over F_p, so only the powers up to x^(r*d) are computed.

Both steps factor a minimal polynomial with poly.factor, which returns the
monic irreducible factors sorted by (degree, coefficients): the centre
takes every (linear) factor, the descent the first.  A polynomial is
poly's list of Python ints; _component turns s*rest into an int64 row once,
for its product with the powers.
"""

import math
import random
from typing import NamedTuple

import numpy as np

from . import linalg, poly, radical
from .algebra import min_poly_of_powers
from .errors import InternalInvariantViolation, SplitIterationCapExceeded

# Draws per block of the descent, read at each call.  A draw in an M_2(F_3)
# block fails to split with probability 45/81, the worst rate measured, so
# all 64 fail with probability about 5e-17.  In 1000 descents per block
# type (seeds 0-999, scrambled with seed 1) the most draws one took: 9 in
# M_5(F_5), 10 in M_2(F_97) and M_9(F_3), 11 in M_2(F_3) and M_3(F_3), 12
# in M_4(F_3), 13 in M_2(F_9), 16 in M_2(F_5).
SPLIT_CAP = 64


def _component(p, one, K, rest, part):
    """Idempotent of the `part` component of x, from m = part*rest coprime.

    m is the minimal polynomial of x in the corner with identity `one`, and
    K holds the powers one, x, x^2, ... as rows.  With s*rest + t*part = 1,
    (s*rest)(x) is one on ker part(x) and zero on ker rest(x).  It is
    neither zero nor `one`, by minimality of m.  The caller proves it
    idempotent (_require_idempotent), from a map it builds anyway.
    """
    _, s, _ = poly.bezout(rest, part, p)
    sr = np.array(poly.mul(s, rest, p), dtype=np.int64)
    # deg(s*rest) < deg m, and K runs to x^deg(m)
    eps = linalg.matmul_mod(sr[None, :], K[: len(sr)], p)[0]
    if not eps.any():
        raise InternalInvariantViolation("split produced zero")
    if np.array_equal(eps, one):
        raise InternalInvariantViolation("split produced the whole identity")
    return eps


def _require_idempotent(eps, square):
    """Refuse a split whose eps is not idempotent; square is eps*eps."""
    if not np.array_equal(square, eps):
        raise InternalInvariantViolation("split produced a non-idempotent")


def _fixed_space(Z):
    """Frobenius fixed space (rows, local coords) of a commutative algebra.

    x -> x^p is injective exactly when Z has no nonzero nilpotent, which
    the centre of a semisimple algebra never has; a Z that has one is
    refused.
    """
    fixed = Z.frobenius_fixed_space()
    if fixed is None:
        raise InternalInvariantViolation(
            "the centre has a nonzero nilpotent: the algebra is not semisimple"
        )
    return fixed


def block_idempotents(A):
    """(C, degrees): the central idempotents of the simple blocks of A, as
    the rows of C, and the dimension d = dim(c*Z) of each block's centre.

    A fixed vector v of the centre Z has v^p = v, so its minimal polynomial
    splits into distinct linear factors; the spectral idempotents of the
    basis rows of the fixed space together separate the k blocks, even when
    k > p.  Deterministic: no seed is involved.
    """
    A.require_associative()
    radical.require_semisimple(A)
    return _block_idempotents(A)


def _block_idempotents(A):
    """block_idempotents without the associativity and semisimplicity gates,
    for a search whose result is checked.  A centre with a nonzero nilpotent
    raises InternalInvariantViolation."""
    p = A.p
    center = A._center_basis()
    Z = A.subalgebra(center, A.one)
    parts = Z.one[None, :]
    rng = random.Random(0)
    fixed = _fixed_space(Z)
    for v in fixed:
        if len(parts) == len(fixed):  # one part per block: nothing to refine
            break
        K = Z.powers(v, Z.one)
        m = min_poly_of_powers(K, p)
        roots = poly.factor(m, p, rng)
        if any(poly.degree(g) != 1 or k != 1 for g, k in roots):
            raise InternalInvariantViolation(
                "central fixed vector has a minimal polynomial without "
                "distinct linear factors"
            )
        if len(roots) < 2:
            continue
        spectral = np.array([_component(p, Z.one, K, poly.exact_div(m, g, p), g)
                             for g, _ in roots])
        for eps in spectral:
            _require_idempotent(eps, Z.mul_vec(eps, eps))
        prods = Z.products(parts, spectral).reshape(-1, Z.dim)
        parts = prods[prods.any(axis=1)]
    # L_c is idempotent with image c*Z: _size reads its dimension
    degrees = [_size(Z.lmat(c), p)[0] for c in parts]
    return linalg.matmul_mod(parts, center, p), degrees


class Corner(NamedTuple):
    """The corner e*A*e at an idempotent e, with the maps that build it."""

    e: np.ndarray  # (dim,)
    left: np.ndarray  # L_e: column j is e*b_j
    right: np.ndarray  # R_e: column j is b_j*e
    proj: np.ndarray  # P = R_e L_e, which takes x to e*x*e
    basis: np.ndarray  # the canonical basis (rows) of e*A*e, the image of P


def _maps(A, e):
    """(L_e, R_e, P) for the idempotent e."""
    left, right = A.lmat(e), A.rmat(e)
    return left, right, linalg.matmul_mod(right, left, A.p)


def _size(proj, p):
    """(dim(e*A*e), its basis or None) from P = R_e L_e.

    P is idempotent, so its trace is its rank mod p.  While p > dim the
    rank is below p, and the trace of the reduced P (a sum below dim*p) is
    the dimension; no basis is made.  Otherwise the rank is eliminated, and
    the basis kept.
    """
    if p > len(proj):
        return int(np.trace(proj)) % p, None
    basis = linalg.row_space_basis(proj.T, p)
    return len(basis), basis


def primitive_idempotent(A, c, d, rng):
    """A primitive idempotent e <= c of a semisimple A, from at most SPLIT_CAP
    draws.

    c is a block idempotent and d the dimension of the block's centre, so
    e is primitive exactly when e*A*e has dimension d.  Each draw takes
    x = e*y*e for a random y, one product with the map P = R_e L_e that
    the descent keeps for each e (with L_e and R_e), and reads dim(e*A*e)
    off it (see _size).  The powers e, x, x^2, ... are computed in A, up
    to x^(r*d) when dim(e*A*e) = r^2 d, and the first relation among them
    is the minimal polynomial m of x in e*A*e.  Unless m is primary, e
    moves to the primary component of its least irreducible factor.  A
    block M_1(D) returns a copy of c without a draw, so the caller may
    keep e and c as separate fields.
    """
    A.require_associative()
    return _primitive_corner(A, c, d, rng).e


def _primitive_corner(A, c, d, rng):
    """primitive_idempotent's descent, which returns the Corner at e.

    c is a central idempotent, so c*x*c = c*x = x*c: the descent starts
    from the one map L_c = R_c = P.  A corner whose dimension is no r^2 d
    (a non-semisimple A, in the search that runs before the radical chain)
    keeps all dim + 1 powers.
    """
    p = A.p
    e, draws = c.copy(), 0
    left = right = proj = A.lmat(c)
    size, basis = _size(proj, p)
    while size > d:
        if draws == SPLIT_CAP:
            raise SplitIterationCapExceeded(SPLIT_CAP)
        draws += 1
        x = linalg.matmul_mod(proj, A.random_vec(rng)[:, None], p)[:, 0]
        r = math.isqrt(size // d)
        K = A.powers(x, e, r * d if r * r * d == size else A.dim)
        m = min_poly_of_powers(K, p)
        g, k = poly.factor(m, p, rng)[0]
        part = g
        for _ in range(k - 1):
            part = poly.mul(part, g, p)
        if len(part) < len(m):
            e = _component(p, e, K, poly.exact_div(m, part, p), part)
            left, right, proj = _maps(A, e)
            _require_idempotent(e, linalg.matmul_mod(left, e[:, None], p)[:, 0])
            size, basis = _size(proj, p)
    if basis is None:
        basis = linalg.row_space_basis(proj.T, p)
    return Corner(e, left, right, proj, basis)
