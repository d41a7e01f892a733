"""Block idempotents from the centre, and one primitive idempotent per block.

The central idempotents of the simple blocks are read off the centre Z of
A: the Frobenius fixed space of Z is F_p^k, one coordinate per block, and
the spectral idempotents of its basis rows refine {1} into the k block
idempotents.  Inside a block, the descent follows one branch: it keeps the
least primary component of a random element of the corner until the
corner is the block's entry field.  Neither step builds a corner algebra.
"""

import random

import numpy as np

from . import linalg, poly, radical
from .algebra import min_poly_of_powers
from .errors import InternalInvariantViolation, SplitIterationCapExceeded

DEFAULT_SPLIT_CAP = 256


def _component(B, one, K, rest, part):
    """Idempotent of the `part` component of x, from m = part*rest coprime.

    m is the minimal polynomial of x in the corner with identity `one`, and
    K holds the powers one, x, x^2, ... as rows.  With s*rest + t*part = 1,
    (s*rest)(x) is one on ker part(x) and zero on ker rest(x).  It is
    neither zero nor `one`, by minimality of m.
    """
    _, s, _ = poly.bezout(rest, part, B.p)
    sr = poly.mul(s, rest, B.p)  # degree below deg m <= dim: rows of K suffice
    eps = linalg.matmul_mod(sr[None, :], K[: len(sr)], B.p)[0]
    if not np.array_equal(B.mul_vec(eps, eps), eps):
        raise InternalInvariantViolation("split produced a non-idempotent")
    if not eps.any():
        raise InternalInvariantViolation("split produced zero")
    if np.array_equal(eps, one):
        raise InternalInvariantViolation("split produced the whole identity")
    return eps


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
    radical.require_semisimple(A)
    return _block_idempotents(A)


def _block_idempotents(A):
    """block_idempotents without the semisimplicity gate, for a search whose
    result is checked.  A centre with a nonzero nilpotent raises
    InternalInvariantViolation."""
    p = A.p
    center = A.center_basis()
    Z = A.subalgebra(center, A.one)
    parts = Z.one[None, :]
    rng = random.Random(0)
    fixed = _fixed_space(Z)
    for v in fixed:
        if len(parts) == len(fixed):  # one part per block: nothing to refine
            break
        K = Z.powers(v, Z.one)
        m = min_poly_of_powers(K, p)
        roots = poly.split_squarefree(m, p, rng)
        if any(poly.degree(g) != 1 for g in roots):
            raise InternalInvariantViolation(
                "central fixed vector has a non-split minimal polynomial"
            )
        if len(roots) < 2:
            continue
        roots.sort(key=lambda g: int(g[0]))  # the probes find them in any order
        spectral = np.array([_component(Z, Z.one, K, poly.exact_div(m, g, p), g)
                             for g in roots])
        prods = Z.products(parts, spectral).reshape(-1, Z.dim)
        parts = prods[prods.any(axis=1)]
    degrees = [linalg.rank(Z.lmat(c), p) for c in parts]
    return linalg.matmul_mod(parts, center, p), degrees


def _least_factor(m, p, rng):
    """(g, k): the irreducible factor g of m least in (degree, coefficient)
    order, and its multiplicity k."""
    return min(((g, k) for s, k in poly.squarefree_decomposition(m, p)
                for g in poly.split_squarefree(s, p, rng)),
               key=lambda gk: (len(gk[0]), gk[0].tolist()))


def primitive_idempotent(A, c, d, rng, cap=DEFAULT_SPLIT_CAP):
    """A primitive idempotent e <= c of a semisimple A, from at most cap draws.

    c is a block idempotent and d the dimension of the block's centre, so
    e is primitive exactly when e*A*e has dimension d.  Each draw takes
    x = e*y*e for a random y; the powers e, x, x^2, ... are computed in A,
    and the first relation among them is the minimal polynomial m of x in
    e*A*e.  Unless m is primary, e moves to the primary component of its
    least irreducible factor.  A block M_1(D) returns c without a draw.
    """
    p = A.p
    e, size, draws = c, len(A._hom_rows(c, c)), 0
    while size > d:
        if draws == cap:
            raise SplitIterationCapExceeded(cap)
        draws += 1
        x = A.mul_vec(A.mul_vec(e, A.random_vec(rng)), e)
        K = A.powers(x, e)
        m = min_poly_of_powers(K, p)
        g, k = _least_factor(m, p, rng)
        part = g
        for _ in range(k - 1):
            part = poly.mul(part, g, p)
        if len(part) < len(m):
            e = _component(A, e, K, poly.exact_div(m, part, p), part)
            size = len(A._hom_rows(e, e))
    return e
