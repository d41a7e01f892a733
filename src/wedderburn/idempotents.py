"""Orthogonal primitive idempotent decompositions and equivalence witnesses.

The splitter works inside the corner e*A*e: a corner of dimension 1 is
primitive outright; a corner whose center has Frobenius fixed dimension
above 1 splits deterministically through a central idempotent; a
commutative corner with fixed dimension 1 is a field, which certifies
primitivity; anything else is a full matrix algebra over a field and is
split Las Vegas style from the spectral idempotents of a random element.
"""

import random
from dataclasses import dataclass

import numpy as np

from . import linalg, poly, radical
from .algebra import min_poly_of_powers
from .errors import (
    InternalInvariantViolation,
    NotIdempotent,
    SplitIterationCapExceeded,
    WitnessSolveFailed,
)

DEFAULT_SPLIT_CAP = 256


@dataclass
class Split:
    e1: np.ndarray
    e2: np.ndarray


def _coprime_split(B, K, g, h):
    """Idempotent from m = g*h coprime, where m is the minimal poly of x.

    K holds the powers of x as rows.  With s*g + t*h = 1, the element
    (s*g)(x) squares to itself: modulo m the two summands are orthogonal
    idempotent projections onto ker h(x) and ker g(x).  Nontriviality
    follows from minimality of m.
    """
    _, s, t = poly.bezout(g, h, B.p)
    sg = poly.mul(s, g, B.p)  # degree below deg m <= dim: rows of K suffice
    eps = linalg.matmul_mod(sg[None, :], K[: len(sg)], B.p)[0]
    if not np.array_equal(B.mul_vec(eps, eps), eps):
        raise InternalInvariantViolation("split produced a non-idempotent")
    if not eps.any():
        raise InternalInvariantViolation("split produced zero")
    if np.array_equal(eps, B.one):
        raise InternalInvariantViolation("split produced the whole identity")
    return eps


def _fixed_space(Z):
    """Frobenius fixed space (rows, local coords) of a commutative algebra."""
    F = Z.frobenius_matrix()
    return linalg.kernel((F - np.eye(Z.dim, dtype=np.int64)) % Z.p, Z.p)


def _split_element(B, x):
    """(factors, eps): the factored minimal polynomial m of x and an idempotent.

    eps comes from m = g*h with g the first primary factor of m; it is None
    when m is a power of one irreducible, so x gives nothing to split.
    """
    p = B.p
    K = B.powers(x)
    m = min_poly_of_powers(K, p)
    factors = poly.berlekamp_factor(m, p)
    if len(factors) < 2:
        return factors, None
    g0, mult0 = factors[0]
    g = g0
    for _ in range(mult0 - 1):
        g = poly.mul(g, g0, p)
    h = poly.exact_div(m, g, p)
    return factors, _coprime_split(B, K, g, h)


def split_once(A, e, rng=None, cap=DEFAULT_SPLIT_CAP):
    """One splitting step at the idempotent e (coordinates) of a semisimple A.

    Returns a Split, or None when e is primitive.
    """
    radical.require_semisimple(A)
    e = linalg.as_mod_array(e, A.p)
    if not e.any():
        raise NotIdempotent("cannot split the zero idempotent")
    if rng is None:
        rng = random.Random(0)
    p = A.p

    rows, B = A.corner(e)
    if B.dim == 1:
        return None

    center = B.center_basis()
    Z = B.subalgebra(center, B.one)
    fixed = _fixed_space(Z)
    if fixed.shape[0] > 1:
        # a fixed vector outside the scalar line has a squarefree minimal
        # polynomial that splits into distinct linear factors
        v = None
        for row in fixed:
            if linalg.rank(np.stack([Z.one, row]), p) == 2:
                v = row
                break
        if v is None:
            raise InternalInvariantViolation(
                "fixed space exceeds the scalar line but no witness"
            )
        factors, eps_z = _split_element(Z, v)
        if eps_z is None or any(mult != 1 for _, mult in factors):
            raise InternalInvariantViolation(
                "central fixed vector has a non-split minimal polynomial"
            )
        eps_b = linalg.matmul_mod(eps_z[None, :], center, p)[0]
    elif Z.dim == B.dim:
        # commutative corner with a one-dimensional fixed space: it has one
        # simple factor, so it is a finite field and e is primitive
        return None
    else:
        # full matrix algebra over a field: spectral split of a random element
        for _ in range(cap):
            _, eps_b = _split_element(B, B.random_vec(rng))
            if eps_b is not None:
                break
        else:
            raise SplitIterationCapExceeded(cap)
    e1 = linalg.matmul_mod(eps_b[None, :], rows, p)[0]
    return Split(e1, (e - e1) % p)


def decompose_identity(A, seed=0, cap=DEFAULT_SPLIT_CAP):
    """Orthogonal primitive idempotents summing to 1: a (k, dim) array.

    Worklist order is deterministic: a split replaces its parent in place
    with the two children (first child next in line), so the final part
    order depends only on (A, seed).
    """
    master = random.Random(seed)
    entries = [A.one.copy()]
    i = 0
    while i < len(entries):
        sub_rng = random.Random(master.getrandbits(64))
        outcome = split_once(A, entries[i], rng=sub_rng, cap=cap)
        if outcome is None:
            i += 1
        else:
            entries[i : i + 1] = [outcome.e1, outcome.e2]
    return np.array(entries)


def equivalence_witness(A, e, f):
    """(a, b) with a in f*A*e, b in e*A*f, a*b = f and b*a = e, or None.

    A zero space f*A*e settles inequivalence; otherwise the first reduced
    basis vector of f*A*e is completed to a witness by solving a linear
    system over e*A*f.  A non-idempotent e or f raises NotIdempotent.
    """
    e, f = linalg.as_mod_array(e, A.p), linalg.as_mod_array(f, A.p)
    A.require_idempotent(e)
    if np.array_equal(e, f):
        return e.copy(), e.copy()
    A.require_idempotent(f)
    H = A._hom_rows(f, e)
    if H.shape[0] == 0:
        return None
    a = H[0]
    K = A._hom_rows(e, f)
    # rows: a * (basis of eAf); want a*b = f
    M = linalg.matmul_mod(K, A.lmat(a).T, A.p)
    beta = linalg.coordinates(M, f[None, :], A.p)
    if beta is None:
        raise WitnessSolveFailed(
            "a*b = f has no solution; input was not a primitive pair of a "
            "semisimple presentation"
        )
    return a, linalg.matmul_mod(beta, K, A.p)[0]
