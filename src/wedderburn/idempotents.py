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
from .algebra import Subalgebra
from .errors import (
    InternalInvariantViolation,
    NotIdempotent,
    NotSemisimpleContext,
    OrthogonalityViolation,
    SplitIterationCapExceeded,
    WitnessSolveFailed,
)

DEFAULT_SPLIT_CAP = 256


class Idempotent:
    """An element of A, held as coordinates checked to square to themselves."""

    def __init__(self, A, coords):
        coords = linalg.as_mod_array(coords, A.p)
        A.require_idempotent(coords)
        self.parent = A
        self.coords = coords

    def __repr__(self):
        return f"Idempotent({self.coords.tolist()})"


@dataclass
class Split:
    e1: np.ndarray
    e2: np.ndarray


@dataclass
class OrthogonalDecomposition:
    """Pairwise-orthogonal nonzero idempotent parts summing to `of`."""

    parts: list
    of: Idempotent

    def __post_init__(self):
        A = self.of.parent
        E = np.array([part.coords for part in self.parts])
        if not E.any(axis=1).all():
            raise OrthogonalityViolation("decomposition contains a zero part")
        cross = A.products(E, E).any(axis=2)
        np.fill_diagonal(cross, False)
        if cross.any():
            i, j = np.argwhere(cross)[0]
            raise OrthogonalityViolation(f"parts {i} and {j} are not orthogonal")
        if not np.array_equal(E.sum(axis=0) % A.p, self.of.coords):
            raise OrthogonalityViolation("parts do not sum to target")


@dataclass
class EquivalenceWitness:
    """a in f*A*e and b in e*A*f with a*b = f and b*a = e."""

    e: Idempotent
    f: Idempotent
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = self.e.parent
        e, f, a, b = self.e.coords, self.f.coords, self.a, self.b
        checks = (
            (A.mul_vec(a, b), f, "a*b = f"),
            (A.mul_vec(b, a), e, "b*a = e"),
            (A.mul_vec(A.mul_vec(f, a), e), a, "f*a*e = a"),
            (A.mul_vec(A.mul_vec(e, b), f), b, "e*b*f = b"),
        )
        for got, want, label in checks:
            if not np.array_equal(got, want):
                raise WitnessSolveFailed(f"witness relation {label} fails")


def _require_certified(A):
    report = getattr(A, "_radical_report", None)
    if report is None or not report.is_semisimple:
        raise NotSemisimpleContext(
            "call require_semisimple before splitting idempotents"
        )


def _eval_in(B, coeffs, x):
    """Evaluate a polynomial at the element x of B (Horner, exact)."""
    acc = np.zeros(B.dim, dtype=np.int64)
    for c in coeffs[::-1]:
        acc = (B.mul_vec(acc, x) + int(c) * B.one) % B.p
    return acc


def _coprime_split(B, x, g, h):
    """Idempotent from m = g*h coprime, where m is the minimal poly of x.

    With s*g + t*h = 1, the element (s*g)(x) squares to itself: modulo m the
    two summands are orthogonal idempotent projections onto ker h(x) and
    ker g(x).  Nontriviality follows from minimality of m.
    """
    _, s, t = poly.bezout(g, h, B.p)
    eps = _eval_in(B, poly.mul(s, g, B.p), x)
    if not np.array_equal(B.mul_vec(eps, eps), eps):
        raise InternalInvariantViolation("split produced a non-idempotent")
    if not eps.any():
        raise InternalInvariantViolation("split produced zero")
    if np.array_equal(eps, B.one):
        raise InternalInvariantViolation("split produced the whole identity")
    return eps


def _fixed_space(sub):
    """Frobenius fixed space (rows, local coords) of a commutative algebra."""
    Z = sub.algebra
    F = Z.frobenius_matrix()
    return linalg.kernel((F - np.eye(Z.dim, dtype=np.int64)) % Z.p, Z.p)


def _split_element(B, x):
    """(factors, eps): the factored minimal polynomial m of x and an idempotent.

    eps comes from m = g*h with g the first primary factor of m; it is None
    when m is a power of one irreducible, so x gives nothing to split.
    """
    p = B.p
    m = B.min_poly_vec(x)
    factors = poly.berlekamp_factor(m, p)
    if len(factors) < 2:
        return factors, None
    g0, mult0 = factors[0]
    g = g0
    for _ in range(mult0 - 1):
        g = poly.mul(g, g0, p)
    h = poly.exact_div(m, g, p)
    return factors, _coprime_split(B, x, g, h)


def split_once(A, e, rng=None, cap=DEFAULT_SPLIT_CAP):
    """One splitting step at the idempotent e (coords or Idempotent).

    Returns a Split, or None when e is primitive.
    """
    _require_certified(A)
    if isinstance(e, Idempotent):
        e = e.coords
    e = linalg.as_mod_array(e, A.p)
    if not e.any():
        raise NotIdempotent("cannot split the zero idempotent")
    A.require_idempotent(e)
    if rng is None:
        rng = random.Random(0)
    p = A.p

    B_sub = A.corner(e)
    B = B_sub.algebra
    if B.dim == 1:
        return None

    center_rows = B.center_basis()
    Z_sub = Subalgebra(B, center_rows, identity_parent=B.one)
    fixed = _fixed_space(Z_sub)
    if fixed.shape[0] > 1:
        # a fixed vector outside the scalar line has a squarefree minimal
        # polynomial that splits into distinct linear factors
        one_Z = Z_sub.from_parent(B.one)
        v = None
        for row in fixed:
            if linalg.rank(np.stack([one_Z, row]), p) == 2:
                v = row
                break
        if v is None:
            raise InternalInvariantViolation(
                "fixed space exceeds the scalar line but no witness"
            )
        factors, eps_z = _split_element(Z_sub.algebra, v)
        if eps_z is None or any(mult != 1 for _, mult in factors):
            raise InternalInvariantViolation(
                "central fixed vector has a non-split minimal polynomial"
            )
        eps_b = Z_sub.to_parent(eps_z)
    elif Z_sub.dim == B.dim:
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
    e1 = B_sub.to_parent(eps_b)
    return Split(e1, (e - e1) % p)


def decompose_identity(A, seed=0, cap=DEFAULT_SPLIT_CAP):
    """Complete orthogonal primitive decomposition of the identity.

    Worklist order is deterministic: a split replaces its parent in place
    with the two children (first child next in line), so the final part
    order depends only on (A, seed).
    """
    radical.require_semisimple(A)
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
    parts = [Idempotent(A, c) for c in entries]
    return OrthogonalDecomposition(parts=parts, of=Idempotent(A, A.one))


def equivalence_witness(A, e, f):
    """Witness (a, b) with a*b = f, b*a = e, or None when none exists.

    A zero space f*A*e settles inequivalence; otherwise the first reduced
    basis vector of f*A*e is completed to a witness by solving a linear
    system over e*A*f.
    """
    e_id = e if isinstance(e, Idempotent) else Idempotent(A, e)
    f_id = f if isinstance(f, Idempotent) else Idempotent(A, f)
    e, f = e_id.coords, f_id.coords
    if np.array_equal(e, f):
        return EquivalenceWitness(e_id, f_id, e.copy(), e.copy())
    H = A.hom_space(f, e)
    if H.shape[0] == 0:
        return None
    a = H[0]
    K = A.hom_space(e, f)
    # columns: a * (basis of eAf); want a*b = f
    M = linalg.matmul_mod(A.lmat(a), K.T, A.p)
    beta = linalg.solve_batch(M, f, A.p)
    if beta is None:
        raise WitnessSolveFailed(
            "a*b = f has no solution; input was not a primitive pair of a "
            "semisimple presentation"
        )
    b = linalg.matmul_mod(beta[None, :], K, A.p)[0]
    return EquivalenceWitness(e_id, f_id, a, b)
