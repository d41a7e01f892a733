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
from .algebra import Element, Subalgebra
from .errors import (
    NotIdempotent,
    NotSemisimpleContext,
    OrthogonalityViolation,
    SplitIterationCapExceeded,
    WitnessSolveFailed,
)

DEFAULT_SPLIT_CAP = 256


class Idempotent:
    """An algebra element verified on construction to square to itself."""

    def __init__(self, element):
        if not element.is_idempotent():
            raise NotIdempotent(
                f"{element.coords.tolist()} does not square to itself"
            )
        self.element = element

    @property
    def coords(self):
        return self.element.coords

    @property
    def parent(self):
        return self.element.parent

    def __repr__(self):
        return f"Idempotent({self.element!r})"


@dataclass
class PrimitivityCertificate:
    """Proof data that e*A*e is a field, hence e primitive.

    A commutative semisimple corner whose Frobenius fixed space is a line
    has exactly one simple factor, so it is a finite field; over the finite
    base field that is the only way a corner can be a division ring.
    """

    e: np.ndarray
    corner_dim: int
    frobenius_fixed_dim: int
    corner_commutative: bool

    @property
    def valid(self):
        return self.corner_commutative and self.frobenius_fixed_dim == 1


@dataclass
class Primitive:
    certificate: PrimitivityCertificate


@dataclass
class Split:
    e1: np.ndarray
    e2: np.ndarray


@dataclass
class OrthogonalDecomposition:
    """Pairwise-orthogonal nonzero idempotent parts summing to `of`."""

    parts: list
    of: Idempotent
    certificates: list

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
    a: Element
    b: Element

    def __post_init__(self):
        A = self.e.parent
        e, f = self.e.coords, self.f.coords
        a, b = self.a.coords, self.b.coords
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
    assert np.array_equal(B.mul_vec(eps, eps), eps), "split produced a non-idempotent"
    assert eps.any(), "split produced zero"
    assert not np.array_equal(eps, B.one), "split produced the whole identity"
    return eps


def _fixed_space(sub):
    """Frobenius fixed space (rows, local coords) of a commutative algebra."""
    Z = sub.algebra
    F = Z.frobenius_matrix()
    return linalg.kernel((F - np.eye(Z.dim, dtype=np.int64)) % Z.p, Z.p)


def split_once(A, e, rng=None, cap=DEFAULT_SPLIT_CAP):
    """One splitting step at the idempotent e (coords or Idempotent)."""
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
        return Primitive(PrimitivityCertificate(e, 1, 1, True))

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
        assert v is not None, "fixed space exceeds the scalar line but no witness"
        m = Z_sub.algebra.min_poly_vec(v)
        factors = poly.berlekamp_factor(m, p)
        assert len(factors) >= 2 and all(mult == 1 for _, mult in factors), (
            "central fixed vector has a non-split minimal polynomial"
        )
        g = factors[0][0]
        h = poly.exact_div(m, g, p)
        eps_z = _coprime_split(Z_sub.algebra, v, g, h)
        eps_b = Z_sub.to_parent(eps_z)
        e1 = B_sub.to_parent(eps_b)
        e2 = (e - e1) % p
        return Split(e1, e2)

    if Z_sub.dim == B.dim:
        # commutative corner with a one-dimensional fixed space: a field
        return Primitive(
            PrimitivityCertificate(e, B.dim, 1, True)
        )

    # full matrix algebra over a field: spectral split of a random element
    for _ in range(cap):
        x = B.random_vec(rng)
        m = B.min_poly_vec(x)
        factors = poly.berlekamp_factor(m, p)
        if len(factors) < 2:
            continue
        g0, mult0 = factors[0]
        g = g0
        for _ in range(mult0 - 1):
            g = poly.mul(g, g0, p)
        h = poly.exact_div(m, g, p)
        eps_b = _coprime_split(B, x, g, h)
        e1 = B_sub.to_parent(eps_b)
        e2 = (e - e1) % p
        return Split(e1, e2)
    raise SplitIterationCapExceeded(cap)


def decompose_identity(A, seed=0, cap=DEFAULT_SPLIT_CAP):
    """Complete orthogonal primitive decomposition of the identity.

    Worklist order is deterministic: a split replaces its parent in place
    with the two children (first child next in line), so the final part
    order depends only on (A, seed).
    """
    radical.require_semisimple(A)
    master = random.Random(seed)
    entries = [A.one.copy()]
    certs = [None]
    i = 0
    while i < len(entries):
        sub_rng = random.Random(master.getrandbits(64))
        outcome = split_once(A, entries[i], rng=sub_rng, cap=cap)
        if isinstance(outcome, Primitive):
            certs[i] = outcome.certificate
            i += 1
        else:
            entries[i : i + 1] = [outcome.e1, outcome.e2]
            certs[i : i + 1] = [None, None]
    parts = [Idempotent(A.element(c)) for c in entries]
    return OrthogonalDecomposition(
        parts=parts, of=Idempotent(A.identity()), certificates=certs
    )


def equivalence_witness(A, e, f):
    """Witness (a, b) with a*b = f, b*a = e, or None when none exists.

    A zero space f*A*e settles inequivalence; otherwise the first reduced
    basis vector of f*A*e is completed to a witness by solving a linear
    system over e*A*f.
    """
    e_id = e if isinstance(e, Idempotent) else Idempotent(A.element(e))
    f_id = f if isinstance(f, Idempotent) else Idempotent(A.element(f))
    e, f = e_id.coords, f_id.coords
    if np.array_equal(e, f):
        el = A.element(e)
        return EquivalenceWitness(e_id, f_id, el, el)
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
    return EquivalenceWitness(e_id, f_id, A.element(a), A.element(b))
