"""Block structure of a semisimple algebra and the explicit isomorphism.

Pipeline: the central idempotent c of each block and one primitive
idempotent e <= c come from `idempotents`; the corner e*A*e is the block's
entry field D; a D-basis b of the left ideal A*e and its dual basis a in
e*A give the connecting elements and the matrix units b[mu]*a[nu].  Both
matrices of the map are then in closed form: the iso, the paper's map
x -> (a[mu]*x*b[nu]) in each block, and its inverse E[mu,nu]*d_t ->
b[mu]*d_t*a[nu].  D's basis is an RREF, so an element of D has its
coordinates at D's unit columns (linalg.unit_columns): the iso's entries
and the dual basis's system are read off products, and nothing is
inverted.

The search presumes A associative and semisimple, and runs once per
decomposition, on A as read, with the check at once: an isomorphism that
`check` accepts onto a direct sum of matrix rings over fields proves both.
An exception or a failed relation hands the verdict to the radical chain,
which proves associativity first.

A `DecompositionResult` is the certificate, and what the report serializes:
per block the representative, connecting elements, matrix units, central
idempotent and division basis, plus the iso matrix, its inverse and the
layout.  The search hands plain int64 arrays from stage to stage and does
not re-check what it builds: `check` is the one proof of every relation of
a certificate, exact and without re-running any of the search.
`verify_isomorphism` runs it on a result and `verify_report_doc`, so
`wedderburn verify`, on the result parsed from a report document, always
afresh.  The one verdict kept is the pass of full_isomorphism's check:
`verify_isomorphism` reports it while the algebra is the same object and
every array the check read equals its copy, so a decomposition runs one
all-pairs check.

The target is an external direct sum, so `check` and `target_multiply`
multiply one block at a time, as n x n matrices over the d^3 table of the
block's entry field D, and build no table of M_n(D); only
`codomain_algebra` presents the whole sum, through `algebra.matrix_ring`.
`check` proves the map once, a unital ring isomorphism onto the sum that
sends each certificate vector to its standard element (a[mu] to E[0,mu],
units[mu,nu] to E[mu,nu], ...), and so reads every relation of the
certificate off it; the proofs are in its docstring.  On an algebra whose
associativity is still pending (a document read by algebra.from_doc), a
passing `check` proves it from the isomorphism and marks A proved, and
after a failing one its callers run the associativity certificate first.
"""

import random
import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import generators, idempotents, linalg, radical
from .algebra import doc_array, is_doc_int, matrix_ring
from .errors import (
    EntryOutsideCorner,
    InvalidDocument,
    NonBijective,
    NotAssociative,
    ShapeMismatch,
    WitnessSolveFailed,
)

class DivisionAlgebra(NamedTuple):
    """The block's entry field: a basis of the corner rep*A*rep."""

    basis: np.ndarray  # (degree, dim), over A's basis
    degree: int


@dataclass
class Block:
    """One block M_n(D); every vector is in A's coordinates.

    a[mu] lies in rep*A*e_mu and b[mu] in e_mu*A*rep, with a[mu]*b[mu] = rep
    and b[mu]*a[mu] = e_mu; units[mu, nu] = b[mu]*a[nu]; c is the central
    idempotent, the sum of the members e_mu.
    """

    index: int
    n: int
    D: DivisionAlgebra
    rep: np.ndarray  # (dim,)
    c: np.ndarray  # (dim,)
    a: np.ndarray  # (n, dim)
    b: np.ndarray  # (n, dim)
    units: np.ndarray  # (n, n, dim)


_FLAGS = ("bijective", "unit", "multiplicative", "orthogonality")


@dataclass
class VerificationReport:
    """Flags for the map itself; a failed certificate relation (an entry
    field, the layout, the image of a certificate vector) shows only in
    failures and `passed`."""

    bijective: bool
    unit: bool
    multiplicative: bool
    orthogonality: bool
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return all(getattr(self, name) for name in _FLAGS) and not self.failures


@dataclass
class DecompositionResult:
    blocks: list
    iso: np.ndarray
    iso_inverse: np.ndarray
    layout: np.ndarray  # int64 (dim, 4): rows (block index, mu, nu, D-basis index)
    p: int
    dim: int
    seed: int
    # a pass of check in full_isomorphism, for verify_isomorphism (_Proof)
    _proof: object = field(default=None, init=False, repr=False, compare=False)


class _Proof(NamedTuple):
    """A passing check of a result: a weak reference to the algebra it ran
    on, and exact copies of everything of the result it read
    (_read_by_check).  A deep copy or a pickle of the result drops it, to
    be proved again."""

    algebra: weakref.ref
    arrays: list

    def __reduce_ex__(self, protocol):
        return type(None), ()


class Failure(NamedTuple):
    relation: str  # a VerificationReport flag name, or "certificate"
    message: str  # names the relation, the block and the indices


def matrix_units(A, a, left_b):
    """Grid units[mu, nu] = b[mu]*a[nu]: a against the maps y -> b[mu]*y,
    left_b = A.left(b), which the search computes once per block."""
    return linalg.matmul_mod(a, left_b, A.p)


def dual_basis(A, corner):
    """Connecting elements (a, b) of a block at its primitive idempotent e,
    and right = A.right(b), whose products b_j*b[nu] the iso reads.

    corner is the idempotents.Corner at e <= c, c central, whose basis D is
    the entry field e*A*e, an RREF whose unit columns u (linalg.unit_columns)
    hold the coordinates of its elements; its kept maps give the two spaces
    below, since c*x*e = x*e and e*x*c = e*x.  b[0] = e, and b[1:] are the
    rows v of (c-e)*A*e, the image of R_e - P, taken in order while v*D adds
    rank: those with a pivot among their d columns in one row_echelon of
    [D; v_1 D; v_2 D; ...] transposed.  They form a basis of the left ideal
    A*e as a right D-module.  The pairing e*A x A*e -> D is perfect, so
    a[mu] in e*A*c = e*A (the image of L_e) with a[mu]*b[nu] =
    delta(mu,nu) e is unique, and one elimination finds it.  The rows
    y_j = e*b_j of L_e^T span e*A; their pairing P[j, (nu, t)] with b is
    entry u_t of y_j*b[nu], an element of D.  One row_echelon of
    [P^T | target^T], target[mu, (nu, t)] = delta(mu,nu) e[u_t], solves
    alpha P = target: P^T has rank n*d exactly when the pairing is perfect,
    alpha is the target part of the RREF at its pivots j (zero elsewhere),
    and a = alpha Y.  WitnessSolveFailed when the rank is below n*d.
    """
    p, e, D, dim = A.p, corner.e, corner.basis, A.dim
    d, u = len(D), linalg.unit_columns(D)
    rest = linalg.row_space_basis(((corner.right - corner.proj) % p).T, p)
    b = np.array([e])
    if len(rest):
        cols = np.concatenate([D, A.products(rest, D).reshape(-1, dim)]).T
        _, pivots = linalg.row_echelon(cols, p)
        taken = sorted({(j - d) // d for j in pivots if j >= d})
        b = np.concatenate([b, rest[taken]])
    n = len(b)
    right = A.right(b)  # right[j, nu] = b_j * b[nu]
    # row (nu, t) of P^T: entry u_t of y_j * b[nu] over the rows j
    pairing_t = linalg.matmul_mod(right[:, :, u].reshape(dim, n * d).T,
                                  corner.left, p)
    # row (nu, t) of target^T: delta(mu,nu) e[u_t] over mu
    target_t = np.eye(n, dtype=np.int64)[:, None, :] * e[u][:, None]
    R, pivots = linalg.row_echelon(
        np.concatenate([pairing_t, target_t.reshape(n * d, n)], axis=1), p)
    if len(pivots) < n * d or pivots[-1] >= dim:
        raise WitnessSolveFailed(
            "a*b = delta*e has no solution: e is not a primitive idempotent "
            "of a semisimple block"
        )
    # a = alpha Y, alpha[:, pivots] = R[:, dim:]^T and Y[pivots] = L_e[:, pivots]^T
    return linalg.matmul_mod(R[:, dim:].T, corner.left[:, pivots].T, p), b, right


def _iso_rows(A, blk, right):
    """The block's rows (mu, nu, t) of iso, the paper's map: column j is
    entry u_t of a[mu]*(b_j*b[nu]), u the unit columns of the division
    basis, and right = A.right(b).  One stacked product of the b_j*b[nu]
    with the u columns of the maps y -> a[mu]*y."""
    n, d, dim = blk.n, blk.D.degree, A.dim
    left = A.left(blk.a)[:, :, linalg.unit_columns(blk.D.basis)]
    # rows[mu, (j, nu), t] = entry u_t of a[mu]*(b_j*b[nu])
    rows = linalg.matmul_mod(right.reshape(dim * n, dim), left, A.p)
    return rows.reshape(n, dim, n, d).transpose(0, 2, 3, 1).reshape(-1, dim)


def _layout(shapes):
    """Rows (block, mu, nu, t) of the flattened target, for (n, d) per block."""
    return np.array([
        (index, mu, nu, t)
        for index, (n_i, d_i) in enumerate(shapes)
        for mu in range(n_i)
        for nu in range(n_i)
        for t in range(d_i)
    ], dtype=np.int64).reshape(-1, 4)


def _witness(A, blocks, lefts):
    """W, the iso inverse: column (block, mu, nu, t) is b[mu]*d_t*a[nu].
    lefts holds A.left(b) of each block, the maps y -> b[mu]*y."""
    cols = []
    for blk, left_b in zip(blocks, lefts):
        n, d, dim = blk.n, blk.D.degree, A.dim
        # bda[mu, t, nu] = (b[mu] * d_t) * a[nu], through the maps y -> y*a[nu]
        bd = linalg.matmul_mod(blk.D.basis, left_b, A.p).reshape(-1, dim)
        bda = linalg.matmul_mod(bd, A.right(blk.a).reshape(dim, n * dim), A.p)
        bda = bda.reshape(n, d, n, dim).transpose(0, 2, 1, 3)
        cols.append(bda.reshape(-1, dim))
    return np.concatenate(cols).T


def _search(A, seed):
    """The certificate the search builds, unchecked; A is taken as semisimple.

    Per block: its central idempotent c, one primitive idempotent e <= c
    (at most idempotents.SPLIT_CAP draws, from a generator seeded by seed
    and the block's place), and from the corner maps the descent keeps, the
    entry field e*A*e and the dual basis that gives the connecting elements
    and matrix units.  Both matrices of the map are in closed form: the
    iso's rows are read off products (_iso_rows) and the witness W is its
    inverse (_witness), with no elimination.  One A.left(b) per block
    serves both the matrix units and W.  NonBijective when they are
    not square; a singular W is left to check, which proves
    iso * W = I.
    """
    C, degrees = idempotents._block_idempotents(A)
    master = random.Random(seed)
    found = []
    for c, d in zip(C, degrees):
        rng = random.Random(master.getrandbits(64))
        corner = idempotents._primitive_corner(A, c, d, rng)
        a, b, right = dual_basis(A, corner)
        left_b = A.left(b)
        blk = Block(index=None, n=len(a),
                    D=DivisionAlgebra(basis=corner.basis, degree=d),
                    rep=corner.e, c=c, a=a, b=b,
                    units=matrix_units(A, a, left_b))
        found.append((blk, _iso_rows(A, blk, right), left_b))
    found.sort(key=lambda kept: (kept[0].n, kept[0].D.degree, kept[0].c.tolist()))
    for index, (blk, _, _) in enumerate(found):
        blk.index = index
    iso = np.concatenate([rows for _, rows, _ in found])
    if iso.shape != (A.dim, A.dim):
        raise NonBijective("assembled block map is not square")
    ordered = [blk for blk, _, _ in found]
    return DecompositionResult(
        blocks=ordered,
        iso=iso,
        iso_inverse=_witness(A, ordered, [left_b for _, _, left_b in found]),
        layout=_layout((blk.n, blk.D.degree) for blk in ordered),
        p=A.p,
        dim=A.dim,
        seed=seed,
    )


def full_isomorphism(A, seed=0):
    """End-to-end decomposition with the assembled invertible map.

    A's associativity may be pending, as check proves it with the result.
    At every p the search runs first, and check at once; a pass marks A
    proved and is kept on the result (_proved), which verify_isomorphism
    then reports without a second check.  An exception or a failed relation
    runs the radical chain, which proves associativity first; then
    NotSemisimple carries the certified radical, or on a zero radical the
    search's own error is raised, or its result returned.  The search runs
    once either way.  A singular witness is such a failed relation (check's
    bijective stage); the search raises NonBijective only for a map that is
    not square.
    """
    try:
        result = _search(A, seed)
        failed = _proved(A, result)
    except Exception:
        radical.require_semisimple(A)
        raise
    if failed:
        radical.require_semisimple(A)
    return result


def _read_by_check(cert):
    """Everything of a certificate that check reads, in a fixed order."""
    return [cert.iso, cert.iso_inverse, cert.layout, *chain.from_iterable(
        (blk.n, blk.D.degree, blk.D.basis, blk.rep, blk.c, blk.a, blk.b,
         blk.units) for blk in cert.blocks)]


def _proved(A, cert):
    """check(A, cert), whose pass marks A proved, and is kept on cert for
    verify_isomorphism.  A failure is not: it sends the search to the
    radical chain, and a result that still comes back is proved again."""
    fails = check(A, cert)
    if not fails:
        cert._proof = _Proof(weakref.ref(A),
                             [np.array(x) for x in _read_by_check(cert)])
    return fails


def _verdict(A, cert):
    """[] when cert keeps a pass of check on A and every array check read
    still equals its copy, in shape and every entry; otherwise check(A,
    cert).  A's constants and identity are read-only, so A is told by
    identity."""
    proof = cert._proof
    if proof is not None and proof.algebra() is A:
        now = _read_by_check(cert)
        if len(now) == len(proof.arrays) and all(
                np.array_equal(x, kept) for x, kept in zip(now, proof.arrays)):
            return []
    return check(A, cert)


def _entry_field(A, blk):
    """Presentation of the block's entry field in its division basis."""
    return A.subalgebra(blk.D.basis, blk.rep)


def codomain_algebra(A, result):
    """Presentation of the block direct sum in the flattened coordinates."""
    return generators.direct_sum([matrix_ring(_entry_field(A, blk), blk.n)
                                  for blk in result.blocks])


def _check_division_basis(A, bi, blk, fail):
    """The block's entry ring; None (after a failure) unless it is a field
    whose identity is the representative.

    The presentation reads coordinates off the basis's unit columns, which
    a reduced basis has, or else eliminates (linalg.coordinates); only a
    refused one is ranked, to tell a dependent basis from one that is not
    closed under product.  More rows than A's dimension are dependent, and
    are refused before any product, which would cost degree^2 * dim entries.

    D starts pending, as every Algebra does, and D.require_associative
    proves it (see check), with no draw when the degree is at most the
    closure's draw cap (every degree up to 4): every basis triple."""
    if blk.D.degree > A.dim:
        return fail(f"block {bi}: division basis is not independent")
    try:
        D = _entry_field(A, blk)
    except EntryOutsideCorner:
        if linalg.rank(blk.D.basis, A.p) != blk.D.degree:
            return fail(f"block {bi}: division basis is not independent")
        return fail(f"block {bi}: division basis is not closed under product")
    if not D._is_identity(D.one):
        return fail(f"block {bi}: representative is not the identity of the "
                    "division corner")
    try:
        D.require_associative()
    except NotAssociative:
        return fail(f"block {bi}: division corner is not associative")
    if not D.is_commutative():
        return fail(f"block {bi}: division corner is not commutative")
    fixed = D.frobenius_fixed_space()
    if fixed is None or len(fixed) != 1:
        return fail(f"block {bi}: division corner is not a field")
    return D


def _standard_images(A, cert, fields):
    """(X, want, names): the certificate vectors as rows of X, in A's
    coordinates, the element of the target T each must map to, and the
    Failure that names a wrong image.  In order: 1, the central idempotents,
    then per block rep, a, b, the matrix units and the division basis."""
    n, start = A.dim, 0
    ones, rows, wants, names = [], [], [], []
    for bi, (blk, D) in enumerate(zip(cert.blocks, fields)):
        n_i, d = blk.n, blk.D.degree
        size, eye = n_i * n_i * d, np.eye(n_i, dtype=np.int64)
        # rows (mu, nu): E[mu,nu]*1_D; then the d rows E[0,0]*d_t
        E = np.zeros((n_i * n_i + d, n), dtype=np.int64)
        E[:n_i * n_i, start:start + size] = np.einsum(
            "ma,nb,t->mnabt", eye, eye, D.one).reshape(n_i * n_i, size)
        E[n_i * n_i + np.arange(d), start + np.arange(d)] = 1
        units = E[:n_i * n_i]
        ones.append(units[::n_i + 1].sum(axis=0))
        rows += [blk.rep[None], blk.a, blk.b, blk.units.reshape(-1, n), blk.D.basis]
        wants += [units[:1], units[:n_i], units[::n_i], units, E[n_i * n_i:]]
        names += [f"block {bi}: {what} does not map to {where}" for what, where in [
            ("representative", "E[0,0]"),
            *((f"a[{mu}]", f"E[0,{mu}]") for mu in range(n_i)),
            *((f"b[{mu}]", f"E[{mu},0]") for mu in range(n_i)),
            *((f"matrix unit ({mu},{nu})", f"E[{mu},{nu}]")
              for mu in range(n_i) for nu in range(n_i)),
            *((f"division basis row {t}", f"E[0,0]*d_{t}") for t in range(d))]]
        start += size
    X = np.concatenate([A.one[None], [blk.c for blk in cert.blocks], *rows])
    want = np.concatenate([sum(ones)[None], ones, *wants])
    names = ([Failure("unit", "image of the identity is not the block identity")]
             + [Failure("orthogonality", f"central idempotent of block {bi} "
                        "does not map to its block identity")
                for bi in range(len(cert.blocks))]
             + [Failure("certificate", message) for message in names])
    return X, want, names


def check(A, cert):
    """Re-prove every relation of a certificate; returns a list of Failure.

    cert is a DecompositionResult, from full_isomorphism or parsed from a
    report.  An empty list proves that cert.iso is a unital ring isomorphism
    from A onto T, the direct sum of the blocks M_n(D), D a field, with
    inverse cert.iso_inverse, that sends every certificate vector to its
    standard element of T.  Each stage runs only if the earlier ones pass:
    (1) each entry field is a field with identity rep (presented off its
    basis's unit columns, with no elimination, when it has them), and the
    layout matches; (2) iso * iso_inverse = I, so iso is bijective (both
    are square; the search inverts neither, so this is the one proof that
    they are inverse); (3) one product iso @ X checks that 1 maps to 1_T
    (unit), each c to its block identity (orthogonality), rep, a[mu],
    b[mu] and units[mu,nu] to E[0,0], E[0,mu], E[mu,0] and E[mu,nu] times
    1_D, and row t of the division basis to E[0,0]*d_t; and, whatever (3)
    finds, (4) iso is multiplicative on every basis pair (_all_pairs),
    which names the first pair that fails.

    An isomorphism that sends each vector to its standard element carries
    every relation of the certificate to the same relation in T, so each
    holds in A: a[mu]*b[nu] = delta(mu,nu) rep, units = b*a and the unit
    relations, the members units[mu,mu] orthogonal idempotents summing to
    c, the c central, orthogonal and summing to 1, and span D = rep*A*rep
    (the preimage of E[0,0]*T*E[0,0]).  As iso(b[mu]*d_t*a[nu]) =
    E[mu,nu]*d_t, iso_inverse is the witness matrix of the search, which
    is never built here.

    Associativity from the isomorphism.  Each entry field D also proves
    its own associativity (require_associative: every basis triple at
    small degree), as nothing else proves it.  If then no stage
    fails, iso is a bijection onto T with iso(b_i*b_j) = iso(b_i)*iso(b_j)
    for every basis pair, and T is associative, as every D is, with
    identity rep; so A is associative, and check marks it proved.  A
    failure proves nothing about it: verify_isomorphism and
    verify_report_doc then run the certificate first (_certify_on_failure),
    and full_isomorphism the radical chain, which does the same.
    """
    p, n = A.p, A.dim
    fails = []

    def fail(message, relation="certificate"):
        fails.append(Failure(relation, message))

    fields = [_check_division_basis(A, bi, blk, fail)
              for bi, blk in enumerate(cert.blocks)]
    layout = _layout((blk.n, blk.D.degree) for blk in cert.blocks)
    if len(layout) != n:
        fail("block dimensions do not sum to the algebra dimension")
    elif cert.layout.shape != layout.shape:
        fail(f"layout has {len(cert.layout)} rows, expected {n}")
    else:
        for r in np.flatnonzero((cert.layout != layout).any(axis=1))[:1]:
            fail(f"layout row {r} is {cert.layout[r].tolist()}, "
                 f"expected {layout[r].tolist()}")
    if fails:
        return fails

    iso = cert.iso
    product = linalg.matmul_mod(iso, cert.iso_inverse, p)
    for i, j in np.argwhere(product != np.eye(n, dtype=np.int64))[:1]:
        return [Failure("bijective",
                        f"iso * iso_inverse differs from the identity at ({i},{j})")]

    X, want, names = _standard_images(A, cert, fields)
    wrong = (linalg.matmul_mod(iso, X.T, p).T != want).any(axis=1)
    fails += [names[r] for r in np.flatnonzero(wrong)]
    targets = [(D, blk.n) for blk, D in zip(cert.blocks, fields)]
    for i, j in _all_pairs(A, iso, targets):
        fail(f"multiplicativity fails at basis pair ({i},{j})", "multiplicative")
    if not fails:
        A._pending = False
    return fails


def _block_products(D, n, X, Y):
    """out[i, j] = X[i]*Y[j] in M_n(D), elements in flat (mu, nu, t) rows.

    The n x n matrices are multiplied over D's d^3 table, so no table of
    M_n(D) is built: right[i] takes column eta of Y[j], stacked over
    (nu, t), to column eta of X[i]*Y[j], stacked over (mu, u).
    """
    p, d = D.p, D.dim
    k, m = len(X), len(Y)
    # xd[i, mu, nu, t, u]: coordinate u of X[i, mu, nu] * d_t in D
    xd = D.left(X.reshape(-1, d))
    right = xd.reshape(k, n, n, d, d).transpose(0, 2, 3, 1, 4)
    cols = Y.reshape(m, n, n, d).transpose(0, 2, 1, 3).reshape(m * n, n * d)
    # out[i, (j, eta), (mu, u)]
    out = linalg.matmul_mod(cols, right.reshape(k, n * d, n * d), p)
    out = out.reshape(k, m, n, n, d).transpose(0, 1, 3, 2, 4)
    return out.reshape(k, m, n * n * d)


# int64 entries of the images one row block of the all-pairs stage holds
_PAIR_ENTRIES = 2**20


def _all_pairs(A, iso, targets):
    """[(i, j)] for the first basis pair with iso(b_i b_j) != iso(b_i) iso(b_j),
    or [] when there is none: dim^2 products, a block of rows i at a time,
    in order, up to the first block with a defect.  The right side is
    multiplied in each block of the target alone."""
    n, images = A.dim, iso.T  # row j of images: iso(b_j)
    step = max(1, _PAIR_ENTRIES // (n * n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        # got[i, j] = iso(b_(lo+i) b_j); differ[i, j] where it is wrong
        got = A.pair_products(images, lo, hi).reshape(hi - lo, n, n)
        differ, row = np.zeros((hi - lo, n), dtype=bool), 0
        for D, n_i in targets:
            cols = slice(row, row + n_i * n_i * D.dim)
            want = _block_products(D, n_i, images[lo:hi, cols], images[:, cols])
            differ |= (got[:, :, cols] != want).any(axis=2)
            row = cols.stop
        for i, j in np.argwhere(differ)[:1]:
            return [(lo + i, j)]
    return []


def verify_isomorphism(A, result, check_multiplicative=True):
    """Exact proof of a result: `check` on its certificate arrays, or the
    pass full_isomorphism's own check kept, while A is the algebra it ran
    on and every array it read equals its kept copy (_verdict).  A changed
    array, a deep copy of the result or another algebra, even one read
    from the same document, is proved again.

    There is one level: multiplicativity is always proved pair by pair, for
    all basis pairs.  On an A whose associativity is pending, a passing
    check proves it and marks A proved, and a failing one runs the
    certificate first, so a non-associative A raises NotAssociative.
    check_multiplicative is accepted only as True; the keyword remains for
    callers that still pass it.
    """
    if check_multiplicative is not True:
        raise ValueError("verification always proves the all-pairs product "
                         "relation; there is no partial level")
    return _report(_certify_on_failure(A, lambda: _verdict(A, result)))


def _certify_on_failure(A, verdict):
    """verdict(), a list of failures, with A's associativity proved first
    whenever it returns any or raises.

    On an algebra whose associativity is pending, such a failure may only
    reflect constants that do not associate; require_associative then
    raises NotAssociative with the first failing triple ahead of it.  A
    passing verdict of check proves associativity itself, so it runs no
    certificate.
    """
    try:
        fails = verdict()
    except Exception:
        A.require_associative()
        raise
    if fails:
        A.require_associative()
    return fails


def _report(fails):
    """The VerificationReport of check's failures: a flag is false exactly
    when a failure names its relation."""
    failed = {f.relation for f in fails}
    return VerificationReport(**{name: name not in failed for name in _FLAGS},
                              failures=[f.message for f in fails])


def apply_iso(result, x):
    """Flat target coordinates of x, reshaped per block into entry grids."""
    x = doc_array(x, (result.dim,), "element", ShapeMismatch)
    flat = linalg.matmul_mod(result.iso, x[:, None], result.p)[:, 0]
    return unflatten(result, flat)


def unflatten(result, flat):
    grids, row = [], 0
    for blk in result.blocks:
        size = blk.n * blk.n * blk.D.degree
        cells = np.array(flat[row:row + size]).reshape(blk.n, blk.n, -1)
        grids.append([list(cells_row) for cells_row in cells])
        row += size
    return grids


def flatten(result, grids):
    if len(grids) != len(result.blocks):
        raise ShapeMismatch("wrong number of blocks")
    flat = []
    for blk, grid in zip(result.blocks, grids):
        shape = (blk.n, blk.n, blk.D.degree)
        cells = doc_array(grid, shape, f"block {blk.index} grid", ShapeMismatch)
        flat.append(cells.reshape(-1) % result.p)
    return np.concatenate(flat)


def target_multiply(A, result, X, Y):
    """Blockwise matrix product with entries multiplied in each block's D."""
    flat_x, flat_y = flatten(result, X), flatten(result, Y)
    out, row = [], 0
    for blk in result.blocks:
        cols = slice(row, row + blk.n * blk.n * blk.D.degree)
        out.append(_block_products(_entry_field(A, blk), blk.n,
                                   flat_x[None, cols], flat_y[None, cols])[0, 0])
        row = cols.stop
    return unflatten(result, np.concatenate(out))


# -- serialization -------------------------------------------------------------


_BLOCK_KEYS = ("n", "division_degree", "representative_idempotent",
               "central_idempotent", "connecting_a", "connecting_b",
               "matrix_units", "division_basis")


def _parse_certificate(A, doc):
    """The certificate a report carries; InvalidDocument on any fault of form."""
    if not isinstance(doc, dict):
        raise InvalidDocument("report document must be an object")
    for key in ("p", "dim", "seed", "blocks", "iso_matrix", "iso_inverse",
                "layout", "verification"):
        if key not in doc:
            raise InvalidDocument(f"report document missing {key!r}")
    for key, what, value in (("p", "modulus", A.p), ("dim", "dimension", A.dim)):
        if not is_doc_int(doc[key]) or doc[key] != value:
            raise InvalidDocument(f"report {what} {doc[key]!r} does not match "
                                  f"the algebra {what} {value}")
    if not is_doc_int(doc["seed"]):
        raise InvalidDocument(f"report seed {doc['seed']!r} is not an integer")
    flags = doc["verification"]
    if not (isinstance(flags, dict) and set(flags) == set(_FLAGS)
            and all(isinstance(v, bool) for v in flags.values())):
        raise InvalidDocument("report field 'verification' must map exactly "
                              f"{', '.join(_FLAGS)} to booleans")
    if not isinstance(doc["blocks"], list) or not doc["blocks"]:
        raise InvalidDocument("report field 'blocks' must be a non-empty list")
    n = A.dim

    def arr(x, shape, what):
        return doc_array(x, shape, what) % A.p

    blocks = []
    for bi, bdoc in enumerate(doc["blocks"]):
        if not isinstance(bdoc, dict) or not set(_BLOCK_KEYS) <= bdoc.keys():
            raise InvalidDocument(f"block {bi} is not an object with the keys "
                                  f"{', '.join(_BLOCK_KEYS)}")
        n_i, d = bdoc["n"], bdoc["division_degree"]
        if not (is_doc_int(n_i) and n_i >= 1 and is_doc_int(d) and d >= 1):
            raise InvalidDocument(f"block {bi} has invalid sizes")
        blocks.append(Block(
            index=bi, n=n_i,
            rep=arr(bdoc["representative_idempotent"], (n,),
                    f"block {bi} representative"),
            c=arr(bdoc["central_idempotent"], (n,), f"block {bi} center"),
            a=arr(bdoc["connecting_a"], (n_i, n), f"block {bi} connecting_a"),
            b=arr(bdoc["connecting_b"], (n_i, n), f"block {bi} connecting_b"),
            units=arr(bdoc["matrix_units"], (n_i, n_i, n), f"block {bi} matrix units"),
            D=DivisionAlgebra(arr(bdoc["division_basis"], (d, n),
                                  f"block {bi} division basis"), d),
        ))
    return DecompositionResult(
        blocks=blocks,
        iso=arr(doc["iso_matrix"], (n, n), "iso_matrix"),
        iso_inverse=arr(doc["iso_inverse"], (n, n), "iso_inverse"),
        layout=doc_array(doc["layout"], (None, 4), "layout"),
        p=A.p, dim=n, seed=doc["seed"],
    )


def verify_report_doc(A, doc):
    """Re-prove a serialized report against its algebra document.

    Returns the list of failed-relation messages (empty means the report
    verifies): the ones verify_isomorphism reports for the same arrays, then
    one per verification flag of the report that differs from the flag
    those failures give.  Structural problems (missing fields, wrong shapes
    or types, mismatched modulus) raise InvalidDocument instead, since they
    are input errors rather than disproofs.  On an A whose associativity is
    pending (from_doc), any failure or exception comes after the
    certificate: a non-associative A raises NotAssociative.
    """
    return _certify_on_failure(A, lambda: _report_messages(A, doc))


def _report_messages(A, doc):
    found = _report(check(A, _parse_certificate(A, doc)))
    claimed = doc["verification"]
    return found.failures + [
        f"report flag {name} is {str(claimed[name]).lower()}, but the check "
        f"finds {str(getattr(found, name)).lower()}"
        for name in _FLAGS if claimed[name] != getattr(found, name)
    ]


def result_to_doc(result, verification):
    """The report document: the certificate, the seed and the verification flags."""
    return {
        "p": int(result.p),
        "dim": int(result.dim),
        "seed": int(result.seed),
        "blocks": [{
            "n": int(blk.n),
            "division_degree": int(blk.D.degree),
            "central_idempotent": blk.c.tolist(),
            "representative_idempotent": blk.rep.tolist(),
            "connecting_a": blk.a.tolist(),
            "connecting_b": blk.b.tolist(),
            "matrix_units": blk.units.tolist(),
            "division_basis": blk.D.basis.tolist(),
        } for blk in result.blocks],
        "iso_matrix": result.iso.tolist(),
        "iso_inverse": result.iso_inverse.tolist(),
        "layout": result.layout.tolist(),
        "verification": {name: getattr(verification, name) for name in _FLAGS},
    }
