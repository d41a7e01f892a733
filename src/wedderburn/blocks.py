"""Block structure of a semisimple algebra and the explicit isomorphism.

Pipeline: the central idempotent c of each block and one primitive
idempotent e <= c come from `idempotents`; the corner e*A*e is the block's
entry field D; a D-basis b of the left ideal A*e and its dual basis a in
e*A give the connecting elements and the matrix units b[mu]*a[nu]; and the
global linear map sends x to the tuple of block matrices (a_mu * x * b_nu).

The search presumes A semisimple.  Where the trace form settles that, or a
radical report is cached, the radical decides first.  Otherwise the search
runs before the deep radical chain, with a small draw cap, and its result
stands only if `check` accepts it: an isomorphism onto a direct sum of
matrix rings over fields proves A semisimple.  Any failure hands the
verdict to the chain.

A `DecompositionResult` is the certificate, and what the report serializes:
per block the representative, connecting elements, matrix units, central
idempotent and division basis, plus the iso matrix, its inverse and the
layout.  The search hands plain int64 arrays from stage to stage and does
not re-check what it builds: `check` is the one proof of every relation of
a certificate, exact and without re-running any of the search, and no
verdict of it is kept.  `verify_isomorphism` runs it on a result and
`verify_report_doc` on the result parsed from a report document.
"""

import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import idempotents, linalg, radical
from .algebra import Algebra, doc_array, is_doc_int
from .errors import (
    EntryOutsideCorner,
    InvalidDocument,
    NonBijective,
    ShapeMismatch,
    WedderburnError,
    WitnessSolveFailed,
)

# Draws per block of the search that runs before semisimplicity is known.
# A draw in an M_2(F_3) block fails to split with probability 45/81, the
# worst case measured: in 3000 descents each in M_2(F_3), M_2(F_9),
# M_3(F_3), M_4(F_3), M_5(F_3) and M_5(F_5) the share needing more than k
# draws fell by about that factor per draw, and none needed more than 16.
# So a semisimple input runs the chain needlessly with probability below
# 10^-8 per block, and a rejection that the search cannot see through pays
# at most this many draws (under a millisecond each at dim 30) first.
_OPTIMISTIC_CAP = 32


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
    """Flags for the map itself; a failed certificate relation (witnesses,
    units, division basis, iso rows) shows only in failures and `passed`."""

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


class Failure(NamedTuple):
    relation: str  # a VerificationReport flag name, or "certificate"
    message: str  # names the relation, the block and the indices


def _unit_relations(A, units):
    """Messages for every failed E[mu,nu] * E[xi,eta] = delta(nu,xi) E[mu,eta]."""
    n_i = units.shape[0]
    flat = units.reshape(n_i * n_i, A.dim)
    diff = A.products(flat, flat).reshape(n_i, n_i, n_i, n_i, A.dim)
    diag = np.arange(n_i)
    diff[:, diag, diag] -= units[:, None]
    return [
        f"unit relation ({mu},{nu})*({xi},{eta}) fails"
        for mu, nu, xi, eta in np.argwhere(diff.any(axis=4))
    ]


def matrix_units(A, a, b):
    """Grid units[mu, nu] = b[mu]*a[nu]."""
    return A.products(b, a)


def dual_basis(A, c, e, D):
    """Connecting elements (a, b) of the block c at its primitive idempotent e.

    D is the basis of the entry field e*A*e.  b[0] = e, and b[1:] are the
    rows of (c-e)*A*e taken in order while b[nu]*D adds rank: a basis of
    the left ideal A*e as a right D-module.  The pairing e*A x A*e -> D is
    perfect, so a[mu] in e*A*c with a[mu]*b[nu] = delta(mu,nu) e is the
    one solution of one linear system, and a[0] = e.
    """
    p = A.p
    span, pivots = linalg.row_echelon(D, p)
    b = [e]
    rest = A._hom_rows((c - e) % p, e)
    for v, vD in zip(rest, A.products(rest, D)):
        span, pivots, fresh = linalg.extend_rref(span, pivots, vD, p)
        if len(fresh):
            b.append(v)
    b = np.array(b)
    n = len(b)
    W = A._hom_rows(e, c)
    # row r: w_r * b[nu] for nu = 0 .. n-1; target row mu: delta(mu,nu) e
    pairing = A.products(W, b).reshape(len(W), n * A.dim)
    alpha = linalg.coordinates(pairing, np.kron(np.eye(n, dtype=np.int64), e), p)
    if alpha is None:
        raise WitnessSolveFailed(
            "a*b = delta*e has no solution: e is not a primitive idempotent "
            "of a semisimple block"
        )
    return linalg.matmul_mod(alpha, W, p), b


def _layout(shapes):
    """Rows (block, mu, nu, t) of the flattened target, for (n, d) per block."""
    return np.array([
        (index, mu, nu, t)
        for index, (n_i, d_i) in enumerate(shapes)
        for mu in range(n_i)
        for nu in range(n_i)
        for t in range(d_i)
    ], dtype=np.int64).reshape(-1, 4)


def _iso_rows(A, index, a, b, basis):
    """Iso matrix rows of one block, in layout order (mu, nu, t).

    Entry (mu, nu) of the image of x is a[mu] * x * b[nu] in the division
    basis; its rows are those coordinates for x running over A's basis.
    """
    n_i, n, d = len(a), A.dim, basis.shape[0]
    right = np.concatenate([A.rmat(v).T for v in b])  # row (nu, j): b_j * b[nu]
    # sandwich[mu, nu, j] = a[mu] * b_j * b[nu]
    sandwich = A.products(a, right).reshape(n_i * n_i, n, n)
    coords = linalg.coordinates(basis, sandwich.reshape(-1, n), A.p)
    if coords is None:
        for k in range(n_i * n_i):
            if linalg.coordinates(basis, sandwich[k], A.p) is None:
                raise EntryOutsideCorner(
                    f"block {index}: entry ({k // n_i},{k % n_i}) escapes the corner"
                )
    return coords.reshape(n_i, n_i, n, d).transpose(0, 1, 3, 2).reshape(-1, n)


def _search(A, seed, cap):
    """The certificate the search builds, unchecked; A is taken as semisimple.

    Per block: its central idempotent c, one primitive idempotent e <= c
    (at most cap draws, from a generator seeded by seed and the block's
    place), the entry field e*A*e, and the dual basis that gives the
    connecting elements and matrix units.
    """
    C, degrees = idempotents._block_idempotents(A)
    master = random.Random(seed)
    staged = []
    for c, d in zip(C, degrees):
        rng = random.Random(master.getrandbits(64))
        e = idempotents.primitive_idempotent(A, c, d, rng, cap)
        D = DivisionAlgebra(basis=A._hom_rows(e, e), degree=d)
        a, b = dual_basis(A, c, e, D.basis)
        staged.append((len(a), d, tuple(c.tolist()),
                       e, c, a, b, D, matrix_units(A, a, b)))
    staged.sort(key=lambda s: s[:3])
    blocks = [
        Block(index=index, n=n_i, D=D, rep=rep, c=c, a=a, b=b, units=units)
        for index, (n_i, _, _, rep, c, a, b, D, units) in enumerate(staged)
    ]
    iso = np.concatenate([_iso_rows(A, blk.index, blk.a, blk.b, blk.D.basis)
                          for blk in blocks])
    iso_inv = linalg.inverse(iso, A.p) if iso.shape == (A.dim, A.dim) else None
    if iso_inv is None:
        raise NonBijective("assembled block map is not invertible")
    return DecompositionResult(
        blocks=blocks,
        iso=iso,
        iso_inverse=iso_inv,
        layout=_layout((blk.n, blk.D.degree) for blk in blocks),
        p=A.p,
        dim=A.dim,
        seed=seed,
    )


def full_isomorphism(A, seed=0, cap=idempotents.DEFAULT_SPLIT_CAP):
    """End-to-end decomposition with the assembled invertible map.

    NotSemisimple, with the certified radical, unless A is semisimple.
    When stage 0 of the radical chain leaves that open (see
    radical.needs_deep_chain), the search runs first, with at most
    _OPTIMISTIC_CAP draws per block: a certificate that check accepts maps
    A onto a direct sum of matrix rings over fields, which proves A
    semisimple.  Only a typed error or a failed relation runs the chain;
    if it certifies a zero radical, the search runs again with cap, so its
    errors are the ones a semisimple input gives.
    """
    if radical.needs_deep_chain(A):
        try:
            result = _search(A, seed, min(cap, _OPTIMISTIC_CAP))
        except WedderburnError:
            result = None
        if result is not None and not check(A, result):
            return result
    radical.require_semisimple(A)
    return _search(A, seed, cap)


def _codomain(p, dim, blocks):
    """Presentation of the direct sum of M_n(D) over (n, D-algebra) pairs."""
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    one = np.zeros(dim, dtype=np.int64)
    offset = 0
    for n_i, D in blocks:
        size = n_i * n_i * D.dim
        eye = np.eye(n_i, dtype=np.int64)
        # (E[mu,nu] x_s) (E[xi,eta] x_t) = delta(nu,xi) E[mu,eta] (x_s x_t)
        cube = np.einsum("ma,nx,eb,stu->mnsxetabu", eye, eye, eye, D.sc)
        block = slice(offset, offset + size)
        sc[block, block, block] = cube.reshape(size, size, size)
        one[block] = np.einsum("mn,t->mnt", eye, D.one).reshape(size)
        offset += size
    return Algebra(p, sc, identity=one, validate=False)


def _entry_field(A, blk):
    """Presentation of the block's entry field in its division basis."""
    return A.subalgebra(blk.D.basis, blk.rep)


def codomain_algebra(A, result):
    """Presentation of the block direct sum in the flattened coordinates."""
    return _codomain(A.p, A.dim,
                     [(blk.n, _entry_field(A, blk)) for blk in result.blocks])


def _check_block(A, bi, blk, fail):
    """Relations inside one block; returns the members e[mu] = b[mu]*a[mu]."""
    p, rep, a, b, c = A.p, blk.rep, blk.a, blk.b, blk.c
    diag = np.arange(blk.n)
    if not np.array_equal(A.mul_vec(rep, rep), rep):
        fail(f"block {bi}: representative is not idempotent")
    if not (np.array_equal(a[0], rep) and np.array_equal(b[0], rep)):
        fail(f"block {bi}: a[0], b[0] differ from the representative")
    ba = A.products(b, a)
    e = ba[diag, diag]
    rep_a = A.products(rep[None], a)[0]
    e_b = A.products(e, b)[diag, diag]
    for got, want, what in (
        (A.products(a, b)[diag, diag], rep, "a[{0}]*b[{0}] != representative"),
        (A.products(e, e)[diag, diag], e, "b[{0}]*a[{0}] is not idempotent"),
        (A.products(rep_a, e)[diag, diag], a, "a[{0}] is not in rep*A*e[{0}]"),
        (A.products(e_b, rep[None])[:, 0], b, "b[{0}] is not in e[{0}]*A*rep"),
    ):
        for mu in np.flatnonzero((got != want).any(axis=1)):
            fail(f"block {bi}: " + what.format(mu))
    for mu, nu in np.argwhere((blk.units != ba).any(axis=2)):
        fail(f"block {bi}: matrix unit ({mu},{nu}) != b[{mu}]*a[{nu}]")
    for msg in _unit_relations(A, blk.units):
        fail(f"block {bi}: {msg}")
    # c is then idempotent once the members are orthogonal (checked later)
    if not np.array_equal(e.sum(axis=0) % p, c):
        fail(f"block {bi}: central idempotent is not the member sum")
    if not np.array_equal(A.lmat(c), A.rmat(c)):
        fail(f"block {bi}: central idempotent is not central")
    return e


def _check_division_basis(A, bi, blk, fail):
    """The block's entry ring; None (after a failure) unless it is a field."""
    p = A.p
    if linalg.rank(blk.D.basis, p) != blk.D.degree:
        return fail(f"block {bi}: division basis is not independent")
    try:
        D = _entry_field(A, blk)
    except EntryOutsideCorner:
        return fail(f"block {bi}: division basis is not closed under product")
    if not D.is_commutative():
        return fail(f"block {bi}: division corner is not commutative")
    # a commutative algebra is a field iff x -> x^p is injective (no
    # nilpotents) and fixes only the prime field
    F = D.frobenius_matrix()
    fixed = linalg.kernel((F - np.eye(blk.D.degree, dtype=np.int64)) % p, p)
    if linalg.rank(F, p) != blk.D.degree or fixed.shape[0] != 1:
        return fail(f"block {bi}: division corner is not a field")
    return D


def check(A, cert):
    """Re-prove every relation of a certificate; returns a list of Failure.

    cert is a DecompositionResult, from full_isomorphism or parsed from a
    report.  An empty list proves that cert.iso is a unital ring isomorphism
    from A onto the direct sum of the blocks M_n(D), D a field, and that it
    is the map the serialized witnesses define.  The stages run in order and
    stop after the first one that fails, since each works from what the
    earlier ones certified.
    """
    p, n = A.p, A.dim
    fails = []

    def fail(message, relation="certificate"):
        fails.append(Failure(relation, message))

    members = [_check_block(A, bi, blk, fail) for bi, blk in enumerate(cert.blocks)]
    fields = [_check_division_basis(A, bi, blk, fail)
              for bi, blk in enumerate(cert.blocks)]
    if fails:
        return fails

    # across blocks: the parts are orthogonal and complete, hence so are the
    # central idempotents (each is the sum of its block's parts)
    labels = [f"({bi},{mu})" for bi, blk in enumerate(cert.blocks)
              for mu in range(blk.n)]
    E = np.concatenate(members)
    if not np.array_equal(E.sum(axis=0) % p, A.one):
        fail("primitive parts do not sum to the identity")
    overlap = A.products(E, E).any(axis=2)
    for i, j in np.argwhere(np.triu(overlap | overlap.T, 1)):
        fail(f"parts {labels[i]} and {labels[j]} are not orthogonal")
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

    # the iso matrix is the map the witnesses define
    row = 0
    for bi, blk in enumerate(cert.blocks):
        size = blk.n * blk.n * blk.D.degree
        got, row = cert.iso[row:row + size], row + size
        try:
            rows = _iso_rows(A, bi, blk.a, blk.b, blk.D.basis)
        except EntryOutsideCorner as exc:
            fail(str(exc))
            continue
        differ = (got != rows).reshape(blk.n, blk.n, -1)
        for mu, nu in np.argwhere(differ.any(axis=2)):
            fail(f"iso_matrix rows for block {bi} entry ({mu},{nu}) do not "
                 "match the connecting elements")
    if fails:
        return fails

    # the iso is a unital ring isomorphism onto the block direct sum
    target = _codomain(p, n, [(blk.n, D) for blk, D in zip(cert.blocks, fields)])
    iso, inv = cert.iso, cert.iso_inverse
    eye = np.eye(n, dtype=np.int64)
    for name, prod in (("iso * iso_inverse", linalg.matmul_mod(iso, inv, p)),
                       ("iso_inverse * iso", linalg.matmul_mod(inv, iso, p))):
        for i, j in np.argwhere(prod != eye)[:1]:
            fail(f"{name} differs from the identity at ({i},{j})", "bijective")
    if not np.array_equal(linalg.matmul_mod(iso, A.one[:, None], p)[:, 0],
                          target.one):
        fail("image of the identity is not the block identity", "unit")
    images = linalg.matmul_mod(iso, np.array([blk.c for blk in cert.blocks]).T, p)
    for bi in range(len(cert.blocks)):
        block_one = np.where(layout[:, 0] == bi, target.one, 0)
        if not np.array_equal(images[:, bi], block_one):
            fail(f"central idempotent of block {bi} does not map to its "
                 "block identity", "orthogonality")
    # iso(b_i b_j) against iso(b_i) iso(b_j) in the target
    left = linalg.matmul_mod(A.sc.reshape(n * n, n), iso.T, p).reshape(n, n, n)
    right = target.products(iso.T, iso.T)
    for i, j in np.argwhere((left != right).any(axis=2))[:1]:
        fail(f"multiplicativity fails at basis pair ({i},{j})", "multiplicative")
    return fails


def verify_isomorphism(A, result, check_multiplicative=True):
    """Exact re-proof of a result: `check` on its certificate arrays.

    check_multiplicative is accepted only as True: the all-pairs product
    check always runs.  The keyword remains for callers that still pass it.
    """
    if check_multiplicative is not True:
        raise ValueError("verification always runs the all-pairs product check")
    return _report(check(A, result))


def _report(fails):
    """The VerificationReport of check's failures: a flag is false exactly
    when a failure names its relation."""
    failed = {f.relation for f in fails}
    return VerificationReport(**{name: name not in failed for name in _FLAGS},
                              failures=[f.message for f in fails])


def apply_iso(result, x):
    """Flat target coordinates of x, reshaped per block into entry grids."""
    flat = linalg.matmul_mod(result.iso, np.asarray(x, dtype=np.int64)[:, None],
                             result.p)[:, 0]
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
        n_i, d = blk.n, blk.D.degree
        size = n_i * n_i * d
        x = flat_x[row:row + size].reshape(n_i * n_i, d)
        y = flat_y[row:row + size].reshape(n_i * n_i, d)
        # pairs[mu, nu, xi, eta] = x[mu, nu] * y[xi, eta]; keep nu = xi
        pairs = _entry_field(A, blk).products(x, y).reshape(n_i, n_i, n_i, n_i, d)
        out.append(np.einsum("mnneu->meu", pairs).reshape(size) % result.p)
        row += size
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
    are input errors rather than disproofs.
    """
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
