"""Block structure of a semisimple algebra and the explicit isomorphism.

Pipeline: group the primitive idempotents into equivalence classes, form
the central idempotent of each class, build connecting elements and matrix
units, present each corner e1*A*e1 as the entry field of its block, and
assemble the global linear map sending x to the tuple of block matrices
(a_mu * x * b_nu).

The certificate is what the report serializes: per block the
representative, connecting elements, matrix units, central idempotent and
division basis, plus the iso matrix, its inverse and the layout.  `check`
re-proves every relation of a certificate exactly, without re-running any
of the search; `verify_isomorphism` (in process) and `verify_report_doc`
(from a report document) both run it.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import idempotents, linalg, radical
from .algebra import Algebra, Subalgebra, doc_array, is_doc_int
from .errors import (
    CentralityViolation,
    EntryOutsideCorner,
    InvalidDocument,
    MatrixUnitViolation,
    NonBijective,
    ShapeMismatch,
    WitnessSolveFailed,
)


@dataclass
class ConnectingFamily:
    """One equivalence class with its connecting elements.

    members[0] is the class representative (lexicographically smallest
    coordinate vector in the class); a[mu] lies in rep*A*e_mu and b[mu] in
    e_mu*A*rep with a[mu]*b[mu] = rep and b[mu]*a[mu] = e_mu; in particular
    a[0] = b[0] = rep.
    """

    rep: idempotents.Idempotent
    members: list
    a: list
    b: list


@dataclass
class MatrixUnitSystem:
    units: np.ndarray  # units[mu, nu] = b[mu] * a[nu], shape (n, n, dim)


@dataclass
class DivisionAlgebra:
    """Corner rep*A*rep certified to be a field (the block's entry ring)."""

    corner: Subalgebra
    degree: int


@dataclass
class Block:
    index: int
    n: int
    D: DivisionAlgebra
    c: np.ndarray
    family: ConnectingFamily
    units: MatrixUnitSystem


@dataclass
class VerificationReport:
    """Flags for the map itself; a failed certificate relation (witnesses,
    units, division basis, iso rows) shows only in failures and `passed`."""

    bijective: bool
    unit: bool
    multiplicative: bool  # None when the all-pairs check was skipped
    orthogonality: bool
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        flags = [self.bijective, self.unit, self.orthogonality,
                 self.multiplicative is not False]
        return all(flags) and not self.failures


@dataclass
class DecompositionResult:
    blocks: list
    iso: np.ndarray
    iso_inverse: np.ndarray
    layout: list  # rows (block index, mu, nu, D-basis index)
    p: int
    dim: int
    seed: int


class Failure(NamedTuple):
    relation: str  # a VerificationReport flag name, or "certificate"
    message: str  # names the relation, the block and the indices


def group_by_equivalence(A, decomposition):
    """Partition primitive parts into classes with connecting witnesses."""
    classes = []  # lists of part indices, discovery order
    parts = decomposition.parts
    for idx, part in enumerate(parts):
        placed = False
        for cls in classes:
            probe = parts[cls[0]]
            if A.hom_space(probe.coords, part.coords).shape[0] > 0:
                cls.append(idx)
                placed = True
                break
        if not placed:
            classes.append([idx])
    families = []
    for cls in classes:
        rep_idx = min(cls, key=lambda i: tuple(int(c) for c in parts[i].coords))
        ordered = [rep_idx] + [i for i in cls if i != rep_idx]
        members = [parts[i] for i in ordered]
        rep = members[0]
        a_list, b_list = [], []
        for member in members:
            w = idempotents.equivalence_witness(A, member, rep)
            if w is None:
                raise WitnessSolveFailed("class member lost its witness")
            a_list.append(w.a)
            b_list.append(w.b)
        families.append(
            ConnectingFamily(rep=rep, members=members, a=a_list, b=b_list)
        )
    return families


def central_idempotent(A, family):
    """Sum of the class members; verified central and idempotent."""
    c = np.zeros(A.dim, dtype=np.int64)
    for member in family.members:
        c = (c + member.coords) % A.p
    if not np.array_equal(A.mul_vec(c, c), c):
        raise CentralityViolation("class sum is not idempotent")
    if not np.array_equal(A.lmat(c), A.rmat(c)):
        raise CentralityViolation("class sum is not central")
    return c


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


def matrix_units(A, family, block_identity):
    """Grid b[mu]*a[nu]; every product relation is checked."""
    units = A.products(np.array(family.b), np.array(family.a))
    diag = np.arange(len(units))
    if not np.array_equal(units[diag, diag].sum(axis=0) % A.p, block_identity):
        raise MatrixUnitViolation("diagonal units do not sum to the block identity")
    failed = _unit_relations(A, units)
    if failed:
        raise MatrixUnitViolation(failed[0])
    return MatrixUnitSystem(units=units)


def division_presentation(A, family):
    """The corner at the class representative: the block's entry field."""
    corner = A.corner(family.rep.coords)
    return DivisionAlgebra(corner=corner, degree=corner.dim)


def _layout(shapes):
    """Rows (block, mu, nu, t) of the flattened target, for (n, d) per block."""
    return [
        (index, mu, nu, t)
        for index, (n_i, d_i) in enumerate(shapes)
        for mu in range(n_i)
        for nu in range(n_i)
        for t in range(d_i)
    ]


def _iso_rows(A, index, a, b, basis):
    """Iso matrix rows of one block, in layout order (mu, nu, t).

    Entry (mu, nu) of the image of x is a[mu] * x * b[nu] in the division
    basis; its rows are those coordinates for x running over A's basis.
    """
    n_i, n, d = len(a), A.dim, basis.shape[0]
    right = np.concatenate([A.rmat(v).T for v in b])  # row (nu, j): b_j * b[nu]
    # sandwich[mu, nu, j] = a[mu] * b_j * b[nu]
    sandwich = A.products(a, right).reshape(n_i, n_i, n, n)
    rhs = sandwich.transpose(3, 0, 1, 2).reshape(n, n_i * n_i * n)
    coords = linalg.solve_batch(basis.T, rhs, A.p)
    if coords is None:
        for k in range(n_i * n_i):
            if linalg.solve_batch(basis.T, rhs[:, k * n:(k + 1) * n], A.p) is None:
                raise EntryOutsideCorner(
                    f"block {index}: entry ({k // n_i},{k % n_i}) escapes the corner"
                )
    return coords.reshape(d, n_i, n_i, n).transpose(1, 2, 0, 3).reshape(-1, n)


def full_isomorphism(A, seed=0, cap=idempotents.DEFAULT_SPLIT_CAP):
    """End-to-end decomposition with the assembled invertible map."""
    radical.require_semisimple(A)
    decomposition = idempotents.decompose_identity(A, seed=seed, cap=cap)
    families = group_by_equivalence(A, decomposition)

    staged = []
    for fam in families:
        c = central_idempotent(A, fam)
        D = division_presentation(A, fam)
        units = matrix_units(A, fam, c)
        staged.append((len(fam.members), D.degree, tuple(int(v) for v in c),
                       fam, c, D, units))
    staged.sort(key=lambda s: s[:3])
    blocks = [
        Block(index=index, n=n_i, D=D, c=c, family=fam, units=units)
        for index, (n_i, _, _, fam, c, D, units) in enumerate(staged)
    ]
    iso = np.concatenate([
        _iso_rows(A, blk.index, np.array(blk.family.a), np.array(blk.family.b),
                  blk.D.corner.rows)
        for blk in blocks
    ])
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


def codomain_algebra(result):
    """Presentation of the block direct sum in the flattened coordinates."""
    return _codomain(result.p, result.dim,
                     [(blk.n, blk.D.corner.algebra) for blk in result.blocks])


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
    p, rep, basis = A.p, blk.rep, blk.basis
    if linalg.rank(basis, p) != blk.d:
        return fail(f"block {bi}: division basis is not independent")
    try:
        corner = Subalgebra(A, basis, identity_parent=rep)
    except EntryOutsideCorner:
        return fail(f"block {bi}: division basis is not closed under product")
    D = corner.algebra
    if not D.is_commutative():
        return fail(f"block {bi}: division corner is not commutative")
    # a commutative algebra is a field iff x -> x^p is injective (no
    # nilpotents) and fixes only the prime field
    F = D.frobenius_matrix()
    fixed = linalg.kernel((F - np.eye(blk.d, dtype=np.int64)) % p, p)
    if linalg.rank(F, p) != blk.d or fixed.shape[0] != 1:
        return fail(f"block {bi}: division corner is not a field")
    return corner


def check(A, cert, multiplicative=True):
    """Re-prove every relation of a certificate; returns a list of Failure.

    cert carries the arrays of a report (see _parse_certificate): blocks,
    each with n, d, rep, c, a, b, units and basis over A's basis, then iso,
    iso_inverse and layout.  An empty list proves that cert.iso is a unital ring isomorphism from A
    onto the direct sum of the blocks M_n(D), D a field, and that it is the
    map the serialized witnesses define.  The stages run in order and stop
    after the first one that fails, since each works from what the earlier
    ones certified.  multiplicative=False skips the all-pairs product check.
    """
    p, n = A.p, A.dim
    fails = []

    def fail(message, relation="certificate"):
        fails.append(Failure(relation, message))

    members = [_check_block(A, bi, blk, fail) for bi, blk in enumerate(cert.blocks)]
    corners = [_check_division_basis(A, bi, blk, fail)
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
    layout = np.array(_layout((blk.n, blk.d) for blk in cert.blocks)).reshape(-1, 4)
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
        size = blk.n * blk.n * blk.d
        got, row = cert.iso[row:row + size], row + size
        try:
            rows = _iso_rows(A, bi, blk.a, blk.b, blk.basis)
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
    target = _codomain(p, n, [(blk.n, corner.algebra)
                              for blk, corner in zip(cert.blocks, corners)])
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
    if multiplicative:
        # iso(b_i b_j) against iso(b_i) iso(b_j) in the target
        left = linalg.matmul_mod(A.sc.reshape(n * n, n), iso.T, p).reshape(n, n, n)
        right = target.products(iso.T, iso.T)
        for i, j in np.argwhere((left != right).any(axis=2))[:1]:
            fail(f"multiplicativity fails at basis pair ({i},{j})", "multiplicative")
    return fails


def verify_isomorphism(A, result, check_multiplicative=True):
    """Exact re-proof of a result: `check` on the arrays its report carries."""
    cert = _parse_certificate(A, _certificate_doc(result))
    fails = check(A, cert, multiplicative=check_multiplicative)
    failed = {f.relation for f in fails}
    return VerificationReport(
        bijective="bijective" not in failed,
        unit="unit" not in failed,
        multiplicative=("multiplicative" not in failed
                        if check_multiplicative else None),
        orthogonality="orthogonality" not in failed,
        failures=[f.message for f in fails],
    )


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


def target_multiply(result, X, Y):
    """Blockwise matrix product with entries multiplied in each block's D."""
    flat_x, flat_y = flatten(result, X), flatten(result, Y)
    out, row = [], 0
    for blk in result.blocks:
        n_i, d = blk.n, blk.D.degree
        size = n_i * n_i * d
        x = flat_x[row:row + size].reshape(n_i * n_i, d)
        y = flat_y[row:row + size].reshape(n_i * n_i, d)
        # pairs[mu, nu, xi, eta] = x[mu, nu] * y[xi, eta]; keep nu = xi
        pairs = blk.D.corner.algebra.products(x, y).reshape(n_i, n_i, n_i, n_i, d)
        out.append(np.einsum("mnneu->meu", pairs).reshape(size) % result.p)
        row += size
    return unflatten(result, np.concatenate(out))


# -- serialization -------------------------------------------------------------


_BLOCK_KEYS = ("n", "division_degree", "representative_idempotent",
               "central_idempotent", "connecting_a", "connecting_b",
               "matrix_units", "division_basis")


def _parse_certificate(A, doc):
    """The certificate arrays of a report; InvalidDocument on any fault of form."""
    if not isinstance(doc, dict):
        raise InvalidDocument("report document must be an object")
    for key in ("p", "dim", "blocks", "iso_matrix", "iso_inverse", "layout"):
        if key not in doc:
            raise InvalidDocument(f"report document missing {key!r}")
    for key, what, value in (("p", "modulus", A.p), ("dim", "dimension", A.dim)):
        if not is_doc_int(doc[key]) or doc[key] != value:
            raise InvalidDocument(f"report {what} {doc[key]!r} does not match "
                                  f"the algebra {what} {value}")
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
        blocks.append(SimpleNamespace(
            n=n_i, d=d,
            rep=arr(bdoc["representative_idempotent"], (n,),
                    f"block {bi} representative"),
            c=arr(bdoc["central_idempotent"], (n,), f"block {bi} center"),
            a=arr(bdoc["connecting_a"], (n_i, n), f"block {bi} connecting_a"),
            b=arr(bdoc["connecting_b"], (n_i, n), f"block {bi} connecting_b"),
            units=arr(bdoc["matrix_units"], (n_i, n_i, n), f"block {bi} matrix units"),
            basis=arr(bdoc["division_basis"], (d, n), f"block {bi} division basis"),
        ))
    return SimpleNamespace(
        blocks=blocks,
        iso=arr(doc["iso_matrix"], (n, n), "iso_matrix"),
        iso_inverse=arr(doc["iso_inverse"], (n, n), "iso_inverse"),
        layout=doc_array(doc["layout"], (None, 4), "layout"),
    )


def verify_report_doc(A, doc):
    """Re-prove a serialized report against its algebra document.

    Returns the list of failed-relation messages (empty means the report
    verifies); they are the ones verify_isomorphism reports for the same
    arrays.  Structural problems (missing fields, wrong shapes or types,
    mismatched modulus) raise InvalidDocument instead, since they are input
    errors rather than disproofs.
    """
    return [f.message for f in check(A, _parse_certificate(A, doc))]


def _certificate_doc(result):
    """The report document of a result, less its verification flags."""
    blocks = []
    for blk in result.blocks:
        blocks.append({
            "n": int(blk.n),
            "division_degree": int(blk.D.degree),
            "central_idempotent": blk.c.tolist(),
            "representative_idempotent": blk.family.rep.coords.tolist(),
            "connecting_a": [v.tolist() for v in blk.family.a],
            "connecting_b": [v.tolist() for v in blk.family.b],
            "matrix_units": np.asarray(blk.units.units).tolist(),
            "division_basis": blk.D.corner.rows.tolist(),
        })
    return {
        "p": int(result.p),
        "dim": int(result.dim),
        "seed": int(result.seed),
        "blocks": blocks,
        "iso_matrix": result.iso.tolist(),
        "iso_inverse": result.iso_inverse.tolist(),
        "layout": [list(map(int, entry)) for entry in result.layout],
    }


def result_to_doc(result, verification):
    doc = _certificate_doc(result)
    doc["verification"] = {
        "bijective": verification.bijective,
        "unit": verification.unit,
        "multiplicative": verification.multiplicative,
        "orthogonality": verification.orthogonality,
    }
    return doc
