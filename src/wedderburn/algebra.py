"""Associative F_p-algebras presented by structure constants.

A presentation is a cube c with b_i * b_j = sum_k c[i,j,k] b_k.  The
constructor checks associativity (as two flattened matrix products, not a
five-fold loop) and locates the two-sided identity, so every Algebra in
circulation is genuinely an associative unital algebra.
"""

import numpy as np

from . import linalg
from .errors import (
    EntryOutsideCorner,
    InvalidDocument,
    NoIdentity,
    NotAssociative,
    NotCommutative,
    NotIdempotent,
    ParentMismatch,
)
from .field import check_modulus


class Algebra:
    """Finite-dimensional associative unital algebra over F_p."""

    def __init__(self, p, structure_constants, identity=None, labels=None,
                 validate=True):
        self.p = check_modulus(p)
        sc = linalg.as_mod_array(structure_constants, self.p)
        if sc.ndim != 3 or not (sc.shape[0] == sc.shape[1] == sc.shape[2]):
            raise InvalidDocument(
                f"structure constants must be a cube, got shape {sc.shape}"
            )
        n = sc.shape[0]
        if validate and n < 1:
            raise InvalidDocument("dimension must be at least 1")
        self.dim = n
        self.sc = sc
        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise InvalidDocument(
                    f"got {len(labels)} labels for dimension {n}"
                )
        self.labels = labels
        if validate:
            self._check_associativity()
        if identity is not None:
            one = linalg.as_mod_array(identity, self.p)
            if one.shape != (n,):
                raise InvalidDocument("identity has the wrong length")
            if validate and not self._is_identity(one):
                raise NoIdentity("the declared identity is not an identity")
            self.one = one
        elif n == 0:
            self.one = np.zeros(0, dtype=np.int64)
        else:
            self.one = self._solve_identity()

    # -- construction checks ------------------------------------------------

    def _check_associativity(self):
        n, p = self.dim, self.p
        if n == 0:
            return
        flat_left = self.sc.reshape(n * n, n)
        flat_right = self.sc.reshape(n, n * n)
        # lhs[(i,j),(k,l)] = sum_m c[i,j,m] c[m,k,l]
        lhs = linalg.matmul_mod(flat_left, flat_right, p).reshape(n, n, n, n)
        # rhs0[(j,k),(i,l)] = sum_m c[j,k,m] c[i,m,l]
        mid = np.ascontiguousarray(self.sc.transpose(1, 0, 2)).reshape(n, n * n)
        rhs = (
            linalg.matmul_mod(flat_left, mid, p)
            .reshape(n, n, n, n)
            .transpose(2, 0, 1, 3)
        )
        if not np.array_equal(lhs, rhs):
            i, j, k, _ = np.argwhere(lhs != rhs)[0]
            raise NotAssociative((int(i), int(j), int(k)))

    def _identity_system(self):
        n = self.dim
        left = np.ascontiguousarray(self.sc.transpose(1, 2, 0)).reshape(n * n, n)
        right = np.ascontiguousarray(self.sc.transpose(0, 2, 1)).reshape(n * n, n)
        target = np.eye(n, dtype=np.int64).reshape(-1)
        return (
            np.concatenate([left, right]),
            np.concatenate([target, target]),
        )

    def _solve_identity(self):
        M, rhs = self._identity_system()
        u = linalg.solve_batch(M, rhs, self.p)
        if u is None:
            raise NoIdentity("presentation has no two-sided identity")
        return u

    def _is_identity(self, u):
        M, rhs = self._identity_system()
        return np.array_equal(
            linalg.matmul_mod(M, u[:, None], self.p)[:, 0], rhs
        )

    # -- raw coordinate operations -------------------------------------------

    def mul_vec(self, x, y):
        """Coordinates of x*y."""
        return linalg.matmul_mod(self.lmat(x), y[:, None], self.p)[:, 0]

    def products(self, X, Y):
        """All pairwise products: out[i, j] = X[i] * Y[j], shape (kx, ky, dim).

        Two matmul_mod calls: X against the n x n^2 multiplication table,
        then Y against the result, so the shorter stack should be X.
        """
        n, p = self.dim, self.p
        X = linalg.as_mod_array(X, p)
        kx = X.shape[0]
        # left[j, (i, k)] = coordinate k of X[i] * b_j
        left = linalg.matmul_mod(X, self._ltable, p, reduce_b=False)
        left = left.reshape(kx, n, n).transpose(1, 0, 2).reshape(n, kx * n)
        out = linalg.matmul_mod(Y, left, p, reduce_b=False)
        return out.reshape(-1, kx, n).transpose(1, 0, 2)

    @property
    def _ltable(self):
        # row i holds the flattened matrix of left multiplication by b_i;
        # sc is stored reduced, so the view stays reduced
        table = getattr(self, "_ltable_cache", None)
        if table is None:
            n = self.dim
            table = self.sc.reshape(n, n * n)
            self._ltable_cache = table
        return table

    @property
    def _rtable(self):
        table = getattr(self, "_rtable_cache", None)
        if table is None:
            n = self.dim
            table = np.ascontiguousarray(self.sc.transpose(1, 0, 2)).reshape(
                n, n * n
            )
            self._rtable_cache = table
        return table

    def lmat(self, x):
        """Matrix of left multiplication by x; column j is x*b_j."""
        n = self.dim
        flat = linalg.matmul_mod(x[None, :], self._ltable, self.p,
                                 reduce_b=False)
        return np.ascontiguousarray(flat.reshape(n, n).T)

    def rmat(self, y):
        """Matrix of right multiplication by y; column i is b_i*y."""
        n = self.dim
        flat = linalg.matmul_mod(y[None, :], self._rtable, self.p,
                                 reduce_b=False)
        return np.ascontiguousarray(flat.reshape(n, n).T)

    def pow_vec(self, x, k):
        """Coordinates of x**k for k >= 0 (x**0 is the identity)."""
        if k < 0:
            raise ValueError("negative powers are not defined here")
        acc = self.one.copy()
        base = x % self.p
        while k > 0:
            if k & 1:
                acc = self.mul_vec(acc, base)
            base = self.mul_vec(base, base)
            k >>= 1
        return acc

    def min_poly_vec(self, x):
        """Minimal polynomial of the element x (monic, lowest-first)."""
        # q(x) = 0 iff q(L_x) = 0 because left multiplication is faithful
        return linalg.min_poly(self.lmat(x), self.p)

    def trace_vector(self):
        """t with t_i = trace of left multiplication by b_i."""
        return np.einsum("ikk->i", self.sc) % self.p

    def gram_matrix(self):
        """Trace form gram[i,j] = trace(L_{b_i b_j})."""
        n = self.dim
        t = self.trace_vector()
        return linalg.matmul_mod(
            self.sc.reshape(n * n, n), t[:, None], self.p
        ).reshape(n, n)

    def center_basis(self):
        """Canonical basis (rows) of {z : zx = xz for all x}."""
        n = self.dim
        diff = (self.sc - self.sc.transpose(1, 0, 2)) % self.p
        M = np.ascontiguousarray(diff.transpose(1, 2, 0)).reshape(n * n, n)
        return linalg.kernel(M, self.p)

    def is_commutative(self):
        return np.array_equal(self.sc, self.sc.transpose(1, 0, 2))

    def require_commutative(self):
        if not self.is_commutative():
            raise NotCommutative("presentation is not commutative")

    def frobenius_matrix(self):
        """Matrix (columns) of x -> x^p; only linear when commutative."""
        self.require_commutative()
        n = self.dim
        F = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            F[:, i] = self.pow_vec(self.basis_vec(i), self.p)
        return F

    def basis_vec(self, i):
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return v

    def random_vec(self, rng):
        return np.array([rng.randrange(self.p) for _ in range(self.dim)],
                        dtype=np.int64)

    # -- subalgebras ----------------------------------------------------------

    def require_idempotent(self, e):
        if not np.array_equal(self.mul_vec(e, e), e % self.p):
            raise NotIdempotent(f"{e.tolist()} squared is not itself")

    def hom_space(self, f, e):
        """Canonical basis (rows) of f*A*e, the image of x -> f x e.

        The projector onto that space is rmat(e) @ lmat(f); its column space
        has a unique reduced-echelon basis, which is what gets returned.
        """
        self.require_idempotent(f)
        self.require_idempotent(e)
        proj = linalg.matmul_mod(self.rmat(e), self.lmat(f), self.p)
        return linalg.row_space_basis(proj.T, self.p)

    def corner(self, e):
        """The algebra e*A*e with identity e, as a Subalgebra view."""
        self.require_idempotent(e)
        proj = linalg.matmul_mod(self.rmat(e), self.lmat(e), self.p)
        rows = linalg.row_space_basis(proj.T, self.p)
        return Subalgebra(self, rows, identity_parent=e % self.p)

    # -- elements -------------------------------------------------------------

    def element(self, coords):
        return Element(self, linalg.as_mod_array(coords, self.p))

    def zero(self):
        return self.element(np.zeros(self.dim, dtype=np.int64))

    def identity(self):
        return self.element(self.one)

    def same_presentation(self, other):
        return (
            isinstance(other, Algebra)
            and other.p == self.p
            and other.dim == self.dim
            and np.array_equal(other.sc, self.sc)
        )

    def __repr__(self):
        return f"Algebra(p={self.p}, dim={self.dim})"

    # -- serialization ---------------------------------------------------------

    def to_doc(self):
        doc = {
            "p": int(self.p),
            "dim": int(self.dim),
            "structure_constants": self.sc.tolist(),
            "identity": self.one.tolist(),
        }
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc


def make_presentation(p, structure_constants, identity=None, labels=None):
    """Validated constructor; see Algebra for the contract."""
    return Algebra(p, structure_constants, identity=identity, labels=labels)


def from_doc(doc):
    """Reconstruct (and fully re-validate) an Algebra from its document."""
    if not isinstance(doc, dict):
        raise InvalidDocument("algebra document must be an object")
    for key in ("p", "structure_constants"):
        if key not in doc:
            raise InvalidDocument(f"algebra document missing {key!r}")
    p = doc["p"]
    if not is_doc_int(p):
        raise InvalidDocument("field 'p' must be an integer")
    arr = doc_array(doc["structure_constants"], (None, None, None),
                    "structure constants")
    if "dim" in doc and not (is_doc_int(doc["dim"]) and arr.shape[0] == doc["dim"]):
        raise InvalidDocument("declared dim disagrees with the constants cube")
    identity = doc.get("identity")
    if identity is not None:
        identity = doc_array(identity, (None,), "identity")
    return Algebra(p, arr, identity=identity, labels=doc.get("labels"))


def is_doc_int(x):
    """A JSON integer (bool is an int subclass in Python, but not one here)."""
    return isinstance(x, int) and not isinstance(x, bool)


def doc_array(x, shape, what):
    """int64 array of a document field with the given shape (None: any size).

    Booleans, floats and strings are refused, not truncated or coerced.
    """
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):
        raise InvalidDocument(f"{what} is not an integer array") from None
    if arr.dtype.kind != "i" and arr.size:
        raise InvalidDocument(f"{what} must hold integers, not {arr.dtype}")
    if arr.ndim != len(shape) or any(
        want is not None and want != got for want, got in zip(shape, arr.shape)
    ):
        want = tuple("*" if n is None else n for n in shape)
        raise InvalidDocument(f"{what} has shape {arr.shape}, expected {want}")
    return arr.astype(np.int64)


class Element:
    """An algebra element carried as a coordinate vector."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        self.parent = parent
        self.coords = coords

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.parent is not self.parent and not self.parent.same_presentation(
                other.parent
            ):
                raise ParentMismatch("elements belong to different presentations")
            return other.coords
        raise TypeError(f"cannot combine Element with {type(other).__name__}")

    def __add__(self, other):
        return Element(
            self.parent, (self.coords + self._coerce(other)) % self.parent.p
        )

    def __sub__(self, other):
        return Element(
            self.parent, (self.coords - self._coerce(other)) % self.parent.p
        )

    def __neg__(self):
        return Element(self.parent, (-self.coords) % self.parent.p)

    def __mul__(self, other):
        if isinstance(other, int):
            return Element(self.parent, (self.coords * other) % self.parent.p)
        return Element(
            self.parent, self.parent.mul_vec(self.coords, self._coerce(other))
        )

    def __rmul__(self, scalar):
        if isinstance(scalar, int):
            return Element(self.parent, (self.coords * scalar) % self.parent.p)
        return NotImplemented

    def __pow__(self, k):
        return Element(self.parent, self.parent.pow_vec(self.coords, k))

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.parent.same_presentation(other.parent) and np.array_equal(
            self.coords, other.coords
        )

    def __hash__(self):
        return hash((self.parent.p, tuple(int(c) for c in self.coords)))

    def is_zero(self):
        return not self.coords.any()

    def is_idempotent(self):
        return np.array_equal(
            self.parent.mul_vec(self.coords, self.coords), self.coords
        )

    def __repr__(self):
        if self.parent.labels:
            terms = [
                f"{int(c)}*{lab}"
                for c, lab in zip(self.coords, self.parent.labels)
                if c
            ]
            return " + ".join(terms) if terms else "0"
        return f"Element({self.coords.tolist()})"


class Subalgebra:
    """A unital subalgebra (its identity may differ from the parent's).

    Rows of `rows` are parent coordinates of the chosen basis; `algebra` is
    the abstract presentation in that basis.  Use to_parent/from_parent to
    move coordinates across the inclusion.
    """

    def __init__(self, parent, rows, identity_parent):
        self.parent = parent
        self.rows = rows
        self.identity_parent = identity_parent
        k = rows.shape[0]
        p = parent.p
        if k == 0:
            self.algebra = Algebra(
                p,
                np.zeros((0, 0, 0), dtype=np.int64),
                identity=np.zeros(0, dtype=np.int64),
                validate=False,
            )
            return
        # products of basis pairs, then re-expressed in the row basis
        prods = parent.products(rows, rows).reshape(k * k, parent.dim)
        coeffs = linalg.solve_batch(rows.T, prods.T, p)
        if coeffs is None:
            raise EntryOutsideCorner("subalgebra basis is not closed under product")
        sc = np.ascontiguousarray(coeffs.T.reshape(k, k, k))
        one = linalg.solve_batch(rows.T, identity_parent, p)
        if one is None:
            raise EntryOutsideCorner("identity does not lie in the subalgebra")
        # associativity is inherited, skip the quadratic recheck
        self.algebra = Algebra(p, sc, identity=one, validate=False)

    def to_parent(self, coords):
        if self.rows.shape[0] == 0:
            return np.zeros(self.parent.dim, dtype=np.int64)
        return linalg.matmul_mod(
            coords[None, :], self.rows, self.parent.p
        )[0]

    def from_parent(self, x):
        """Coordinates in the subalgebra basis, or None if x lies outside."""
        if self.rows.shape[0] == 0:
            return None if x.any() else np.zeros(0, dtype=np.int64)
        sol = linalg.solve_batch(self.rows.T, x, self.parent.p)
        if sol is None:
            return None
        if not np.array_equal(self.to_parent(sol), x % self.parent.p):
            return None
        return sol

    @property
    def dim(self):
        return self.rows.shape[0]
