"""Associative F_p-algebras presented by structure constants.

A presentation is a cube c with b_i * b_j = sum_k c[i,j,k] b_k.  The
constructor locates the two-sided identity and then proves associativity:
first by a left-nucleus certificate (a few drawn elements that associate
with every basis pair and generate the algebra, O(n^4) each), and when
that does not conclude, by the blocked check of every basis triple (two
flattened matrix products a block of the first index at a time, O(n^3)
memory), which names the first failing triple.  So every Algebra in
circulation is genuinely an associative unital algebra.
"""

import random
from itertools import chain

import numpy as np

from . import linalg, poly
from .errors import (
    EntryOutsideCorner,
    InternalInvariantViolation,
    InvalidDocument,
    NoIdentity,
    NotAssociative,
    NotCommutative,
)
from .field import check_modulus

_BOOL_TYPES = frozenset((bool, np.bool_))

# int64 entries of one block of the associativity check (1 MB per side;
# blocks that fit in cache beat larger ones at every p measured)
_CHECK_ENTRIES = 2**17


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
            if not (isinstance(labels, list)
                    and all(isinstance(x, str) for x in labels)):
                raise InvalidDocument("labels must be a list of strings")
            labels = list(labels)
            if len(labels) != n:
                raise InvalidDocument(
                    f"got {len(labels)} labels for dimension {n}"
                )
        self.labels = labels
        try:
            self.one = self._identity(identity, validate)
        except (InvalidDocument, NoIdentity):
            if validate:
                self._check_associativity()  # NotAssociative comes first
            raise
        if validate:
            self._certify_associativity()

    # -- construction checks ------------------------------------------------

    def _identity(self, identity, validate):
        """The declared identity (checked when validating), else the solved one."""
        n = self.dim
        if identity is None:
            return self._solve_identity()
        one = linalg.as_mod_array(identity, self.p)
        if one.shape != (n,):
            raise InvalidDocument("identity has the wrong length")
        if validate and not self._is_identity(one):
            raise NoIdentity("the declared identity is not an identity")
        return one

    def _certify_associativity(self):
        """Prove associativity from a few elements of the left nucleus.

        The left nucleus N = {g : (g w) z = g (w z) for all w, z} of a
        unital algebra is a subalgebra containing 1 (Schafer 1966), so if
        elements of N generate A, then A = N is associative.  Elements g
        are drawn from a fixed-seed RNG one at a time; g lies in N when
        (g b_j) b_k = g (b_j b_k) for all j, k, two n^3-entry products.
        The span of 1 is closed under left multiplication by the accepted
        g's; once it is all of A the proof is complete.  The randomness
        only decides how soon that happens.  A g outside N, or a span still
        short of A after the last draw, hands over to the blocked check,
        which gives the verdict and the first failing triple.  A completed
        proof keeps the accepted g's, which generate A, for center_basis.
        """
        n, p = self.dim, self.p
        flat = linalg.Operand(self.sc.reshape(n * n, n), p)
        span, pivots = linalg.row_echelon(self.one[None, :], p)
        # j random elements of F_p^n generate it once p^j >> n^2 (they
        # must separate all n coordinates: the birthday bound), so allow
        # 2 ceil(log_p n) + 2 draws
        log = 0
        while p**log < n:
            log += 1
        draws = 2 * log + 2
        rng = random.Random(0)
        gens = []
        lefts = np.zeros((n, 0), dtype=np.int64)  # [L_g1 | L_g2 | ...]
        for _ in range(draws):
            if span.shape[0] == n:
                break
            g = self.random_vec(rng)
            # left[j, m] = coordinate m of g b_j
            left = linalg.matmul_mod(g[None, :], self._ltable, p).reshape(n, n)
            gw_z = linalg.matmul_mod(left, self._ltable, p)  # [j, (k, l)]
            g_wz = linalg.matmul_mod(flat, left, p)  # [(j, k), l]
            if not np.array_equal(gw_z.reshape(-1), g_wz.reshape(-1)):
                self._check_associativity()
                raise InternalInvariantViolation(
                    "a drawn element lies outside the left nucleus, yet no "
                    "basis triple fails to associate"
                )
            gens.append(g)
            lefts = np.concatenate([lefts, left], axis=1)
            # the span is closed under the earlier g's: start from g * span
            new = linalg.matmul_mod(span, left, p)
            while new.shape[0]:
                span, pivots, fresh = linalg.extend_rref(span, pivots, new, p)
                new = linalg.matmul_mod(fresh, lefts, p).reshape(-1, n)
        if span.shape[0] < n:
            self._check_associativity()
        else:
            self._generators = np.array(gens, dtype=np.int64).reshape(-1, n)

    def _check_associativity(self):
        """(b_i b_j) b_k = b_i (b_j b_k) for all triples, a block of i at a time.

        Row block i of flat_left times the left table gives the coordinates
        of (b_i b_j) b_k; flat_left times column block i of the right table
        gives those of b_i (b_j b_k).  Each block holds at most about
        _CHECK_ENTRIES of the n^4 entries, so memory stays O(n^3), and the
        blocks go in order of i, so the witness is the first failing triple.
        """
        n, p = self.dim, self.p
        if n == 0:
            return
        flat_left = linalg.Operand(self.sc.reshape(n * n, n), p)
        step = max(1, _CHECK_ENTRIES // n**3)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            # lhs[i, j, k, l] = sum_m c[i,j,m] c[m,k,l]
            lhs = linalg.matmul_mod(
                flat_left.ints[lo * n : hi * n], self._ltable, p
            ).reshape(hi - lo, n, n, n)
            # rhs[j, k, i, l] = sum_m c[j,k,m] c[i,m,l]
            rhs = linalg.matmul_mod(
                flat_left, self._rtable.ints[:, lo * n : hi * n], p
            ).reshape(n, n, hi - lo, n).transpose(2, 0, 1, 3)
            if not np.array_equal(lhs, rhs):
                i, j, k, _ = np.argwhere(lhs != rhs)[0]
                raise NotAssociative((int(lo + i), int(j), int(k)))

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
        """The u with M u = rhs, from the RREF of the tall [M | rhs].

        An identity is unique (u = u u' = u'), so a solvable system has
        full column rank: it has one exactly when the pivots are the n
        columns of M, and then u is the last column of the RREF.
        """
        M, rhs = self._identity_system()
        R, pivots = linalg.row_echelon(
            np.concatenate([M, rhs[:, None]], axis=1), self.p
        )
        if pivots != list(range(self.dim)):
            raise NoIdentity("presentation has no two-sided identity")
        return R[:, -1].copy()

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
        left = linalg.matmul_mod(X, self._ltable, p)
        left = left.reshape(kx, n, n).transpose(1, 0, 2).reshape(n, kx * n)
        out = linalg.matmul_mod(Y, left, p)
        return out.reshape(len(out), kx, n).transpose(1, 0, 2)

    @property
    def _ltable(self):
        # row i holds the flattened matrix of left multiplication by b_i
        table = getattr(self, "_ltable_cache", None)
        if table is None:
            n = self.dim
            table = linalg.Operand(self.sc.reshape(n, n * n), self.p)
            self._ltable_cache = table
        return table

    @property
    def _rtable(self):
        # row i holds the flattened matrix of right multiplication by b_i
        table = getattr(self, "_rtable_cache", None)
        if table is None:
            n = self.dim
            table = linalg.Operand(
                self.sc.transpose(1, 0, 2).reshape(n, n * n), self.p
            )
            self._rtable_cache = table
        return table

    def lmat(self, x):
        """Matrix of left multiplication by x; column j is x*b_j."""
        n = self.dim
        flat = linalg.matmul_mod(x[None, :], self._ltable, self.p)
        return np.ascontiguousarray(flat.reshape(n, n).T)

    def rmat(self, y):
        """Matrix of right multiplication by y; column i is b_i*y."""
        n = self.dim
        flat = linalg.matmul_mod(y[None, :], self._rtable, self.p)
        return np.ascontiguousarray(flat.reshape(n, n).T)

    def powers(self, x, one):
        """Rows one, x, x^2, ..., x^dim, by doubling (Keller-Gehrig 1985).

        `one` is the zeroth power: A's identity, or the identity e of a
        corner e*A*e that holds x.  With K = [x^0 .. x^(k-1)] and S the
        transpose of L_x^k, K S holds x^k .. x^(2k-1): each step appends
        it to K and squares S.
        """
        n, p = self.dim, self.p
        K, S = one[None, :], np.ascontiguousarray(self.lmat(x).T)
        while True:
            K = np.concatenate([K, linalg.matmul_mod(K, S, p)])
            if len(K) > n:
                return K[: n + 1]
            S = linalg.matmul_mod(S, S, p)

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
        """Canonical basis (rows) of {z : zx = xz for all x}.

        z is central iff it commutes with each of a set of generators: the
        elements the associativity certificate accepted, or else (the
        blocked check decided, or the presentation was not validated) the
        basis vectors.  Row (g, k) of the system is coordinate k of
        z*g - g*z, so the kernel is k*dim x dim for k generators.
        """
        n, p = self.dim, self.p
        G = getattr(self, "_generators", None)
        if G is None:
            G = np.eye(n, dtype=np.int64)
        # diff[g, j, k] = coordinate k of b_j*g - g*b_j
        diff = (linalg.matmul_mod(G, self._rtable, p)
                - linalg.matmul_mod(G, self._ltable, p)) % p
        M = np.ascontiguousarray(diff.reshape(-1, n, n).transpose(0, 2, 1))
        return linalg.kernel(M.reshape(-1, n), p)

    def is_commutative(self):
        return np.array_equal(self.sc, self.sc.transpose(1, 0, 2))

    def require_commutative(self):
        if not self.is_commutative():
            raise NotCommutative("presentation is not commutative")

    def frobenius_matrix(self):
        """Matrix (columns) of x -> x^p; only linear when commutative.

        The p-th powers of all basis vectors are taken together: each
        square-and-multiply step is one row-wise product of two stacks.
        """
        self.require_commutative()
        n, k = self.dim, self.p
        acc = np.tile(self.one, (n, 1))
        base = np.eye(n, dtype=np.int64)
        while k:
            if k & 1:
                acc = self.mul_rows(acc, base)
            k >>= 1
            if k:
                base = self.mul_rows(base, base)
        return np.ascontiguousarray(acc.T)

    def mul_rows(self, X, Y):
        """Row-wise products: out[i] = X[i] * Y[i], shape (k, dim)."""
        n, p = self.dim, self.p
        # left[i, l, j] = coordinate l of X[i] * b_j
        left = linalg.matmul_mod(X, self._ltable, p).reshape(-1, n, n)
        Y = linalg.as_mod_array(Y, p)
        return linalg._stack_matvec(left.transpose(0, 2, 1), Y, p)

    def random_vec(self, rng):
        return np.array([rng.randrange(self.p) for _ in range(self.dim)],
                        dtype=np.int64)

    # -- subalgebras ----------------------------------------------------------

    def _hom_rows(self, f, e):
        """Canonical basis (rows) of f*A*e for idempotents f and e: the
        reduced-echelon basis of the image of x -> f x e, whose projector
        is rmat(e) @ lmat(f).  Unchecked: the callers hold idempotents."""
        proj = linalg.matmul_mod(self.rmat(e), self.lmat(f), self.p)
        return linalg.row_space_basis(proj.T, self.p)

    def subalgebra(self, rows, one):
        """The algebra presented on the basis `rows` (A's coordinates) with
        identity `one`, which may differ from A's.  EntryOutsideCorner unless
        the rows span a subalgebra that contains `one`."""
        k = rows.shape[0]
        # products of basis pairs and the identity, in the row basis
        prods = self.products(rows, rows).reshape(k * k, self.dim)
        coeffs = linalg.coordinates(
            rows, np.concatenate([prods, one[None, :]]), self.p
        )
        if coeffs is None:
            raise EntryOutsideCorner(
                "subalgebra basis is not closed under product or misses "
                "the identity"
            )
        sc = np.ascontiguousarray(coeffs[:-1].reshape(k, k, k))
        # associativity is inherited, skip the quadratic recheck
        return Algebra(self.p, sc, identity=coeffs[-1], validate=False)

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


def min_poly_of_powers(K, p):
    """Minimal polynomial (monic, lowest-first) of x from K = powers(x, one).

    The kernel of K^T holds the q with q(x) = 0.  Its first row belongs to
    the first free column d, the least power that depends on the lower
    ones; it is monic of degree d and zero past d, so it is the minimal
    polynomial.
    """
    return poly.normalize(linalg.kernel(K.T, p)[0], p)


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


def doc_array(x, shape, what, error=InvalidDocument):
    """int64 array of a document field with the given shape (None: any size).

    Booleans, floats and strings are refused, not truncated or coerced; a
    ragged, non-integer or misshapen x raises `error`.
    """
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):
        raise error(f"{what} is not an integer array") from None
    if arr.dtype.kind != "i" and arr.size:
        raise error(f"{what} must hold integers, not {arr.dtype}")
    if arr.ndim != len(shape) or any(
        want is not None and want != got for want, got in zip(shape, arr.shape)
    ):
        want = tuple("*" if n is None else n for n in shape)
        raise error(f"{what} has shape {arr.shape}, expected {want}")
    if arr.ndim and arr.size and not isinstance(x, np.ndarray):
        # numpy reads [1, true] as the integers [1, 1]: look at the leaves
        leaves = x
        for _ in range(arr.ndim - 1):
            leaves = chain.from_iterable(leaves)
        if not _BOOL_TYPES.isdisjoint(map(type, leaves)):
            raise error(f"{what} must hold integers, not booleans")
    return arr.astype(np.int64)
