"""Associative F_p-algebras presented by structure constants.

A presentation is a cube c with b_i * b_j = sum_k c[i,j,k] b_k.  The
validating constructor refuses entries of c or of a declared identity that
are not integers (see doc_array) and locates the two-sided identity; it
checks nothing more.  Associativity, the one ring axiom a cube of constants
does not give for free, stays pending until require_associative proves it,
once, for every presentation: first by a left-nucleus certificate (a few
drawn elements that associate with every basis pair, O(n^4) each, and
generate the algebra; unless it is commutative, the span of 1 grows under
the first two together), and when that does not conclude, by the blocked
check of every basis triple (two flattened matrix products a block of the
first index at a time, O(n^3) memory), which names the first failing
triple.

make_presentation calls it at once.  Every entry point that rests on
associativity (decomposition, radical, idempotents, centre, direct sum)
calls it before its first product, and a passing `wedderburn verify`
proves associativity from the isomorphism instead (see blocks.check).
Subalgebras and matrix rings built without validation inherit the state
of the algebra they come from.  So a pending Algebra is proved associative
or refused with NotAssociative before anything rests on it.

An Algebra keeps one multiplication table: the linalg.Operand `_ltable`
over c, row i the flattened matrix of left multiplication by b_i.  The
other shapes of c a product needs are reshape views of it that share its
float copies, so c is converted once: the pair table, whose row (i, j)
holds b_i b_j, and the cube, whose matrix i takes a row vector y to b_i y
(so y against the cube gives right multiplication by y).
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
    """Finite-dimensional unital algebra over F_p, associative once
    require_associative has passed; a reduced C-contiguous int64 cube is
    kept as `sc`, uncopied, and set read-only.  A validated one checks form
    and the identity, and leaves associativity pending."""

    def __init__(self, p, structure_constants, identity=None, labels=None,
                 validate=True, _pending=False):
        self.p = check_modulus(p)
        if validate:
            structure_constants = doc_array(structure_constants, (None,) * 3,
                                            "structure constants")
        sc = np.ascontiguousarray(linalg._reduced(structure_constants, self.p))
        sc.flags.writeable = False
        if sc.ndim != 3 or not (sc.shape[0] == sc.shape[1] == sc.shape[2]):
            raise InvalidDocument(
                f"structure constants must be a cube, got shape {sc.shape}"
            )
        n = sc.shape[0]
        if validate and n < 1:
            raise InvalidDocument("dimension must be at least 1")
        self.dim = n
        self.sc = sc
        # row i holds the flattened matrix of left multiplication by b_i;
        # every product with the structure constants reads a view of it
        self._ltable = linalg.Operand(sc.reshape(n, n * n), self.p)
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
        # associativity not yet proved; an unvalidated algebra inherits
        # the state of the algebra it was built from
        self._pending = validate or _pending
        self.one = self._identity(identity, validate)

    def require_associative(self):
        """Prove associativity now if it is pending: the certificate runs
        once, and NotAssociative names the first failing triple."""
        if self._pending:
            self._certify_associativity()
            self._pending = False

    # -- construction checks ------------------------------------------------

    def _identity(self, identity, validate):
        """The declared identity (checked when validating), else the solved one."""
        n = self.dim
        if identity is None:
            return self._solve_identity()
        if validate:
            identity = doc_array(identity, (None,), "identity")
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
        are drawn from a fixed-seed RNG, each tested as drawn: g lies in N
        when (g b_j) b_k = g (b_j b_k) for all j, k, two n^3-entry products.
        The span of 1 is closed a level at a time under the accepted g's
        (new rows times [L_g1 | L_g2 | ...]); under g1 alone it is
        commutative, so unless A is, the first closure waits for g2.  Once
        it is all of A the proof is complete.  The randomness only decides
        how soon that happens.  A g outside N, or a span still short of A
        after the last draw, hands over to the blocked check, which gives
        the verdict and the first failing triple.  A completed proof keeps
        the accepted g's, which generate A, for center_basis.
        """
        n, p = self.dim, self.p
        flat = self._ltable.reshape(n * n, n)
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
            # g1 alone spans a commutative algebra: g^a g^b = g^(a+b)
            if len(gens) == 1 and not self.is_commutative():
                continue
            # the span is closed under the earlier g's, unless it is still 1
            new = linalg.matmul_mod(span, left if len(span) > 1 else lefts, p)
            while new.size:
                span, pivots, fresh = linalg.extend_rref(
                    span, pivots, new.reshape(-1, n), p)
                new = linalg.matmul_mod(fresh, lefts, p)
        if span.shape[0] < n:
            self._check_associativity()
        else:
            self._generators = np.array(gens, dtype=np.int64).reshape(len(gens), n)

    def _check_associativity(self):
        """(b_i b_j) b_k = b_i (b_j b_k) for all triples, a block of i at a time.

        Row block i of the pair table (row (i, j) holds b_i b_j) times the
        left table gives the coordinates of (b_i b_j) b_k; the pair table
        times the block's matrices i of the cube c, each taking y to b_i y,
        gives those of b_i (b_j b_k), in the same (i, j, k) order.
        Each block holds at most about _CHECK_ENTRIES of the n^4 entries, so
        memory stays O(n^3), and the blocks go in order of i, so the witness
        is the first failing triple.
        """
        n, p = self.dim, self.p
        if n == 0:
            return
        flat = self._ltable.reshape(n * n, n)
        step = max(1, _CHECK_ENTRIES // n**3)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            # lhs[i, j, k, l] = sum_m c[i,j,m] c[m,k,l]
            lhs = linalg.matmul_mod(
                flat.ints[lo * n : hi * n], self._ltable, p
            ).reshape(hi - lo, n, n, n)
            # rhs[i, j, k, l] = sum_m c[j,k,m] c[i,m,l]
            rhs = linalg.matmul_mod(flat, self.sc[lo:hi], p).reshape(
                hi - lo, n, n, n
            )
            if not np.array_equal(lhs, rhs):
                i, j, k, _ = np.argwhere(lhs != rhs)[0]
                raise NotAssociative((int(lo + i), int(j), int(k)))

    def _solve_identity(self):
        """The two-sided identity, solved from u b_j = b_j for all j.

        A two-sided identity makes x -> L_x injective (x = x 1), so then the
        left system has full column rank and its one solution is the only
        candidate.  The rows [c[:, j, :]^T | e_j] are folded into one RREF a
        j at a time until the n unknowns are pinned; the candidate is then
        tested on both sides.
        """
        n, p = self.dim, self.p
        eye = np.eye(n, dtype=np.int64)
        R, pivots = np.zeros((0, n + 1), dtype=np.int64), []
        for j in range(n):
            rows = np.concatenate([self.sc[:, j, :].T, eye[:, j : j + 1]], axis=1)
            R, pivots, _ = linalg.extend_rref(R, pivots, rows, p)
            if len(pivots) == n or (pivots and pivots[-1] == n):
                break
        if pivots != list(range(n)) or not self._is_identity(R[:, -1]):
            raise NoIdentity("presentation has no two-sided identity")
        return R[:, -1].copy()

    def _is_identity(self, u):
        eye = np.eye(self.dim, dtype=np.int64)
        return (np.array_equal(self.lmat(u), eye)
                and np.array_equal(self.rmat(u), eye))

    # -- raw coordinate operations -------------------------------------------

    def mul_vec(self, x, y):
        """Coordinates of x*y."""
        return linalg.matmul_mod(self.lmat(x), y[:, None], self.p)[:, 0]

    def products(self, X, Y):
        """All pairwise products: out[i, j] = X[i] * Y[j], shape (kx, ky, dim).

        Two matmul_mod calls: X against the n x n^2 multiplication table,
        then Y against the stack whose matrix i takes y to X[i]*y, one per
        row of X, so the shorter stack should be X.
        """
        n, p = self.dim, self.p
        # left[i, j, k] = coordinate k of X[i] * b_j
        left = linalg.matmul_mod(X, self._ltable, p).reshape(len(X), n, n)
        return linalg.matmul_mod(Y, left, p)

    def lmat(self, x):
        """Matrix of left multiplication by x; column j is x*b_j."""
        n = self.dim
        flat = linalg.matmul_mod(x[None, :], self._ltable, self.p)
        return np.ascontiguousarray(flat.reshape(n, n).T)

    def rmat(self, y):
        """Matrix of right multiplication by y; column i is b_i*y."""
        n = self.dim
        # flat[i, 0, k] = coordinate k of b_i*y
        flat = linalg.matmul_mod(y[None, :], self._ltable.reshape(n, n, n), self.p)
        return np.ascontiguousarray(flat.reshape(n, n).T)

    def powers(self, x, one, top=None):
        """Rows one, x, x^2, ..., x^top (top = dim by default), by doubling
        (Keller-Gehrig 1985).

        `one` is the zeroth power: A's identity, or the identity e of a
        corner e*A*e that holds x.  With K = [x^0 .. x^(k-1)] and S the
        transpose of L_x^k, K S holds x^k .. x^(2k-1): each step appends
        the rows of it that top asks for, and squares S.
        """
        top, p = self.dim if top is None else top, self.p
        K, S = one[None, :], np.ascontiguousarray(self.lmat(x).T)
        while True:
            K = np.concatenate([K, linalg.matmul_mod(K[: top + 1 - len(K)], S, p)])
            if len(K) > top:
                return K
            S = linalg.matmul_mod(S, S, p)

    def trace_vector(self):
        """t with t_i = trace of left multiplication by b_i."""
        return np.einsum("ikk->i", self.sc) % self.p

    def gram_matrix(self):
        """Trace form gram[i,j] = trace(L_{b_i b_j})."""
        n = self.dim
        t = self.trace_vector()
        return linalg.matmul_mod(
            self._ltable.reshape(n * n, n), t[:, None], self.p
        ).reshape(n, n)

    def center_basis(self):
        """Canonical basis (rows) of {z : zx = xz for all x}.

        z is central iff it commutes with each of a set of generators: the
        elements the associativity certificate accepted, or else (the
        blocked check decided, or associativity was inherited from the
        algebra this one was built from) the basis vectors.  Row (g, k) of
        the system is coordinate k of z*g - g*z, so the kernel is
        k*dim x dim for k generators.
        """
        self.require_associative()
        n, p = self.dim, self.p
        G = getattr(self, "_generators", None)
        if G is None:
            G = np.eye(n, dtype=np.int64)
        # right[j, g, k] = coordinate k of b_j*g, left[g, j, k] of g*b_j
        right = linalg.matmul_mod(G, self._ltable.reshape(n, n, n), p)
        left = linalg.matmul_mod(G, self._ltable, p).reshape(-1, n, n)
        # row (g, k), column j: coordinate k of b_j*g - g*b_j
        M = (right.transpose(1, 2, 0) - left.transpose(0, 2, 1)) % p
        return linalg.kernel(M.reshape(-1, n), p)

    def is_commutative(self):
        # a slice at a time: O(n^2) memory, and an early exit on a mismatch
        return all(np.array_equal(self.sc[i], self.sc[:, i])
                   for i in range(self.dim))

    def require_commutative(self):
        if not self.is_commutative():
            raise NotCommutative("presentation is not commutative")

    def frobenius_matrix(self):
        """Matrix (columns) of x -> x^p; only linear when commutative.

        The p-th powers of all basis vectors are taken together: each
        square-and-multiply step is one row-wise product of two stacks.  In
        dimension one, where b*b = c*b, the chain gives one * c^p = one * c
        (Fermat), so F is that scalar.
        """
        self.require_commutative()
        n, k = self.dim, self.p
        if n == 1:
            return np.array([[self.one[0] * self.sc[0, 0, 0] % k]],
                            dtype=np.int64)
        acc = np.tile(self.one, (n, 1))
        base = np.eye(n, dtype=np.int64)
        while k:
            if k & 1:
                acc = self.mul_rows(acc, base)
            k >>= 1
            if k:
                base = self.mul_rows(base, base)
        return np.ascontiguousarray(acc.T)

    def frobenius_fixed_space(self):
        """Basis (rows) of {x : x^p = x}, or None when x -> x^p drops rank.

        x -> x^p is injective exactly when there is no nonzero nilpotent; a
        commutative algebra is then a field iff the fixed space is F_p.
        """
        F = self.frobenius_matrix()
        if linalg.rank(F, self.p) < self.dim:
            return None
        return linalg.kernel((F - np.eye(self.dim, dtype=np.int64)) % self.p, self.p)

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
        # associativity is inherited, proved or pending: skip the recheck
        return Algebra(self.p, sc, identity=coeffs[-1], validate=False,
                       _pending=self._pending)

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
    polynomial.  K from powers(x, one, top) with top below the degree holds
    no relation, and raises InternalInvariantViolation.
    """
    relations = linalg.kernel(K.T, p)
    if not len(relations):
        raise InternalInvariantViolation(
            f"the powers of x up to x^{len(K) - 1} are independent: its "
            "minimal polynomial has a higher degree"
        )
    return poly.normalize(relations[0], p)


def matrix_ring(D, n):
    """M_n(D), unvalidated, on the basis E[mu,nu]*d_t in (mu, nu, t) order.

    (E[mu,nu] d_s)(E[xi,eta] d_t) = delta(nu,xi) E[mu,eta] (d_s d_t), and
    the identity is the sum of the E[mu,mu] times D's identity.
    """
    eye = np.eye(n, dtype=np.int64)
    size = n * n * D.dim
    sc = np.einsum("ma,nx,eb,stu->mnsxetabu", eye, eye, eye, D.sc)
    one = np.einsum("mn,t->mnt", eye, D.one)
    return Algebra(D.p, sc.reshape(size, size, size), identity=one.reshape(size),
                   validate=False, _pending=D._pending)


def make_presentation(p, structure_constants, identity=None, labels=None):
    """Validated constructor that proves associativity at once: the
    Algebra's checks, then require_associative."""
    A = Algebra(p, structure_constants, identity=identity, labels=labels)
    A.require_associative()
    return A


def from_doc(doc):
    """Reconstruct an Algebra from its document, with associativity pending.

    Form, integer type, shape and the identity are checked as by the
    Algebra constructor.  Associativity is left to require_associative,
    which every entry point that needs it calls first, or to a passing
    blocks.check, which proves it from the isomorphism.
    """
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
    return Algebra(p, arr, identity=doc.get("identity"), labels=doc.get("labels"))


def is_doc_int(x):
    """A JSON integer (bool is an int subclass in Python, but not one here)."""
    return isinstance(x, int) and not isinstance(x, bool)


def doc_array(x, shape, what, error=InvalidDocument):
    """int64 array of a document field with the given shape (None: any size).

    Nested lists of Python ints take one typed pass (_int_lists); anything
    else takes numpy's reading, which words every refused leaf.  Booleans,
    floats and strings are refused, not truncated or coerced; a ragged,
    non-integer or misshapen x raises `error`.
    """
    arr = typed = _int_lists(x, len(shape))
    if typed is None:
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
    if typed is None and arr.ndim and arr.size and not isinstance(x, np.ndarray):
        # numpy reads [1, true] as the integers [1, 1]: look at the leaves
        leaves = x
        for _ in range(arr.ndim - 1):
            leaves = chain.from_iterable(leaves)
        if not _BOOL_TYPES.isdisjoint(map(type, leaves)):
            raise error(f"{what} must hold integers, not booleans")
    return arr.astype(np.int64, copy=False)


def _int_lists(x, depth):
    """x as int64 if it is a rectangular nested list of that depth of Python
    ints (not bools) within int64, else None: one walk of the lengths, one
    scan of the leaf types and one np.fromiter, never listing the leaves."""
    rows, dims = [x], []
    for _ in range(depth):
        if dims:
            rows = list(chain.from_iterable(rows))
        if set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1:
            return None
        dims.append(len(rows[0]))
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        return None
    try:
        return np.fromiter(chain.from_iterable(rows), np.int64,
                           len(rows) * dims[-1]).reshape(dims)
    except OverflowError:
        return None
