"""Associative F_p-algebras presented by structure constants.

A presentation is a cube c with b_i * b_j = sum_k c[i,j,k] b_k.  The
validating constructor refuses entries of c or of a declared identity that
are not integers (see doc_array) and locates the two-sided identity; it
checks nothing more.  Associativity, the one ring axiom a cube of constants
does not give for free, stays pending until require_associative proves it,
once, for every presentation, by one left-nucleus test (_nucleus_defect:
rows g that associate with every basis pair, two flattened matrix
products a block of rows, or of one row's columns, at a time, O(n^4) per
row in a fixed budget of memory beside the table).
The certificate tests a few drawn elements that generate the algebra,
the closure; an algebra no larger than the draw cap, a closure that
falls short and a failed test take every basis row instead, the
exhaustive check, which names the first failing triple.

make_presentation calls it at once, and so do the radical, the
idempotent and centre entry points before their first product.  A
decomposition (blocks.full_isomorphism) and `wedderburn verify` prove
associativity from the isomorphism instead (see blocks.check): they read
the centre off the centraliser of a few draws, which a test against the
basis confirms without assuming associativity (_center_basis); a passing
check marks the algebra proved, and the certificate runs only before a
failure.  Every Algebra starts pending, a subalgebra or a matrix ring of a
proved one too: no proof is copied from the algebra it comes from.  So a
pending Algebra is proved associative or refused with NotAssociative
before anything rests on it.

An Algebra keeps one multiplication table: the linalg.Operand `_ltable`
over c, row i the flattened matrix of left multiplication by b_i.  Every
product with the structure constants, here and in the other modules, goes
through three methods that read reshape views of it, which share its float
copies, so c is converted once: left(X), the products X[i] b_j; right(Y),
the products b_j Y[i]; and pair_products(M, lo, hi), the products b_i b_j
for lo <= i < hi, mapped by M.  Beside them only the nucleus test, which
reads runs of its columns, reads the table's layout.
"""

import math
import random
import struct
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

# a list cube whose first innermost row is at most this share 0s and 1s is
# converted by struct; denser ones take a type scan and np.fromiter.  At dim
# 50 the two cost the same near a share of 0.4 (p = 5): a quarter keeps a
# cube with p <= 7 on the scan, as a first row strays from the cube's share
_ZERO_ONE_SHARE = 0.25
# leaves a step of the converted cube's 0/1 type check looks at, so that its
# temporaries stay small at any size
_CHECK_LEAVES = 2**14

_PACKED_KEYS = frozenset(("encoding", "dtype", "shape", "data"))
_PACKED_DTYPES = ("<u1", "<u2", "<u4")

# int64 entries of one block of the associativity check (1 MB per side;
# blocks that fit in cache beat larger ones at every p measured).  Runs of
# table columns read it once per row: 8.6 s at dim 480 (p = 5, one BLAS
# thread), against 38.5 s for runs of j at 8 times this budget
_CHECK_ENTRIES = 2**17


class Algebra:
    """Finite-dimensional unital algebra over F_p, associative once
    require_associative has passed; a reduced C-contiguous int64 cube is
    kept as `sc`, uncopied, and set read-only, and so is the identity
    `one`, always a copy.  A validated one checks form and the identity;
    every one, validated or not, leaves associativity pending."""

    def __init__(self, p, structure_constants, identity=None, labels=None,
                 validate=True):
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
        # only left, right and pair_products read it
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
        # associativity not yet proved: only require_associative or a
        # passing blocks.check proves it
        self._pending = True
        self.one = self._identity(identity, validate)
        self.one.flags.writeable = False

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
        """Prove associativity from generators in the left nucleus.

        The left nucleus N = {g : (g w) z = g (w z) for all w, z} of a
        unital algebra is a subalgebra containing 1 (Schafer 1966), so if
        elements of N generate A, then A = N is associative.  The elements
        are the closure's rows (_closure), tested by _nucleus_defect.  With
        no closure, and after a g outside N, the exhaustive check gives the
        verdict and the first failing triple.
        """
        gens = self._closure()
        if gens is None:
            self._check_associativity()
            return
        if self._nucleus_defect(self.left(gens)) is not None:
            self._check_associativity()
            raise InternalInvariantViolation(
                "a drawn element lies outside the left nucleus, yet no "
                "basis triple fails to associate"
            )

    def _draw_cap(self):
        """2 ceil(log_p dim) + 2, the draws allowed to the closure and to
        the centre's centraliser: j random elements of F_p^n generate it
        once p^j >> n^2 (they must separate all n coordinates: the birthday
        bound)."""
        log = 0
        while self.p**log < self.dim:
            log += 1
        return 2 * log + 2

    def _closure(self):
        """Rows g_1 .. g_k drawn from a fixed-seed RNG that generate A, kept
        as _generators; None when the draws run out first, or at once when
        dim is at most the draw cap, as the basis is then no more rows.

        The span of 1 is closed a level at a time under left multiplication
        by the g's (new rows times [L_g1 | L_g2 | ...]); under g1 alone it
        is commutative, so unless A is, the first closure waits for g2.
        Once it is all of A, the g's generate A if A is associative, which
        the certificate, its one caller, proves from them.  The randomness
        only decides how soon that happens.
        """
        if hasattr(self, "_generators"):
            return self._generators
        n, p = self.dim, self.p
        cap, self._generators = self._draw_cap(), None
        if n <= cap:
            return None
        span, pivots = linalg.row_echelon(self.one[None, :], p)
        rng = random.Random(0)
        gens = []
        lefts = np.zeros((n, 0), dtype=np.int64)  # [L_g1 | L_g2 | ...]
        for _ in range(cap):
            if span.shape[0] == n:
                break
            g = self.random_vec(rng)
            gens.append(g)
            left = self.left(g[None, :])[0]
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
        if span.shape[0] == n:
            self._generators = np.array(gens, dtype=np.int64).reshape(len(gens), n)
        return self._generators

    def _check_associativity(self):
        """(b_i b_j) b_k = b_i (b_j b_k) for all triples, else NotAssociative
        with the first failing one: the nucleus test of every basis row,
        whose left multiplications are the cube c itself."""
        witness = self._nucleus_defect(self.sc)
        if witness is not None:
            raise NotAssociative(witness)

    def _nucleus_defect(self, left):
        """The first (r, j, k) in row-major order with (g_r b_j) b_k !=
        g_r (b_j b_k), or None; left[r, j, m] is coordinate m of g_r b_j.

        For a run of k, the rows (r, j) of a block of left times the
        table's columns b_l b_k give (g_r b_j) b_k, and the pair products
        b_j b_k mapped by the block's matrices r, each taking y to g_r y,
        give g_r (b_j b_k), both in (r, j, k) order.  A block and run hold
        about _CHECK_ENTRIES entries: whole rows r while n^3 entries fit,
        else one row and a run of k (one k at least).  Every run of a
        failing row is checked, for its first (j, k).
        """
        n, p = self.dim, self.p
        size = max(n, 1)
        step = max(1, _CHECK_ENTRIES // size**3)
        run = max(1, min(n, _CHECK_ENTRIES // size**2))
        for lo in range(0, len(left), step):
            block, found = left[lo : lo + step], []
            for k0 in range(0, n, run):
                if run == n:  # the whole table, with its float copies
                    cols, pairs = self._ltable, self._ltable.reshape(n * n, n)
                else:
                    part = self._ltable.ints.reshape(n, n, n)[:, k0 : k0 + run]
                    cols, pairs = part.reshape(n, -1), part.reshape(-1, n)
                lhs = linalg.matmul_mod(block.reshape(-1, n), cols, p)
                rhs = linalg.matmul_mod(pairs, block, p)
                bad = (lhs.reshape(rhs.shape) != rhs).any(axis=2)
                if bad.any():
                    r, j, k = np.unravel_index(
                        bad.argmax(), (len(block), n, rhs.shape[1] // n))
                    found.append((int(lo + r), int(j), int(k0 + k)))
            if found:
                return min(found)
        return None

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

    def left(self, X):
        """Left products with the basis: out[i, j, k] is coordinate k of
        X[i]*b_j, shape (len(X), dim, dim); matrix i is the transpose of
        L_X[i].  One product of X with the table."""
        n = self.dim
        return linalg.matmul_mod(X, self._ltable, self.p).reshape(-1, n, n)

    def right(self, Y):
        """Right products with the basis: out[j, i, k] is coordinate k of
        b_j*Y[i], shape (dim, len(Y), dim).  One product of Y with the
        table as a cube, whose matrix j takes y to b_j*y."""
        n = self.dim
        return linalg.matmul_mod(Y, self._ltable.reshape(n, n, n), self.p)

    def pair_products(self, M, lo=0, hi=None):
        """The products b_i*b_j for lo <= i < hi (hi = dim by default), as
        rows (i, j), times M: a matrix (dim, m) gives ((hi - lo) dim, m), a
        stack (s, dim, m) the stack (s, (hi - lo) dim, m).  A part of the
        range reads the int rows, which matmul_mod converts on every call."""
        n = self.dim
        hi = n if hi is None else hi
        rows = self._ltable.reshape(n * n, n)
        if (lo, hi) != (0, n):
            rows = rows.ints[lo * n : hi * n]
        return linalg.matmul_mod(rows, M, self.p)

    def products(self, X, Y):
        """All pairwise products: out[i, j] = X[i] * Y[j], shape (kx, ky, dim).

        Two matmul_mod calls: left(X), then Y against its stack, whose
        matrix i takes y to X[i]*y, one per row of X, so the shorter stack
        should be X.
        """
        return linalg.matmul_mod(Y, self.left(X), self.p)

    def lmat(self, x):
        """Matrix of left multiplication by x; column j is x*b_j."""
        return np.ascontiguousarray(self.left(x[None, :])[0].T)

    def rmat(self, y):
        """Matrix of right multiplication by y; column i is b_i*y."""
        return np.ascontiguousarray(self.right(y[None, :])[:, 0].T)

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
        return self.pair_products(self.trace_vector()[:, None]).reshape(n, n)

    def center_basis(self):
        """Canonical basis (rows) of {z : zx = xz for all x}, with
        associativity proved first; see _center_basis."""
        self.require_associative()
        return self._center_basis()

    def _center_basis(self):
        """center_basis without the proof, for a search whose result is
        checked.

        The centre Z lies in C, the centraliser of any elements g; C is Z
        once z b_j = b_j z for every row z of C and basis vector b_j, one
        left and one right product of C, which proves C inside Z by
        bilinearity alone (for C = A that is is_commutative).  The g's
        are draws from a fixed-seed RNG: two, then one more after each
        failed test, up to the closure's draw cap (_draw_cap); past it, or
        when dim is at most the cap, C is the centraliser of the basis
        vectors, which is Z.  Generators that proved A associative give Z
        untested.  Every path solves for the same subspace, and
        linalg.kernel returns its canonical basis.
        """
        n, cap = self.dim, self._draw_cap()
        G = None if self._pending else getattr(self, "_generators", None)
        if G is not None:
            return self._centraliser(G)
        if n > cap:
            rng = random.Random(0)
            G = [self.random_vec(rng)]
            while len(G) < cap:
                G.append(self.random_vec(rng))
                C = self._centraliser(np.array(G))
                # C = A takes n^3 comparisons, not the test's 2 n^4 products
                central = (self.is_commutative() if len(C) == n else
                           np.array_equal(self.left(C),
                                          self.right(C).transpose(1, 0, 2)))
                if central:
                    return C
        return self._centraliser(np.eye(n, dtype=np.int64))

    def _centraliser(self, G):
        """Canonical basis (rows) of {z : z g = g z for every row g of G}:
        the kernel of the len(G)*dim x dim system whose row (g, k) is
        coordinate k of z*g - g*z."""
        n, p = self.dim, self.p
        # row (g, k), column j: coordinate k of b_j*g - g*b_j
        M = self.right(G).transpose(1, 2, 0) - self.left(G).transpose(0, 2, 1)
        return linalg.kernel(M.reshape(-1, n) % p, p)

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
        n, p = self.dim, self.p
        if n == 1:
            return np.array([[self.one[0] * self.sc[0, 0, 0] % p]],
                            dtype=np.int64)

        def mul_rows(X, Y):
            """out[i] = X[i] * Y[i]: Y[i] through L_X[i], shape (k, dim)."""
            return linalg._stack_matvec(self.left(X).transpose(0, 2, 1), Y, p)

        acc, base, k = np.tile(self.one, (n, 1)), np.eye(n, dtype=np.int64), p
        while k:
            if k & 1:
                acc = mul_rows(acc, base)
            k >>= 1
            if k:
                base = mul_rows(base, base)
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

    def random_vec(self, rng):
        return np.array([rng.randrange(self.p) for _ in range(self.dim)],
                        dtype=np.int64)

    # -- subalgebras ----------------------------------------------------------

    def subalgebra(self, rows, one):
        """The algebra presented on the basis `rows` (A's coordinates) with
        identity `one`, which may differ from A's, with associativity
        pending, as on every Algebra.  EntryOutsideCorner unless the rows
        span a subalgebra that contains `one`."""
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
        return Algebra(self.p, sc, identity=coeffs[-1], validate=False)

    def __repr__(self):
        return f"Algebra(p={self.p}, dim={self.dim})"

    # -- serialization ---------------------------------------------------------

    def to_doc(self, packed=False):
        """The algebra document: the cube as nested lists, or packed."""
        doc = {
            "p": int(self.p),
            "dim": int(self.dim),
            "structure_constants": (pack_cube(self.sc, self.p) if packed
                                    else self.sc.tolist()),
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
                   validate=False)


def make_presentation(p, structure_constants, identity=None, labels=None):
    """Validated constructor that proves associativity at once: the
    Algebra's checks, then require_associative."""
    A = Algebra(p, structure_constants, identity=identity, labels=labels)
    A.require_associative()
    return A


def from_doc(doc):
    """Reconstruct an Algebra from its document, with associativity pending.

    The cube is nested lists or the packed form (doc_array).  Form, integer
    type, shape and the identity are checked as by the Algebra constructor.
    Associativity is left to require_associative, which every entry point
    that needs it calls first, or to a passing blocks.check, which proves
    it from the isomorphism.
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
                    "structure constants", p=p)
    if "dim" in doc and not (is_doc_int(doc["dim"]) and arr.shape[0] == doc["dim"]):
        raise InvalidDocument("declared dim disagrees with the constants cube")
    return Algebra(p, arr, identity=doc.get("identity"), labels=doc.get("labels"))


def is_doc_int(x):
    """A JSON integer (bool is an int subclass in Python, but not one here)."""
    return isinstance(x, int) and not isinstance(x, bool)


def doc_array(x, shape, what, error=InvalidDocument, p=None):
    """int64 array of a document field with the given shape (None: any size).

    Nested lists take one conversion pass (_int_lists); anything else takes
    numpy's reading, which words every refused leaf.  Booleans, floats and
    strings are refused, not truncated or coerced; a ragged, non-integer or
    misshapen x raises `error`.  Given the modulus p, x may also be the
    packed object form of a cube (_unpack).
    """
    if p is not None and isinstance(x, dict):
        arr = typed = _unpack(x, p, what, error)
    else:
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
    """x as int64 if it is a rectangular nested list of that depth of ints
    within int64, else None (numpy's reading then words the refusal).

    One walk of the lengths, then one conversion pass over the innermost
    rows, never listing the leaves.  When at most _ZERO_ONE_SHARE of the
    first row reads 0 or 1, each row is converted by struct's "q" format,
    which refuses floats, strings, None and ints past int64 by itself; only
    the leaves that read 0 or 1 can be JSON booleans, so only their types
    are looked at (_converted_rows).  A cube denser in 0s and 1s (p <= 7, an
    unscrambled matrix ring or group algebra) costs less with one scan of
    every leaf's type and one np.fromiter.
    """
    rows, dims = [x], []
    for _ in range(depth):
        if dims:
            rows = list(chain.from_iterable(rows))
        if set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1:
            return None
        dims.append(len(rows[0]))
    first = rows[0]
    if first and (first.count(0) + first.count(1)
                  <= _ZERO_ONE_SHARE * len(first)):
        return _converted_rows(rows, dims)
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        return None
    try:
        return np.fromiter(chain.from_iterable(rows), np.int64,
                           len(rows) * dims[-1]).reshape(dims)
    except OverflowError:
        return None


def _converted_rows(rows, dims):
    """_int_lists' struct pass over rows of equal length: each row is
    written straight into the result, then the 0s and 1s of about
    _CHECK_LEAVES leaves at a time are looked up by type."""
    width = dims[-1]
    flat = np.empty(len(rows) * width, dtype=np.int64)
    pack = struct.Struct(f"{width}q").pack_into
    offsets = range(0, flat.nbytes, flat.itemsize * width)
    try:
        for offset, row in zip(offsets, rows):
            pack(flat, offset, *row)
    except struct.error:
        return None
    step = max(1, _CHECK_LEAVES // width)
    for lo in range(0, len(rows), step):
        # 0 and 1 are the values <= 1 unsigned: a negative reads >= 2^63
        chunk = flat[lo * width : (lo + step) * width].view(np.uint64)
        r, c = np.divmod(np.flatnonzero(chunk <= 1), width)
        if not set(map(type, map(list.__getitem__,
                                 map(rows.__getitem__, (r + lo).tolist()),
                                 c.tolist()))) <= {int}:
            return None
    return flat.reshape(dims)


def packed_dtype(p):
    """The smallest unsigned little-endian dtype that holds p - 1."""
    return next(d for d in _PACKED_DTYPES
                if p - 1 < 256 ** np.dtype(d).itemsize)


def pack_cube(sc, p):
    """The packed object form of a cube with entries in [0, p)."""
    import base64  # only the packed form needs it

    dtype = packed_dtype(p)
    return {
        "encoding": "base64",
        "dtype": dtype,
        "shape": list(sc.shape),
        "data": base64.b64encode(sc.astype(dtype).tobytes()).decode("ascii"),
    }


def _unpack(x, p, what, error):
    """The cube of the packed form, read strictly: {"encoding": "base64",
    "dtype": packed_dtype(p), "shape": [n, n, n], "data": base64 of the
    entries in C order}, every entry below p.  Each fault raises `error`
    naming its field."""
    import base64  # only the packed form needs it

    p = check_modulus(p)
    unknown = sorted(map(repr, x.keys() - _PACKED_KEYS))
    if unknown:
        raise error(f"{what}: unknown key {unknown[0]} in the packed form")
    missing = sorted(_PACKED_KEYS - x.keys())
    if missing:
        raise error(f"{what}: the packed form is missing {missing[0]!r}")
    if x["encoding"] != "base64":
        raise error(f"{what}: field 'encoding' must be 'base64', "
                    f"got {x['encoding']!r}")
    dtype = packed_dtype(p)
    if x["dtype"] != dtype:
        raise error(f"{what}: field 'dtype' must be {dtype!r}, the smallest "
                    f"width that holds p - 1 = {p - 1}, got {x['dtype']!r}")
    shape = x["shape"]
    if not (isinstance(shape, list) and len(shape) == 3
            and all(is_doc_int(s) and s >= 0 for s in shape)):
        raise error(f"{what}: field 'shape' must be three non-negative "
                    f"integers, got {shape!r}")
    try:
        raw = base64.b64decode(x["data"], validate=True)
    except (TypeError, ValueError):
        raise error(f"{what}: field 'data' is not a base64 string") from None
    want = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != want:
        raise error(f"{what}: field 'data' holds {len(raw)} bytes, not the "
                    f"{want} of shape {shape} in {dtype!r}")
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if arr.size and arr.max() >= p:
        at = np.unravel_index(np.argmax(arr >= p), arr.shape)
        raise error(f"{what}: field 'data' holds {arr[at]} at "
                    f"{tuple(map(int, at))}, not below p = {p}")
    return arr.astype(np.int64)
