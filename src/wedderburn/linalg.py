"""Exact linear algebra over F_p on int64 numpy arrays.

All matrices carry canonical representatives in [0, p).
"""

import numpy as np


def as_mod_array(data, p):
    """Copy data into a C-contiguous int64 array reduced mod p.  The copy
    is made first, and one unsigned scan decides whether it needs the
    `% p` pass (as in _reduced, a negative entry reads as at least 2^63):
    the eliminations' inputs are reduced already, and are not reduced
    again."""
    M = np.array(data, dtype=np.int64, order="C")
    if M.size and M.view(np.uint64).max() >= p:
        M %= p
    return M


def rref(M, p):
    """Reduced row echelon form (copy), pivot at a time.  Returns
    (R, pivot_column_list).  Callers go through row_echelon, which runs this
    on a matrix of one row chunk, and on the residue a row chunk leaves
    (extend_rref).

    Reduction is delayed (after Dumas, Giorgi & Pernet, FFLAS-FFPACK): a
    pivot step reduces mod p only its column (the multipliers f) and the
    pivot row, and subtracts f * row from the unreduced int64 entries.  An
    entry never grows and falls by at most (p-1)^2 per update, so it stays
    in int64 while the columns right of the pivot, the only ones a later
    step writes, are reduced every L = (2^63 - p) // (p-1)^2 - 1 updates,
    and the whole matrix once at the end: never in between at p = 97,
    every 6 updates at 2^30+3, after each one at 2^31-1.  A column that is
    zero off the pivot makes no update.  At a column that is zero below the
    current row the matrix is reduced, and one scan skips the run of such
    columns.  One row is just scaled by its leading entry.

    At the end only the r pivot rows are reduced: the rows below are
    congruent to 0 mod p, and are set to zero.  The full shape is kept.
    """
    R = as_mod_array(M, p)
    if R.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    rows, cols = R.shape
    if rows == 1:
        nz = R[0].nonzero()[0]
        if nz.size and R[0, nz[0]] != 1:
            R *= pow(int(R[0, nz[0]]), p - 2, p)
            R %= p
        return R, nz[:1].tolist()
    lag = (_INT64_SAFE - p) // ((p - 1) * (p - 1)) - 1
    pivots, r, c, pending, dirty = [], 0, 0, 0, False
    while r < rows and c < cols:
        f = R[:, c] % p
        if f[r]:
            i = r
        else:
            nz = f[r:].nonzero()[0]
            if nz.size == 0:
                if dirty:
                    R %= p
                    pending, dirty = 0, False
                live = R[r:, c + 1:].any(axis=0).nonzero()[0]
                if live.size == 0:
                    break
                c += 1 + int(live[0])
                continue
            i = r + int(nz[0])
            R[[r, i]] = R[[i, r]]
            f[r], f[i] = f[i], 0
        piv = int(f[r])
        row = R[r, c:]
        if pending:
            row %= p
        if piv != 1:
            row *= pow(piv, p - 2, p)
            row %= p
        f[r] = 0
        pivots.append(c)
        if f.any():
            R[:, c:] -= np.multiply.outer(f, row)
            pending, dirty = pending + 1, True
            if pending == lag:
                R[:, c + 1:] %= p
                pending = 0
        r, c = r + 1, c + 1
    if dirty:
        R[:r] %= p
    R[r:] = 0
    return R, pivots


# int64 entries of one row chunk of a tall system (32 KB): a chunk is
# reduced against the RREF so far with one matmul_mod, and only its nonzero
# residue goes through the pivot-at-a-time rref.  The tall systems are the
# centre's k dim x dim commutator kernels (k generators, two on the
# benchmark's inputs): 2^10..2^15 entries time alike at dims up to 50, and
# at dim 144 2^12..2^13 are the fastest, 2^10 and 2^15 about 1.3x slower
_ROW_CHUNK_ENTRIES = 2**12


def reduce_rows(R, pivots, V, p):
    """Residue of the rows of V against RREF rows R with the given pivot
    columns: V - V[:, pivots] R.  A row is zero exactly when it lies in the
    row space of R, and every residue is zero in the pivot columns."""
    V = as_mod_array(V, p)
    if R.shape[0] == 0:
        return V
    V -= matmul_mod(V[:, pivots], R, p)
    return V % p


def extend_rref(R, pivots, V, p):
    """Fold the rows of V into the RREF rows R: returns (R', pivots', S).

    V is reduced against R, and S holds the nonzero RREF rows of its
    residue: the part of V outside the old row space.  R' is the RREF of
    all rows (unique, whatever order the rows came in): R cleared in the
    new pivot columns, merged with S by pivot column.
    """
    res = reduce_rows(R, pivots, V, p)
    res = res[res.any(axis=1)]
    if res.shape[0] == 0:
        return R, pivots, res
    S, new = rref(res, p)
    S = S[: len(new)]
    if R.shape[0] == 0:
        return S, new, S
    merged = pivots + new
    order = np.argsort(merged, kind="stable")
    R = np.concatenate([reduce_rows(S, new, R, p), S])[order]
    return R, [merged[i] for i in order], S


def row_echelon(M, p):
    """(R, pivots): the nonzero rows of the RREF of M and their pivot
    columns.  An M of at most one row chunk goes to rref as it is; a tall
    one is folded in a chunk of rows at a time (extend_rref)."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    step = max(1, _ROW_CHUNK_ENTRIES // max(1, M.shape[1]))
    if M.shape[0] <= step:
        R, pivots = rref(M, p)
        return R[: len(pivots)], pivots
    R, pivots = np.zeros((0, M.shape[1]), dtype=np.int64), []
    for lo in range(0, M.shape[0], step):
        R, pivots, _ = extend_rref(R, pivots, M[lo : lo + step], p)
    return R, pivots


def rank(M, p):
    M = np.asarray(M)
    if M.size == 0:
        return 0
    return len(row_echelon(M, p)[1])


def row_space_basis(M, p):
    """Canonical basis of the row space: the nonzero rows of the RREF."""
    return row_echelon(M, p)[0].copy()


def kernel(M, p):
    """Canonical basis of the right null space, one vector per row.

    Shape (nullity, ncols); rows ordered by their free-column index.
    """
    n = np.shape(M)[1]
    R, pivots = row_echelon(M, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    out = np.zeros((len(free), n), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = (-R[:, free].T) % p
    return out


def unit_columns(B):
    """u with column u[r] of B the unit vector e_r for every row r: a
    column whose one nonzero entry is a 1 in row r, the first such column
    of each row.  None when some row has none.  B's entries are reduced.

    An RREF basis has one per row, at its pivots, and a kernel basis at its
    free columns.  Rows that have them are independent, as B[:, u] = I, and
    the coordinates of a vector v of their span are v[u].
    """
    unit = (B == 1) & (np.count_nonzero(B, axis=0) == 1)
    if not unit.any(axis=1).all():
        return None
    return unit.argmax(axis=1) if unit.size else np.zeros(0, dtype=np.intp)


def coordinates(B, V, p):
    """C with C B = V for independent rows B, or None when B is dependent or
    some row of V lies outside the row space of B.

    When B has a unit column per row (unit_columns), C = V[:, u] is read
    off V, with no elimination.  Otherwise one row_echelon of [B | I_k]
    gives [R | E] with E B = R.  Every pivot of an independent B lies among
    its own columns, and a row v of its span is v[pivots] R =
    v[pivots] E B, so C = V[:, pivots] E.  Either way the product C B is
    compared with V, which refuses the rows outside the span.
    """
    B, V = as_mod_array(B, p), as_mod_array(V, p)
    k, n = B.shape
    u = unit_columns(B)
    if u is not None:
        C = V[:, u]
    else:
        RE, pivots = row_echelon(
            np.concatenate([B, np.eye(k, dtype=np.int64)], axis=1), p
        )
        if pivots and pivots[-1] >= n:
            return None
        C = matmul_mod(V[:, pivots], RE[:, n:], p)
    if not np.array_equal(matmul_mod(C, B, p), V):
        return None
    return C


def inverse(M, p):
    """Inverse of a square matrix, or None if singular."""
    n = len(M)
    if np.shape(M) != (n, n):
        raise ValueError("inverse expects a square matrix")
    return coordinates(M, np.eye(n, dtype=np.int64), p)


# float32 products are exact while every inner product stays under 2^24,
# float64 ones while it stays under 2^53, int64 ones under 2^63
_FLOAT32_SAFE = 2**24
_FLOAT_SAFE = 2**53
_INT64_SAFE = 2**63
# products of at most this many multiply-adds (m k n times the stack size)
# run on numpy's int64 matmul, which makes no float copy.  Timed on the
# products the perfbench workloads make (one BLAS thread), it beats BLAS up
# to between 2^12 and 2^13 of them at p = 97, where BLAS runs in float32
# (a matmul_mod call on float32 against int64: 1 x 50 x 50 11.8 against
# 10.8 us, 5 x 50 x 5 11.9 against 7.4, 3 x 40 x 50 8.8 against 9.4,
# 40 x 40 x 4 9.6 against 15.8), and up to about 2^15 at p > 2^27, where
# both kernels split B into limbs
_SMALL_MACS = 2**13
# the int64 sums of exact K-slice products (each < 2^53) are reduced mod p
# after this many slices, so they stay under 2^63
_REDUCE_EVERY = 2**9
# below this many entries _reduce_in_place takes one `%=`: timed on int64
# arrays at p = 97, `%=` against floor division is 1.1 against 3.3 us at 4
# entries, 2.3 against 3.8 at 250, 5.4 against 5.5 at 1,000 and 11.7
# against 8.6 at 2,500
_MOD_ENTRIES = 2**10
# the float copies an Operand keeps, by kind: its entries whole in float32
# or in float64, or its two 16-bit limbs in float64
_WHOLE32, _WHOLE64, _LIMBS = np.float32, False, True


class Operand:
    """A matrix reduced mod p, with the float copies matmul_mod feeds BLAS.

    A copy is made the first time a product needs it and kept, under its
    kind: the entries whole in float32 (both operands of a product whose
    sums stay under 2^24), whole in float64 (both operands of a product
    whose sums stay under 2^53, and the left operand of a limb product),
    and the two 16-bit limbs M >> 16 and M & 0xFFFF in float64 (the right
    operand of a limb product).  A multiplication table of dimension n
    with n (p-1)^2 < 2^24 (n <= 1,820 at p = 97) thus keeps one float32
    copy.  A product small enough for the int64 kernel reads the ints and
    makes no copy.  matmul_mod converts a plain array afresh on every call;
    keeping an Operand for a matrix used again and again (a multiplication
    table) converts it once.  reshape gives a view of the same entries in
    another shape that shares those copies: one conversion serves every
    shape.
    """

    __slots__ = ("p", "ints", "shape", "_parts")

    def __init__(self, M, p):
        self.p = p
        self.ints = _reduced(M, p)
        self.shape = self.ints.shape
        self._parts = {}

    def reshape(self, *shape):
        """This operand's entries in another shape, sharing its float copies."""
        view = Operand.__new__(Operand)
        view.p, view.ints = self.p, self.ints.reshape(shape)
        view.shape, view._parts = view.ints.shape, self._parts
        return view

    def parts(self, kind):
        """The float copies of one kind, in this operand's shape: (M,) in
        float32 for _WHOLE32, (M,) in float64 for _WHOLE64 (False), and
        (M >> 16, M & 0xFFFF) in float64 for _LIMBS (True)."""
        got = self._parts.get(kind)
        if got is None:
            got = self._parts[kind] = _float_parts(self.ints, kind)
        return tuple(x.reshape(self.shape) for x in got)


def _float_parts(M, kind):
    """The float copies of M of one kind (see Operand.parts)."""
    if kind is _LIMBS:
        return (M >> 16).astype(np.float64), (M & 0xFFFF).astype(np.float64)
    return (M.astype(np.float32 if kind is _WHOLE32 else np.float64),)


def _ints(X, p):
    """The reduced int64 entries of an array or an Operand for p."""
    if isinstance(X, Operand):
        if X.p != p:
            raise ValueError("operand prepared for another modulus")
        return X.ints
    return _reduced(X, p)


def _parts(X, ints, kind):
    """X.parts(kind), cached for an Operand, made afresh for an array."""
    return X.parts(kind) if isinstance(X, Operand) else _float_parts(ints, kind)


def _reduced(M, p):
    """M itself when it is already an int64 array with entries in [0, p):
    one unsigned scan, since a negative entry reads as at least 2^63."""
    if (isinstance(M, np.ndarray) and M.dtype == np.int64
            and (M.size == 0 or M.view(np.uint64).max() < p)):
        return M
    return as_mod_array(M, p)


def matmul_mod(A, B, p):
    """Exact A @ B mod p for any odd p < 2^31.

    A and B are arrays (any integers; reduced here) or Operands.  A is a
    matrix (m, K) and B a matrix (K, n) or a stack (..., K, n), which gives
    the stack (..., m, n) of the products A @ B[...].  The kernel is
    _product's.
    """
    a, b = _ints(A, p), _ints(B, p)
    if a.ndim != 2 or b.ndim < 2 or b.shape[-2] != a.shape[1]:
        raise ValueError("matmul_mod expects a matrix (m, k) times a matrix "
                         "or a stack (..., k, n)")
    return _product(A, B, a, b, p)


def _product(A, B, a, b, p):
    """Exact a @ b mod p for reduced int64 a (..., m, K) and b (..., K, n),
    their stacks broadcast as np.matmul does, and any modulus p < 2^31,
    prime or not.  A and B are what a and b were read from: an Operand
    lends its cached float copies, an array passes itself.  The path is
    chosen by K (p-1)^2:

    - at most _SMALL_MACS multiply-adds over the whole stack: numpy's int64
      matmul on the reduced entries, one product while K (p-1)^2 < 2^63,
      else two against the 16-bit limbs hi = b >> 16 and lo = b & 0xFFFF
      of b, (a @ hi mod p) 2^16 + a @ lo, exact while
      (p-1) 2^16 + K (p-1)(2^16-1) < 2^63 (K <= 2^16 at p = 2^31-1).
      Past that bound a small product goes on to BLAS;
    - else while K (p-1)^2 < 2^53: one BLAS product on the entries whole,
      in float32 while K (p-1)^2 < 2^24 (half the bytes of float64: every
      partial sum is an integer below 2^24, exact in float32 in whatever
      order BLAS adds the terms), else in float64.  At p = 97 float32
      holds up to K = 1,820;
    - else a stays whole in float64 (entries below 2^31 are exact there)
      and b is split into its limbs.  Each K-slice of
      S = (2^53-1) // ((p-1)(2^16-1)) terms (64 at 2^31-1, 128 at 2^30+3)
      takes two exact float products; their int64 sums are reduced every
      _REDUCE_EVERY slices, and (hi mod p) 2^16 + lo ends it mod p.
    """
    K = a.shape[-1]
    if a.shape[-2] * b.size <= _SMALL_MACS:
        if K * (p - 1) * (p - 1) < _INT64_SAFE:
            C = a @ b
            _reduce_in_place(C, p)
            return C
        if (p - 1) * 2**16 + K * (p - 1) * 0xFFFF < _INT64_SAFE:
            C = a @ (b >> 16)
            _reduce_in_place(C, p)
            C <<= 16
            C += a @ (b & 0xFFFF)
            _reduce_in_place(C, p)
            return C
    bound = K * (p - 1) * (p - 1)
    if bound < _FLOAT_SAFE:
        kind = _WHOLE32 if bound < _FLOAT32_SAFE else _WHOLE64
        (fa,) = _parts(A, a, kind)
        (fb,) = _parts(B, b, kind)
        C = (fa @ fb).astype(np.int64)
        _reduce_in_place(C, p)
        return C
    (fa,) = _parts(A, a, _WHOLE64)
    hi, lo = _parts(B, b, _LIMBS)
    step = _limb_slice(p)
    C = _sliced_product(fa, hi, step, p)
    _reduce_in_place(C, p)
    C <<= 16  # < 2^47, and the lo sum stays < 2^62 + p
    C += _sliced_product(fa, lo, step, p)
    _reduce_in_place(C, p)
    return C


def power_traces(M, k, q):
    """Tr(M[s]^k) mod q for a stack M (s, n, n), k >= 1 and any modulus
    q < 2^31, prime or not, by square-and-multiply on the stack, each step
    one stacked _product.  The last product is not formed, as
    Tr(X Y) = sum of X * Y^T: k = 3 takes one product and k = 5 two."""
    base = _reduced(M, q)
    if base.ndim != 3 or base.shape[1] != base.shape[2]:
        raise ValueError("power_traces expects a stack (s, n, n)")
    acc = None  # the product of the powers M^(2^j) for the bits of k done
    while k > 1:
        if k & 1:
            acc = base if acc is None else _product(acc, base, acc, base, q)
        base = _product(base, base, base, base, q)
        k >>= 1
    if acc is None:
        return np.trace(base, axis1=1, axis2=2) % q
    terms = acc * base.transpose(0, 2, 1)  # each below q^2 < 2^62
    _reduce_in_place(terms, q)
    return terms.sum(axis=(1, 2)) % q


def _limb_slice(p):
    """Terms per K-slice on the limb path: a whole entry times a limb is at
    most (p-1)(2^16-1), and a slice of them sums below 2^53."""
    return (_FLOAT_SAFE - 1) // ((p - 1) * 0xFFFF)


def _sliced_product(a, b, step, p):
    """a @ b in int64, one exact float64 product per K-slice of `step`
    terms; the running sum is reduced mod p every _REDUCE_EVERY slices."""
    C = (a[..., :step] @ b[..., :step, :]).astype(np.int64)
    for j, s in enumerate(range(step, a.shape[-1], step), 1):
        if j % _REDUCE_EVERY == 0:
            _reduce_in_place(C, p)
        C += (a[..., s : s + step] @ b[..., s : s + step, :]).astype(np.int64)
    return C


def _reduce_in_place(X, p):
    """X %= p.  Above _MOD_ENTRIES entries it is written with floor
    division, since numpy divides a large int64 array by a scalar about
    twice as fast as it takes the remainder; below, one `%=` costs less
    than the three calls."""
    if X.size < _MOD_ENTRIES:
        X %= p
    else:
        X -= X // p * p


def _stack_matvec(X, v, p):
    """Exact X @ v mod p over a stack: X (b, r, k), v (b, k) -> (b, r).

    Entries are reduced.  While k (p-1)^2 stays under the int64 bound the
    products are summed as they are; beyond it each product is reduced
    first, so the sum holds k terms below p.
    """
    if X.shape[-1] * (p - 1) * (p - 1) < _INT64_SAFE:
        return np.matmul(X, v[:, :, None])[:, :, 0] % p
    return ((X * v[:, None, :]) % p).sum(axis=2) % p
