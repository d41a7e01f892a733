"""Exact linear algebra over F_p on int64 numpy arrays.

All matrices carry canonical representatives in [0, p).
"""

import numpy as np

from .errors import InternalInvariantViolation


def as_mod_array(data, p):
    """Copy data into a C-contiguous int64 array reduced mod p."""
    return np.ascontiguousarray(np.asarray(data, dtype=np.int64) % p)


def rref(M, p, pivot_cols=None):
    """Reduced row echelon form (copy).  Returns (R, pivot_column_list).

    When pivot_cols is given, pivots are confined to the first pivot_cols
    columns and the rest ride along as an augmented part.
    """
    R = as_mod_array(M, p)
    if R.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    if pivot_cols is None:
        pivot_cols = R.shape[1]
    rows = R.shape[0]
    pivots = []
    r = 0
    for c in range(pivot_cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        piv = int(R[r, c])
        if piv != 1:
            R[r] = (R[r] * pow(piv, p - 2, p)) % p
        colvals = R[:, c].copy()
        colvals[r] = 0
        hit = np.nonzero(colvals)[0]
        if hit.size:
            R[hit] = (R[hit] - colvals[hit, None] * R[r]) % p
        pivots.append(c)
        r += 1
    return R, pivots


# int64 entries of one row chunk of a tall system (32 KB): a chunk is
# reduced against the RREF so far with one matmul_mod, and only its nonzero
# residue goes through the pivot-at-a-time rref (on n^2 x n centre systems
# at n = 34 and 52, 2^11..2^13 entries were the fastest, 2^15 3x slower)
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
    columns.  A tall M is folded in a chunk of rows at a time."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    step = max(1, _ROW_CHUNK_ENTRIES // max(1, M.shape[1]))
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


def solve_batch(A, B, p):
    """Solve A X = B for X (free variables zero).  None if inconsistent.

    B may be a vector (one right-hand side) or a matrix of stacked columns.
    """
    A = as_mod_array(A, p)
    B = as_mod_array(B, p)
    vector_rhs = B.ndim == 1
    if vector_rhs:
        B = B[:, None]
    m, n = A.shape
    aug = np.concatenate([A, B], axis=1)
    R, pivots = rref(aug, p, pivot_cols=n)
    r = len(pivots)
    # rows below the pivot rows have zero coefficient part; any nonzero
    # residue there certifies inconsistency
    if r < m and np.any(R[r:, n:]):
        return None
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    for j, c in enumerate(pivots):
        X[c] = R[j, n:]
    return X[:, 0] if vector_rhs else X


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


def inverse(M, p):
    """Inverse of a square matrix, or None if singular."""
    M = as_mod_array(M, p)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("inverse expects a square matrix")
    X = solve_batch(M, np.eye(n, dtype=np.int64), p)
    if X is None:
        return None
    # consistency of the batch solve does not by itself certify full rank
    if not np.array_equal(matmul_mod(M, X, p), np.eye(n, dtype=np.int64)):
        return None
    return X


# float64 products are exact while the inner-product bound stays under 2^53
_FLOAT_SAFE = 2**53
_INT64_SAFE = 2**62
# entries below 2^31 split into 16-bit limbs hi < 2^15, lo < 2^16; the
# largest limb product sum, (hi + lo)(hi' + lo') < (3 * 2^15)^2 per term,
# stays exact over this many terms
_LIMB_SLICE = 2**19


class Operand:
    """A matrix reduced mod p, with the float64 copies matmul_mod feeds BLAS.

    matmul_mod wraps a plain array in a fresh Operand on every call; keeping
    one for a matrix used again and again (a multiplication table) converts
    it once.  Indexing gives a view whose copies are views of these.
    """

    __slots__ = ("p", "ints", "shape", "_parts", "_base")

    def __init__(self, M, p):
        self.p = p
        self.ints = _reduced(M, p)
        self.shape = self.ints.shape
        self._parts = {}
        self._base = None

    def __getitem__(self, index):
        view = Operand.__new__(Operand)
        view.p, view.ints = self.p, self.ints[index]
        view.shape, view._parts, view._base = view.ints.shape, {}, (self, index)
        return view

    def parts(self, wide):
        """(M,) as float64, or when wide the limbs (hi, lo, hi + lo)."""
        got = self._parts.get(wide)
        if got is None:
            if self._base is not None:
                base, index = self._base
                got = tuple(x[index] for x in base.parts(wide))
            elif wide:
                hi, lo = self.ints >> 16, self.ints & 0xFFFF
                got = tuple(x.astype(np.float64) for x in (hi, lo, hi + lo))
            else:
                got = (self.ints.astype(np.float64),)
            self._parts[wide] = got
        return got


def _reduced(M, p):
    """M itself when it is already an int64 array with entries in [0, p)."""
    if (isinstance(M, np.ndarray) and M.dtype == np.int64
            and (M.size == 0 or (M.min() >= 0 and M.max() < p))):
        return M
    return as_mod_array(M, p)


def matmul_mod(A, B, p):
    """Exact A @ B mod p on float64 BLAS, for any odd p < 2^31.

    A and B are arrays (any integers; reduced here) or Operands.  While
    K (p-1)^2 < 2^53 one float64 product is exact.  Beyond that both sides
    are split into 16-bit limbs and each K-slice of at most _LIMB_SLICE
    terms takes three exact products (Karatsuba), recombined mod p in int64.
    """
    A = A if isinstance(A, Operand) else Operand(A, p)
    B = B if isinstance(B, Operand) else Operand(B, p)
    if A.p != p or B.p != p:
        raise ValueError("operand prepared for another modulus")
    if len(A.shape) != 2 or len(B.shape) != 2:
        raise ValueError("matmul_mod expects 2-D operands")
    K = A.shape[1]
    if K * (p - 1) * (p - 1) < _FLOAT_SAFE:
        (a,), (b,) = A.parts(False), B.parts(False)
        C = (a @ b).astype(np.int64)
        _reduce_in_place(C, p)
        return C
    (ah, al, asum), (bh, bl, bsum) = A.parts(True), B.parts(True)
    C = 0  # wide means K >= 1, so the loop runs
    for s in range(0, K, _LIMB_SLICE):
        k = slice(s, s + _LIMB_SLICE)
        hh = ah[:, k] @ bh[k]
        ll = al[:, k] @ bl[k]
        cross = asum[:, k] @ bsum[k]
        cross -= hh
        cross -= ll
        # C + hh 2^32 + cross 2^16 + ll by Horner; every int64 stays < 2^53
        part = hh.astype(np.int64)
        _reduce_in_place(part, p)
        part <<= 16
        part += cross.astype(np.int64)
        _reduce_in_place(part, p)
        part <<= 16
        part += ll.astype(np.int64)
        part += C
        _reduce_in_place(part, p)
        C = part
    return C


def min_poly(M, p):
    """Minimal polynomial of a square matrix, lowest-degree-first, monic.

    Incremental power stack: reduce each M^k against the span of the lower
    powers while tracking the combination, so the first dependency read off
    is exactly the minimal polynomial.
    """
    M = as_mod_array(M, p)
    n = M.shape[0]
    if n == 0:
        return np.array([1], dtype=np.int64)  # empty matrix: min poly 1
    stored = []  # (pivot_index, reduced_vec, combo_coeffs)
    current = np.eye(n, dtype=np.int64)
    for k in range(n + 1):
        v = current.reshape(-1).copy()
        combo = np.zeros(k + 1, dtype=np.int64)
        combo[k] = 1
        for piv, w, wc in stored:
            f = int(v[piv])
            if f:
                v = (v - f * w) % p
                combo[: len(wc)] = (combo[: len(wc)] - f * wc) % p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return combo
        piv = int(nz[0])
        inv = pow(int(v[piv]), p - 2, p)
        v = (v * inv) % p
        combo = (combo * inv) % p
        stored.append((piv, v, combo))
        current = matmul_mod(current, M, p)
    raise InternalInvariantViolation(
        "minimal polynomial search exceeded the dimension bound"
    )


def _inv_mod(t, p):
    """Elementwise t^(p-2) mod p: the inverse of each nonzero entry, 0 for 0."""
    out = np.ones_like(t)
    base = t % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _reduce_in_place(X, p):
    """X %= p, written with floor division: numpy divides an int64 array by
    a scalar several times faster than it takes the remainder."""
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


def char_poly(M, p):
    """Characteristic polynomials det(T*I - M) of a stack of square matrices.

    M has shape (..., n, n); the result has shape (..., n + 1), each row
    lowest-first and monic.  A single matrix is a stack of one.  Hessenberg
    reduction by exact similarity transformations, applied to the whole
    stack one column at a time, then the determinant recurrence along the
    last column.  Works in any odd characteristic (no division by integer
    constants).
    """
    H = as_mod_array(M, p)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise ValueError("char_poly expects a stack of square matrices")
    lead, n = H.shape[:-2], H.shape[-1]
    b = int(np.prod(lead, dtype=np.int64))
    H = H.reshape(b, n, n)
    for j in range(n - 2):
        # first nonzero entry below the subdiagonal position (j+1, j); a
        # matrix with none there gets piv = j + 1 and a zero multiplier
        piv = j + 1 + np.argmax(H[:, j + 1:, j] != 0, axis=1)
        moved = np.nonzero(piv != j + 1)[0]
        if moved.size:
            q = piv[moved]
            H[moved, j + 1], H[moved, q] = H[moved, q], H[moved, j + 1]
            H[moved, :, j + 1], H[moved, :, q] = H[moved, :, q], H[moved, :, j + 1]
        u = H[:, j + 2:, j] * _inv_mod(H[:, j + 1, j], p)[:, None] % p
        if not u.any():
            continue
        # rows i > j+1 lose u_i times row j+1, then column j+1 gains
        # u_i times column i: one similarity.  Row j+1 is zero left of
        # column j, so the row update starts there.
        rows = H[:, j + 2:, j:]
        rows -= u[:, :, None] * H[:, None, j + 1, j:]
        _reduce_in_place(rows, p)
        H[:, :, j + 1] += _stack_matvec(H[:, :, j + 2:], u, p)
        _reduce_in_place(H[:, :, j + 1], p)
    # p_m(T) = (T - H[m-1,m-1]) p_{m-1}
    #          - sum_i H[i-1,m-1] * (prod of subdiagonals below row i) p_{i-1}
    polys = np.zeros((b, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    sub = np.zeros((b, 0), dtype=np.int64)  # sub[:, i-1] = prod_{k=i}^{m-1} H[k,k-1]
    for m in range(1, n + 1):
        prev = polys[:, m - 1, :m]
        cur = polys[:, m, : m + 1]
        cur[:, 1:] = prev
        cur[:, :-1] -= H[:, m - 1, m - 1, None] * prev % p
        if m > 1:
            sub = np.concatenate([sub, np.ones((b, 1), dtype=np.int64)], axis=1)
            sub = sub * H[:, m - 1, m - 2, None] % p
            coef = H[:, : m - 1, m - 1] * sub % p
            cur[:, : m - 1] -= _stack_matvec(
                polys[:, : m - 1, : m - 1].transpose(0, 2, 1), coef, p
            )
        cur %= p
    return polys[:, n].reshape(lead + (n + 1,))
