"""Exact linear algebra over F_p on int64 numpy arrays.

All matrices carry canonical representatives in [0, p).
"""

import numpy as np


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


def rank(M, p):
    M = np.asarray(M)
    if M.size == 0:
        return 0
    return len(rref(M, p)[1])


def row_space_basis(M, p):
    """Canonical basis of the row space: the nonzero rows of the RREF."""
    R, pivots = rref(M, p)
    return R[: len(pivots)].copy()


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
    M = as_mod_array(M, p)
    n = M.shape[1]
    R, pivots = rref(M, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    out = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        out[i, f] = 1
        for j, c in enumerate(pivots):
            out[i, c] = (-int(R[j, f])) % p
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


def matmul_mod(A, B, p, reduce_a=True, reduce_b=True):
    """Exact A @ B mod p, routed through BLAS when the bound permits.

    reduce_a/reduce_b=False skip the input normalization; the caller then
    guarantees the operand is already int64 and reduced mod p (used for
    cached multiplication tables on the hot path).
    """
    A = as_mod_array(A, p) if reduce_a else A
    B = as_mod_array(B, p) if reduce_b else B
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("matmul_mod expects 2-D operands")
    K = A.shape[1]
    bound = (p - 1) * (p - 1)
    if K * bound < _FLOAT_SAFE:
        C = A.astype(np.float64) @ B.astype(np.float64)
        return np.asarray(np.rint(C), dtype=np.int64) % p
    chunk = max(1, _INT64_SAFE // bound)
    if K <= chunk:
        return (A @ B) % p
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for s in range(0, K, chunk):
        acc = (acc + A[:, s : s + chunk] @ B[s : s + chunk, :]) % p
    return acc


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
    raise AssertionError("minimal polynomial search exceeded the dimension bound")


def char_poly(M, p):
    """Characteristic polynomial det(T*I - M), lowest-first, monic.

    Hessenberg reduction by exact similarity transformations, then the
    determinant recurrence along the last column.  Works in any odd
    characteristic (no division by integer constants).
    """
    H = as_mod_array(M, p).copy()
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("char_poly expects a square matrix")
    if n == 0:
        return np.array([1], dtype=np.int64)
    for j in range(n - 2):
        piv_row = -1
        for i in range(j + 1, n):
            if H[i, j] != 0:
                piv_row = i
                break
        if piv_row == -1:
            continue
        if piv_row != j + 1:
            H[[j + 1, piv_row]] = H[[piv_row, j + 1]]
            H[:, [j + 1, piv_row]] = H[:, [piv_row, j + 1]]
        tinv = pow(int(H[j + 1, j]), p - 2, p)
        for i in range(j + 2, n):
            u = int(H[i, j]) * tinv % p
            if u:
                H[i] = (H[i] - u * H[j + 1]) % p
                H[:, j + 1] = (H[:, j + 1] + u * H[:, i]) % p
    # p_m(T) = (T - H[m-1,m-1]) p_{m-1}
    #          - sum_i H[i-1,m-1] * (prod of subdiagonals below row i) p_{i-1}
    polys = [np.array([1], dtype=np.int64)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = np.zeros(m + 1, dtype=np.int64)
        cur[1:] = prev
        cur[:-1] = (cur[:-1] - int(H[m - 1, m - 1]) * prev) % p
        cur %= p
        subprod = 1
        for i in range(m - 1, 0, -1):
            subprod = subprod * int(H[i, i - 1]) % p
            coef = int(H[i - 1, m - 1]) * subprod % p
            if coef:
                pi = polys[i - 1]
                cur[: len(pi)] = (cur[: len(pi)] - coef * pi) % p
        polys.append(cur)
    return polys[n]
