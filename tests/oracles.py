"""Oracles the tests share, built only from the public multiplication maps."""

import numpy as np

from wedderburn import linalg


def hom_rows(A, f, e):
    """Canonical basis (rows) of f*A*e for idempotents f and e: the
    reduced-echelon basis of the image of x -> f x e, whose projector is
    rmat(e) @ lmat(f)."""
    proj = linalg.matmul_mod(A.rmat(e), A.lmat(f), A.p)
    return linalg.row_space_basis(proj.T, A.p)


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


def char_poly(M, p):
    """Characteristic polynomials det(T*I - M) of a stack of square matrices.

    M has shape (..., n, n); the result has shape (..., n + 1), each row
    lowest-first and monic.  A single matrix is a stack of one.  Hessenberg
    reduction by exact similarity transformations, applied to the whole
    stack one column at a time, then the determinant recurrence along the
    last column.  Works in any odd characteristic (no division by integer
    constants).
    """
    H = linalg.as_mod_array(M, p)
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
        rows %= p
        H[:, :, j + 1] += linalg._stack_matvec(H[:, :, j + 2:], u, p)
        H[:, :, j + 1] %= p
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
            cur[:, : m - 1] -= linalg._stack_matvec(
                polys[:, : m - 1, : m - 1].transpose(0, 2, 1), coef, p
            )
        cur %= p
    return polys[:, n].reshape(lead + (n + 1,))


def pairwise_chain_oracle(A):
    """The radical chain with one char_poly per pair of basis rows.

    R_0 is the kernel of the trace form; while k = p^i <= dim, R_i is the
    kernel, on the RREF rows x_1..x_m of R_{i-1}, of the Gram matrix
    G[s, t] = c_k(x_s x_t), the coefficient of T^(dim-k) in the
    characteristic polynomial of left multiplication by x_s x_t.  Returns
    (rows, stage_dims, nilpotency_index): the index is the least e with
    span(rows)^e = 0, 0 for no rows and None if the powers stop shrinking.
    """
    p, n = A.p, A.dim
    rows = linalg.row_space_basis(linalg.kernel(A.gram_matrix(), p), p)
    stage_dims = [len(rows)]
    k = p
    while k <= n and len(rows):
        m = len(rows)
        prods = A.products(rows, rows).reshape(m * m, n)
        G = char_poly(A.left(prods), p)[:, n - k].reshape(m, m)
        null = linalg.kernel(G, p)
        rows = linalg.row_space_basis(
            linalg.matmul_mod(null, rows, p) if len(null)
            else np.zeros((0, n), dtype=np.int64), p)
        stage_dims.append(len(rows))
        k *= p
    power, index = rows, 1
    while len(power):
        nxt = linalg.row_space_basis(A.products(power, rows).reshape(-1, n), p)
        if len(nxt) >= len(power):
            return rows, stage_dims, None
        power, index = nxt, index + 1
    return rows, stage_dims, index if len(rows) else 0


def eliminated_coordinates(B, V, p):
    """C with C B = V by elimination alone, or None when B is dependent or
    a row of V leaves its span: one row_echelon of [B | I_k] gives
    [R | E] with E B = R, and C = V[:, pivots] E, compared with V."""
    B, V = linalg.as_mod_array(B, p), linalg.as_mod_array(V, p)
    k, n = B.shape
    RE, pivots = linalg.row_echelon(
        np.concatenate([B, np.eye(k, dtype=np.int64)], axis=1), p)
    if pivots and pivots[-1] >= n:
        return None
    C = linalg.matmul_mod(V[:, pivots], RE[:, n:], p)
    return C if np.array_equal(linalg.matmul_mod(C, B, p), V) else None


def iso_oracle(result):
    """The iso solved, not read: the one inverse of the witness matrix
    iso_inverse, by elimination; None when it is singular."""
    n = result.dim
    return eliminated_coordinates(result.iso_inverse,
                                  np.eye(n, dtype=np.int64), result.p)


def pairing_dual_oracle(A, e, b):
    """The dual basis a in e*A with a[mu]*b[nu] = delta(mu,nu) e, solved by
    elimination over all n*dim columns of the pairing w_r*b[nu], w_r the
    canonical basis of e*A; None when the system has no solution."""
    p, n = A.p, len(b)
    W = linalg.row_space_basis(A.lmat(e).T, p)
    pairing = A.products(W, b).reshape(len(W), n * A.dim)
    alpha = eliminated_coordinates(
        pairing, np.kron(np.eye(n, dtype=np.int64), e), p)
    return None if alpha is None else linalg.matmul_mod(alpha, W, p)
