"""Oracles the tests share, built only from the public multiplication maps."""

import numpy as np

from wedderburn import linalg


def hom_rows(A, f, e):
    """Canonical basis (rows) of f*A*e for idempotents f and e: the
    reduced-echelon basis of the image of x -> f x e, whose projector is
    rmat(e) @ lmat(f)."""
    proj = linalg.matmul_mod(A.rmat(e), A.lmat(f), A.p)
    return linalg.row_space_basis(proj.T, A.p)


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
        G = linalg.char_poly(A.left(prods), p)[:, n - k].reshape(m, m)
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
