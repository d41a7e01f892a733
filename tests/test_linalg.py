"""Exact modular linear algebra: oracles and frozen examples."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedderburn.linalg import (
    char_poly,
    inverse,
    kernel,
    matmul_mod,
    min_poly,
    rank,
    row_space_basis,
    rref,
    solve_batch,
)


def oracle_matmul(A, B, p):
    """Plain int triple loop, no numpy arithmetic involved."""
    A = [[int(x) for x in row] for row in A]
    B = [[int(x) for x in row] for row in B]
    m, k = len(A), len(A[0])
    n = len(B[0])
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(n)]
        for i in range(m)
    ]


def random_matrix(rng, m, n, p):
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)])


# -- frozen examples -----------------------------------------------------


def test_rank_example():
    assert rank(np.array([[1, 2], [2, 4]]), 5) == 1


def test_solve_example():
    x = solve_batch(np.array([[1, 1], [0, 0]]), np.array([3, 0]), 5)
    assert x.tolist() == [3, 0]


def test_solve_inconsistent():
    assert solve_batch(np.array([[1, 1], [0, 0]]), np.array([3, 1]), 5) is None


def test_kernel_example():
    assert kernel(np.array([[1, 2]]), 5).tolist() == [[3, 1]]


def test_rref_reorders_and_scales():
    R, pivots = rref(np.array([[0, 2, 4], [3, 0, 3]]), 5)
    assert pivots == [0, 1]
    assert R.tolist() == [[1, 0, 1], [0, 1, 2]]


def test_rref_sees_hidden_dependence():
    # second row is 2x the first mod 5
    R, pivots = rref(np.array([[1, 2, 3], [2, 4, 1]]), 5)
    assert pivots == [0]
    assert R.tolist() == [[1, 2, 3], [0, 0, 0]]


def test_min_poly_of_companion_matrix():
    # companion matrix of T^3 + 2T + 1 over F_5
    C = np.array([[0, 0, -1], [1, 0, -2], [0, 1, 0]]) % 5
    assert min_poly(C, 5).tolist() == [1, 2, 0, 1]


def test_min_poly_of_identity_and_zero():
    assert min_poly(np.eye(3, dtype=int), 7).tolist() == [6, 1]  # T - 1
    assert min_poly(np.zeros((3, 3), dtype=int), 7).tolist() == [0, 1]


def test_char_poly_degree_and_known_matrix():
    M = np.array([[1, 1], [0, 1]])
    # (T-1)^2 = T^2 - 2T + 1
    assert char_poly(M, 5).tolist() == [1, 3, 1]


def test_char_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    import random

    rng = random.Random(42)
    for p in (5, 97):
        for n in (1, 2, 3, 5):
            M = random_matrix(rng, n, n, p)
            got = char_poly(M, p).tolist()
            sym = sympy.Matrix(M.tolist()).charpoly().all_coeffs()
            want = [int(c) % p for c in reversed(sym)]
            assert got == want, (p, M.tolist())


# -- randomized oracle checks --------------------------------------------


def test_matmul_matches_oracle_small_and_large_p():
    import random

    rng = random.Random(7)
    for p in (5, 97, 2**31 - 1):  # last one forces the chunked path
        for _ in range(5):
            A = random_matrix(rng, 3, 4, p)
            B = random_matrix(rng, 4, 2, p)
            assert matmul_mod(A, B, p).tolist() == oracle_matmul(A, B, p)


def test_matmul_handles_unreduced_inputs():
    A = np.array([[-1, 6]])
    B = np.array([[2], [7]])
    assert matmul_mod(A, B, 5).tolist() == oracle_matmul(A % 5, B % 5, 5)


def test_solve_batch_consistency():
    import random

    rng = random.Random(3)
    p = 7
    for _ in range(25):
        m, n, k = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 3)
        A = random_matrix(rng, m, n, p)
        X = solve_batch(A, random_matrix(rng, m, k, p), p)
        if X is not None:
            assert X.shape == (n, k)
    # solvable by construction: B = A X0
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        A = random_matrix(rng, m, n, p)
        X0 = random_matrix(rng, n, 2, p)
        B = matmul_mod(A, X0, p)
        X = solve_batch(A, B, p)
        assert X is not None
        assert np.array_equal(matmul_mod(A, X, p), B)


def test_kernel_rows_annihilate():
    import random

    rng = random.Random(9)
    for _ in range(20):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        M = random_matrix(rng, m, n, 5)
        K = kernel(M, 5)
        assert len(K) == n - rank(M, 5)
        if len(K):
            assert not matmul_mod(M, K.T, 5).any()


def test_inverse_round_trip():
    import random

    rng = random.Random(11)
    p = 97
    n = 4
    while True:
        M = random_matrix(rng, n, n, p)
        if rank(M, p) == n:
            break
    Minv = inverse(M, p)
    assert np.array_equal(matmul_mod(M, Minv, p), np.eye(n, dtype=int))
    assert inverse(np.array([[1, 2], [2, 4]]), 5) is None


def test_row_space_basis_is_route_independent():
    # same row space reached from different generating sets
    A = np.array([[1, 2, 3], [2, 4, 1]])
    B = np.array([[3, 6, 4], [1, 2, 3], [4, 8, 2]])  # sums/multiples of A rows
    assert row_space_basis(A, 5).tolist() == row_space_basis(B, 5).tolist()


# -- properties -----------------------------------------------------------


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from([3, 5, 7, 97]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_rref_properties(m, n, p, rng):
    M = random_matrix(rng, m, n, p)
    R, pivots = rref(M, p)
    assert len(pivots) <= min(m, n)
    # idempotent: reducing an RREF changes nothing
    R2, pivots2 = rref(R, p)
    assert np.array_equal(R, R2) and pivots == pivots2
    # pivot columns are unit vectors
    for r, c in enumerate(pivots):
        col = R[:, c]
        assert col[r] == 1 and not np.delete(col, r).any()


@given(st.integers(1, 4), st.sampled_from([5, 13]), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_min_poly_annihilates(n, p, rng):
    M = random_matrix(rng, n, n, p)
    q = min_poly(M, p)
    assert q[-1] == 1  # monic
    acc = np.zeros((n, n), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for c in q:
        acc = (acc + int(c) * power) % p
        power = matmul_mod(power, M, p)
    assert not acc.any()
    # and the characteristic polynomial is a multiple of it (degree check)
    assert len(q) <= n + 1

