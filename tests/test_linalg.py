"""Exact modular linear algebra: oracles and frozen examples."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedderburn import linalg
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


def sympy_char_poly(M, p):
    sympy = pytest.importorskip("sympy")
    if len(M) == 0:
        return [1]
    coeffs = sympy.Matrix([[int(x) for x in row] for row in M]).charpoly().all_coeffs()
    return [int(c) % p for c in reversed(coeffs)]


def hessenberg_stress_stack(rng, n, p):
    """Random matrices plus ones whose reduction needs a row swap (first
    subdiagonal entry zero, a nonzero further down) or skips a column
    (nothing below the subdiagonal to eliminate with)."""
    def rand(q=p):
        return random_matrix(rng, n, n, q).reshape(n, n)

    swap = rand()
    if n >= 3:
        swap[1, 0] = 0
        swap[n - 1, 0] = rng.randrange(1, p)
    upper = np.triu(rand())  # every column skipped
    sparse = rand() * (rand(4) == 0)
    zero = np.zeros((n, n), dtype=np.int64)
    return np.array([rand(), rand(), rand(), swap, upper, sparse, zero])


@pytest.mark.parametrize("p", [3, 5, 97, 2**31 - 1])
def test_char_poly_stack_against_sympy(p):
    import random

    rng = random.Random(p)
    for n in (0, 1, 2, 3, 4, 6):
        stack = hessenberg_stress_stack(rng, n, p)
        before = stack.copy()
        got = char_poly(stack, p)
        assert np.array_equal(stack, before)  # reduced on a copy
        assert got.shape == (7, n + 1)
        for M, row in zip(stack, got):
            assert row.tolist() == sympy_char_poly(M, p), (p, M.tolist())
            # a single matrix is a stack of one: same answer
            assert char_poly(M, p).tolist() == row.tolist()
        # leading stack axes are kept
        assert char_poly(stack[:6].reshape(2, 3, n, n), p).tolist() == (
            got[:6].reshape(2, 3, n + 1).tolist()
        )


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly(np.zeros((2, 3)), 5)
    with pytest.raises(ValueError):
        char_poly(np.zeros(3), 5)


# -- randomized oracle checks --------------------------------------------


def test_matmul_matches_oracle_small_and_large_p():
    import random

    rng = random.Random(7)
    for p in (5, 97, 2**31 - 1):  # last one forces the limb path
        for _ in range(5):
            A = random_matrix(rng, 3, 4, p)
            B = random_matrix(rng, 4, 2, p)
            assert matmul_mod(A, B, p).tolist() == oracle_matmul(A, B, p)


def test_matmul_handles_unreduced_inputs():
    A = np.array([[-1, 6]])
    B = np.array([[2], [7]])
    assert matmul_mod(A, B, 5).tolist() == oracle_matmul(A % 5, B % 5, 5)


def int_oracle(A, B, p):
    """A @ B mod p in Python integers (object arrays), any shape."""
    A, B = np.asarray(A).astype(object), np.asarray(B).astype(object)
    if A.shape[1] == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64).tolist()
    return ((A @ B) % p).tolist()


@pytest.mark.parametrize("p", [2**31 - 1, 2**30 + 3])
@pytest.mark.parametrize("K", [1, 63, 64, 65, 257])
def test_matmul_wide_primes_match_int_oracle(p, K):
    rng = np.random.default_rng(K)
    A = rng.integers(0, p, (5, K))
    B = rng.integers(0, p, (K, 3))
    # the largest residues make every limb product as big as it gets
    A[0], B[:, 0] = p - 1, p - 1
    assert matmul_mod(A, B, p).tolist() == int_oracle(A, B, p)
    # unreduced and negative entries are reduced first
    A2 = A - 3 * p * rng.integers(0, 2, A.shape)
    B2 = B + p * rng.integers(0, 3, B.shape)
    assert matmul_mod(A2, B2, p).tolist() == int_oracle(A, B, p)


def test_matmul_zero_size_operands():
    for p in (5, 2**31 - 1):
        for m, k, n in ((0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)):
            C = matmul_mod(np.ones((m, k), dtype=np.int64),
                           np.ones((k, n), dtype=np.int64), p)
            assert C.shape == (m, n) and C.dtype == np.int64 and not C.any()


def test_matmul_sums_limb_products_over_k_slices(monkeypatch):
    # slices of 16 terms: K = 257 takes 17 slices, each recombined mod p
    monkeypatch.setattr(linalg, "_LIMB_SLICE", 16)
    p = 2**31 - 1
    rng = np.random.default_rng(3)
    for K in (15, 16, 17, 257):
        A = rng.integers(0, p, (4, K))
        B = rng.integers(0, p, (K, 6))
        assert matmul_mod(A, B, p).tolist() == int_oracle(A, B, p)


def test_prepared_operand_matches_plain_arrays():
    rng = np.random.default_rng(11)
    for p in (97, 2**31 - 1):
        A = rng.integers(0, p, (6, 40))
        B = rng.integers(-p, 2 * p, (40, 9))
        want = int_oracle(A, B % p, p)
        prepared = linalg.Operand(B, p)
        assert matmul_mod(A, prepared, p).tolist() == want
        assert matmul_mod(linalg.Operand(A, p), prepared, p).tolist() == want
        # a view shares the cached copies of its base
        assert matmul_mod(A, prepared[:, 2:5], p).tolist() == [
            row[2:5] for row in want
        ]
        assert matmul_mod(linalg.Operand(A, p)[1:3], B, p).tolist() == want[1:3]
        with pytest.raises(ValueError):
            matmul_mod(A, prepared, 5)


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


def oracle_rref(M, p):
    """Textbook Gauss-Jordan on Python integers: (nonzero rows, pivots)."""
    R = [[int(x) % p for x in row] for row in M]
    pivots, r = [], 0
    for c in range(len(R[0]) if R else 0):
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        for j in range(len(R)):
            if j != r and R[j][c]:
                f = R[j][c]
                R[j] = [(x - f * y) % p for x, y in zip(R[j], R[r])]
        pivots.append(c)
        r += 1
    return R[:r], pivots


def low_rank(rng, m, n, r, p):
    """Random m x n matrix of rank at most r, with zero and repeated rows."""
    M = matmul_mod(rng.integers(0, p, (m, r)), rng.integers(0, p, (r, n)), p)
    M[rng.random(m) < 0.3] = 0
    M[rng.integers(0, m, m // 4)] = M[rng.integers(0, m, m // 4)]
    return M


@pytest.mark.parametrize("p", [5, 2**31 - 1])
@pytest.mark.parametrize("m, n, r, chunk", [
    (1500, 6, 4, None),    # tall: hundreds of rows per chunk, several chunks
    (600, 40, 25, None),   # centre-system shape: a chunk is about 100 rows
    (3, 300, 2, 2**8),     # rows wider than a chunk: one row at a time
    (40, 300, 40, 2**8),
])
def test_chunked_elimination_matches_oracle(monkeypatch, p, m, n, r, chunk):
    if chunk is not None:
        monkeypatch.setattr(linalg, "_ROW_CHUNK_ENTRIES", chunk)
    assert m * n > 2 * linalg._ROW_CHUNK_ENTRIES
    rng = np.random.default_rng(m + n)
    M = low_rank(rng, m, n, r, p)
    want, want_pivots = oracle_rref(M.tolist(), p)
    R, pivots = rref(M, p)
    assert pivots == want_pivots and R[: len(pivots)].tolist() == want
    assert row_space_basis(M, p).tolist() == want
    assert rank(M, p) == len(want_pivots)
    K = kernel(M, p)
    free = [c for c in range(n) if c not in set(want_pivots)]
    assert K.shape == (len(free), n)
    assert K[:, free].tolist() == np.eye(len(free), dtype=int).tolist()
    assert not matmul_mod(M, K.T, p).any()


@given(
    st.integers(0, 30),
    st.integers(1, 8),
    st.integers(1, 40),
    st.sampled_from([3, 97, 2**31 - 1]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_row_chunks_of_any_size_give_the_same_echelon_form(m, n, chunk, p, seed):
    rng = np.random.default_rng(seed)
    M = low_rank(rng, m, n, int(rng.integers(0, n + 1)), p) if m else (
        np.zeros((0, n), dtype=np.int64))
    want = (row_space_basis(M, p).tolist(), kernel(M, p).tolist())
    old = linalg._ROW_CHUNK_ENTRIES
    linalg._ROW_CHUNK_ENTRIES = chunk
    try:
        got = (row_space_basis(M, p).tolist(), kernel(M, p).tolist())
    finally:
        linalg._ROW_CHUNK_ENTRIES = old
    assert got == want
    assert want[0] == oracle_rref(M.tolist(), p)[0]


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

