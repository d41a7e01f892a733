"""Exact modular linear algebra: oracles and frozen examples."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedderburn import linalg
from wedderburn.linalg import (
    char_poly,
    coordinates,
    inverse,
    kernel,
    matmul_mod,
    rank,
    row_space_basis,
    rref,
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


@pytest.fixture
def kernels(monkeypatch):
    """Iterate over it to run a test body on each kernel of matmul_mod:
    first every product counts as small (numpy's int64 matmul), then none
    does (float64 BLAS, whole or on limbs)."""

    def each():
        for macs in (2**62, 0):
            monkeypatch.setattr(linalg, "_SMALL_MACS", macs)
            yield

    return each


def test_matmul_matches_oracle_small_and_large_p(kernels):
    import random

    for _ in kernels():
        rng = random.Random(7)
        for p in (5, 97, 2**31 - 1):  # last one forces the limb paths
            for _ in range(5):
                A = random_matrix(rng, 3, 4, p)
                B = random_matrix(rng, 4, 2, p)
                assert matmul_mod(A, B, p).tolist() == oracle_matmul(A, B, p)


def test_matmul_handles_unreduced_inputs(kernels):
    A = np.array([[-1, 6]])
    B = np.array([[2], [7]])
    for _ in kernels():
        assert matmul_mod(A, B, 5).tolist() == oracle_matmul(A % 5, B % 5, 5)


def int_oracle(A, B, p):
    """A @ B mod p in Python integers (object arrays), any shape."""
    A, B = np.asarray(A).astype(object), np.asarray(B).astype(object)
    if A.shape[1] == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64).tolist()
    return ((A @ B) % p).tolist()


@pytest.mark.parametrize("p", [2**31 - 1, 2**30 + 3])
@pytest.mark.parametrize("K", [1, 63, 64, 65, 257])
def test_matmul_wide_primes_match_int_oracle(kernels, p, K):
    rng = np.random.default_rng(K)
    A = rng.integers(0, p, (5, K))
    B = rng.integers(0, p, (K, 3))
    # the largest residues make every limb product as big as it gets
    A[0], B[:, 0] = p - 1, p - 1
    A2 = A - 3 * p * rng.integers(0, 2, A.shape)
    B2 = B + p * rng.integers(0, 3, B.shape)
    for _ in kernels():
        assert matmul_mod(A, B, p).tolist() == int_oracle(A, B, p)
        # unreduced and negative entries are reduced first
        assert matmul_mod(A2, B2, p).tolist() == int_oracle(A, B, p)


def test_matmul_zero_size_operands(kernels):
    for _ in kernels():
        for p in (5, 2**31 - 1):
            for m, k, n in ((0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)):
                C = matmul_mod(np.ones((m, k), dtype=np.int64),
                               np.ones((k, n), dtype=np.int64), p)
                assert C.shape == (m, n) and C.dtype == np.int64 and not C.any()


def test_matmul_sums_limb_products_over_k_slices(monkeypatch):
    # on the BLAS limb path a K-slice holds S terms, so these K take one to
    # five slices, whose int64 sums are recombined mod p once
    monkeypatch.setattr(linalg, "_SMALL_MACS", 0)
    rng = np.random.default_rng(3)
    for p, S in ((2**31 - 1, 64), (2**30 + 3, 128)):
        assert linalg._limb_slice(p) == S
        for K in (S - 1, S, S + 1, 4 * S + 1):
            A = rng.integers(0, p, (4, K))
            B = rng.integers(0, p, (K, 6))
            A[0], B[:, 0] = p - 1, p - 1
            # odd terms (p - 2)(2^16 - 1), a lo limb of all ones: S + 1 of
            # them sum to an odd number past 2^53, which float64 rounds
            A[1], B[:, 1] = p - 2, (p - 1) // 2**16 * 2**16 - 1
            assert matmul_mod(A, B, p).tolist() == int_oracle(A, B, p)


def test_int64_limb_path_is_exact_at_its_largest_k(monkeypatch):
    # every entry p - 1: (p-1) 2^16 + K (p-1)(2^16-1) < 2^63 admits
    # K = 65536 at p = 2^31 - 1, and the sum K (p-1)^2 is K mod p
    monkeypatch.setattr(linalg, "_SMALL_MACS", 2**62)
    p = 2**31 - 1
    K = (2**63 - 1 - (p - 1) * 2**16) // ((p - 1) * 0xFFFF)
    assert K == 2**16
    for k, on_int64 in ((K, True), (K + 1, False)):
        B = linalg.Operand(np.full((k, 1), p - 1), p)
        assert matmul_mod(np.full((1, k), p - 1), B, p).tolist() == [[k % p]]
        # past the bound the product leaves int64 for BLAS limbs
        assert (not B._parts) == on_int64


@pytest.mark.parametrize("slices", [2**9 + 1, 2**10 + 1])
def test_limb_sums_are_reduced_every_few_hundred_slices(monkeypatch, slices):
    # every entry p - 1 at p = 2^31 - 1: each 64-term slice of the lo limbs
    # sums to nearly 2^53, so 2^10 + 1 slices pass 2^63 unless the running
    # sums are reduced on the way
    monkeypatch.setattr(linalg, "_SMALL_MACS", 0)
    p = 2**31 - 1
    K = slices * linalg._limb_slice(p)
    A, B = np.full((1, K), p - 1), np.full((K, 1), p - 1)
    assert matmul_mod(A, B, p).tolist() == [[K % p]]


def test_prepared_operand_matches_plain_arrays(kernels):
    rng = np.random.default_rng(11)
    for _ in kernels():
        for p in (97, 2**31 - 1):
            A = rng.integers(0, p, (6, 40))
            B = rng.integers(-p, 2 * p, (40, 9))
            want = int_oracle(A, B % p, p)
            prepared = linalg.Operand(B, p)
            assert matmul_mod(A, prepared, p).tolist() == want
            assert matmul_mod(linalg.Operand(A, p), prepared, p).tolist() == want
            # slices of the reduced ints, as the blocked associativity check takes
            assert matmul_mod(A, prepared.ints[:, 2:5], p).tolist() == [
                row[2:5] for row in want
            ]
            assert matmul_mod(linalg.Operand(A, p).ints[1:3], B, p).tolist() == want[1:3]
            with pytest.raises(ValueError):
                matmul_mod(A, prepared, 5)


@pytest.mark.parametrize("p", [97, 2**31 - 1])
@pytest.mark.parametrize("K", [40, 129])
def test_stacked_matmul_matches_int_oracle(kernels, p, K):
    # K = 129 takes three K-slices on the BLAS limb path at 2^31 - 1
    rng = np.random.default_rng(5)
    A = rng.integers(0, p, (3, K))
    cube = rng.integers(0, p, (6, K, 7))
    A[0], cube[0, :, 0] = p - 1, p - 1
    stacks = (
        cube,
        cube[1:5, :, 2:6],  # a non-contiguous slice
        cube.reshape(2, 3, K, 7),  # two stack axes
        linalg.Operand(cube, p),
        linalg.Operand(cube.reshape(6 * K, 7), p).reshape(6, K, 7),
    )
    for _ in kernels():
        for B in stacks:
            ints = B.ints if isinstance(B, linalg.Operand) else B
            got = matmul_mod(A, B, p)
            assert got.shape == ints.shape[:-2] + (3, ints.shape[-1])
            flat_got = got.reshape(-1, 3, ints.shape[-1])
            for s, Bs in enumerate(ints.reshape(-1, K, ints.shape[-1])):
                assert flat_got[s].tolist() == int_oracle(A, Bs, p)
        with pytest.raises(ValueError):
            matmul_mod(cube, A.T, p)  # the first operand must be a matrix
        with pytest.raises(ValueError):
            matmul_mod(A, cube[0, :, 0], p)
        with pytest.raises(ValueError):
            matmul_mod(A[:, 1:], cube, p)  # inner dimensions differ


@pytest.mark.parametrize("p", [97, 2**31 - 1])
def test_operand_reshape_shares_the_base_float_parts(monkeypatch, p):
    rng = np.random.default_rng(6)
    base = linalg.Operand(rng.integers(0, p, (5, 25)), p)
    pairs, cube = base.reshape(25, 5), base.reshape(5, 5, 5)
    assert np.shares_memory(cube.ints, base.ints)
    x = rng.integers(0, p, (1, 5))
    # the int64 kernel reads the ints and makes no float copy
    assert matmul_mod(x, cube, p).reshape(5, 5).tolist() == [
        int_oracle(x, base.ints.reshape(5, 5, 5)[i], p)[0] for i in range(5)
    ]
    assert not base._parts
    # on BLAS the first conversion, made through a view, is the base's as well
    monkeypatch.setattr(linalg, "_SMALL_MACS", 0)
    assert matmul_mod(x, cube, p).reshape(5, 5).tolist() == [
        int_oracle(x, base.ints.reshape(5, 5, 5)[i], p)[0] for i in range(5)
    ]
    assert matmul_mod(pairs, x.T, p).tolist() == int_oracle(
        base.ints.reshape(25, 5), x.T, p)
    # a right operand on limbs keeps its two limbs, and a left operand
    # keeps its entries whole: on the plain float path both are whole
    limbs = 5 * (p - 1) ** 2 >= linalg._FLOAT_SAFE
    assert set(base._parts) == {False, limbs}
    for view in (pairs, cube):
        for key, count in ((False, 1), (limbs, 2 if limbs else 1)):
            got, want = view.parts(key), base.parts(key)
            assert len(got) == len(want) == count
            for g, w in zip(got, want):
                assert g.shape == view.shape and np.shares_memory(g, w)


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


def oracle_coordinates(B, V, p):
    """C with C B = V from the oracle RREF of the transposed system
    [B^T | V^T], or None when B is dependent or V leaves its span."""
    k, m = len(B), len(V)
    n = len(B[0])
    aug = [[B[i][j] for i in range(k)] + [V[i][j] for i in range(m)]
           for j in range(n)]
    R, pivots = oracle_rref(aug, p)
    if pivots != list(range(k)):
        return None
    return [[R[t][k + i] for t in range(k)] for i in range(m)]


@pytest.mark.parametrize("p", [5, 2**31 - 1])
@pytest.mark.parametrize("k, n, m", [
    (60, 80, 30),  # [B | I] runs 140 columns wide: three row chunks
    (1, 7, 4),
    (5, 5, 3),     # a square basis: every vector lies in its span
])
def test_coordinates_match_oracle(p, k, n, m):
    rng = np.random.default_rng(k + n + m)
    B = rng.integers(0, p, (k, n))
    if k == 60:
        assert k > linalg._ROW_CHUNK_ENTRIES // (n + k)
    inside = matmul_mod(rng.integers(0, p, (m, k)), B, p)
    C = coordinates(B, inside, p)
    assert C.tolist() == oracle_coordinates(B.tolist(), inside.tolist(), p)
    # one row in the middle of V leaves the span (unless B is square)
    outside = inside.copy()
    outside[m // 2] = (outside[m // 2] + rng.integers(0, p, n)) % p
    want = oracle_coordinates(B.tolist(), outside.tolist(), p)
    assert (want is None) == (k < n)
    got = coordinates(B, outside, p)
    assert (got is None and want is None) or got.tolist() == want
    # a dependent basis: its last row is a combination of the others
    D = B.copy()
    D[-1] = matmul_mod(rng.integers(0, p, (1, k - 1)), B[:-1], p)[0]
    assert oracle_coordinates(D.tolist(), inside.tolist(), p) is None
    assert coordinates(D, inside, p) is None


def test_coordinates_of_an_empty_basis():
    B = np.zeros((0, 3), dtype=np.int64)
    assert coordinates(B, np.zeros((2, 3)), 7).shape == (2, 0)
    assert coordinates(B, np.array([[0, 1, 0]]), 7) is None


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_inverse_matches_oracle(p):
    rng = np.random.default_rng(p % 1000)
    for n in (1, 2, 5, 30, 90):
        M = rng.integers(0, p, (n, n))
        want = oracle_coordinates(M.tolist(), np.eye(n, dtype=int).tolist(), p)
        got = inverse(M, p)
        assert (got is None and want is None) or got.tolist() == want
        S = M.copy()
        S[0] = 2 * S[-1] % p if n > 1 else 0
        assert inverse(S, p) is None


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
