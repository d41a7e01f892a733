"""Exact modular linear algebra: oracles and frozen examples."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedderburn import linalg
from wedderburn.linalg import (
    coordinates,
    inverse,
    kernel,
    matmul_mod,
    rank,
    row_echelon,
    row_space_basis,
    rref,
)

from oracles import char_poly, eliminated_coordinates


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
    rng = np.random.default_rng(3)
    # float32 holds sums below 2^24, so at p = 1031 a product of K = 15
    # runs on float32 and one of K = 16 on float64.  Row 1 times column 1
    # is K - 1 terms (p-1)^2 and one (p-2)^2: an odd number, past 2^24 at
    # K = 16, which float32 would round.  The products, of a matrix and of
    # a stack, are too large for the int64 kernel
    p = 1031
    assert 15 * (p - 1) ** 2 < linalg._FLOAT32_SAFE <= 16 * (p - 1) ** 2
    for K in (15, 16):
        A = rng.integers(0, p, (40, K))
        B = rng.integers(0, p, (3, K, 24))
        A[:2], B[:, :, :2] = p - 1, p - 1
        A[1, 0], B[:, 0, 1] = p - 2, p - 2
        assert len(A) * B[0].size > linalg._SMALL_MACS
        assert matmul_mod(A, B[0], p).tolist() == int_oracle(A, B[0], p)
        got = matmul_mod(A, B, p)
        for s in range(len(B)):
            assert got[s].tolist() == int_oracle(A, B[s], p)
    # on the BLAS limb path a K-slice holds S terms, so these K take one to
    # five slices, whose int64 sums are recombined mod p once
    monkeypatch.setattr(linalg, "_SMALL_MACS", 0)
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
    # keeps its entries whole in float64: on the plain float path both are
    # whole, here in float32
    if 5 * (p - 1) ** 2 >= linalg._FLOAT_SAFE:
        counts = {linalg._WHOLE64: 1, linalg._LIMBS: 2}
    else:
        counts = {linalg._WHOLE32: 1}
    assert set(base._parts) == set(counts)
    for view in (pairs, cube):
        for key, count in counts.items():
            got, want = view.parts(key), base.parts(key)
            assert len(got) == len(want) == count
            for g, w in zip(got, want):
                assert g.shape == view.shape and np.shares_memory(g, w)


@pytest.mark.parametrize("p, kind, dtype",
                         [(97, linalg._WHOLE32, np.float32),
                          (65537, linalg._WHOLE64, np.float64)],
                         ids=["float32", "float64"])
def test_a_table_keeps_one_float_copy(p, kind, dtype):
    # a table (n, n^2) read as an algebra's left, right and pair_products
    # read it, in products too large for the int64 kernel: K = n, so at
    # p = 97 every product runs on float32 and at 65537 on float64 whole,
    # and the table keeps that one copy
    n = 16
    rng = np.random.default_rng(p)
    table = linalg.Operand(rng.integers(0, p, (n, n * n)), p)
    X = rng.integers(0, p, (3, n))
    ints = table.ints.reshape(n, n, n)
    left = matmul_mod(X, table, p).reshape(3, n, n)
    right = matmul_mod(X, table.reshape(n, n, n), p)
    pairs = matmul_mod(table.reshape(n * n, n), X.T, p)
    assert min(left.size, right.size, pairs.size) * n > linalg._SMALL_MACS
    for j in range(n):
        assert left[:, j].tolist() == int_oracle(X, ints[:, j], p)
        assert right[j].tolist() == int_oracle(X, ints[j], p)
        assert pairs[j * n : (j + 1) * n].tolist() == int_oracle(ints[j], X.T, p)
    assert set(table._parts) == {kind}
    assert table.parts(kind)[0].dtype == dtype


def trace_power_oracle(M, k, q):
    """Tr(M[s]^k) mod q for each matrix of a stack, in Python integers."""
    return [int(np.trace(np.linalg.matrix_power(X.astype(object), k))) % q
            for X in M]


# moduli on each BLAS path of the stacked kernel at K = 6: float32 (9,
# 25), float64 (3^13, as 6 (q-1)^2 >= 2^24) and limbs (3^19 and 2^31 - 1,
# as 6 (q-1)^2 >= 2^53).  On the int64 kernel, 3^19 still takes one product
# and 2^31 - 1 takes limbs.  All but the last are prime powers, not primes
@pytest.mark.parametrize("q", [9, 25, 3**13, 3**19, 2**31 - 1])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 9, 25])
def test_power_traces_match_int_oracle(kernels, q, k):
    rng = np.random.default_rng(k)
    M = rng.integers(0, q, (4, 6, 6))
    M[0] = q - 1  # the largest residues make every product as big as it gets
    M[1] = np.triu(M[1], 1)  # nilpotent: every power past the sixth is zero
    want = trace_power_oracle(M, k, q)
    for _ in kernels():
        got = linalg.power_traces(M, k, q)
        assert got.dtype == np.int64 and got.tolist() == want
        # unreduced entries are reduced first, and the input is left alone
        shifted = M + q * rng.integers(-2, 3, M.shape)
        before = shifted.copy()
        assert linalg.power_traces(shifted, k, q).tolist() == want
        assert np.array_equal(shifted, before)


def test_power_traces_of_an_empty_stack_and_bad_shapes():
    assert linalg.power_traces(np.zeros((0, 3, 3), dtype=np.int64), 5, 25).shape == (0,)
    with pytest.raises(ValueError):
        linalg.power_traces(np.zeros((2, 3, 4), dtype=np.int64), 3, 9)
    with pytest.raises(ValueError):
        linalg.power_traces(np.zeros((3, 3), dtype=np.int64), 3, 9)


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


def lifted(M, p, rng):
    """M + p K, K in [-2, 2] with both signs: entries below 0 and at least p."""
    K = rng.integers(-2, 3, M.shape)
    K.flat[:2] = [-1, 2]
    return M + p * K


@pytest.mark.parametrize("p", [3, 97, 2**31 - 1])
def test_unreduced_input_gives_the_reduced_result_and_is_left_alone(p):
    # a reduced input is copied after one scan, an unreduced one reduced:
    # both give the same result, and neither is written to
    rng = np.random.default_rng(7)
    M = low_rank(rng, 9, 7, 4, p)
    # independent rows with no unit column, which coordinates eliminates,
    # and their RREF, whose coordinates it reads
    B = 2 * np.concatenate([np.tri(3, dtype=np.int64),
                            np.ones((3, 4), dtype=np.int64)], axis=1)
    W = row_space_basis(B, p)
    V = matmul_mod(rng.integers(0, p, (5, 3)), B, p)
    ops = {
        "row_echelon": lambda M, B, W, V: row_echelon(M, p),
        "rank": lambda M, B, W, V: rank(M, p),
        "kernel": lambda M, B, W, V: kernel(M, p),
        "row_space_basis": lambda M, B, W, V: row_space_basis(M, p),
        "coordinates, eliminated": lambda M, B, W, V: coordinates(B, V, p),
        "coordinates, read": lambda M, B, W, V: coordinates(W, V, p),
    }
    inputs = (M, B, W, V)
    lifts = tuple(lifted(X, p, rng) for X in inputs)
    assert all((X < 0).any() and (X >= p).any() for X in lifts)
    for name, op in ops.items():
        results = []
        for args in (inputs, lifts):
            kept = [X.copy() for X in args]
            results.append(op(*args))
            assert all(np.array_equal(X, Y) for X, Y in zip(args, kept)), name
        want, got = results
        if name == "row_echelon":
            assert np.array_equal(want[0], got[0]) and want[1] == got[1]
        else:
            assert np.array_equal(want, got), name
    assert linalg.unit_columns(B % p) is None
    assert coordinates(B, V, p) is not None


@pytest.mark.parametrize("p", [3, 97, 2**31 - 1])
@pytest.mark.parametrize("chunk", [7, 20, 64])
def test_one_chunk_and_many_chunks_give_one_echelon_form(monkeypatch, p, chunk):
    # 30 x 7 fits one default chunk, which goes to rref as it is; a chunk
    # of 7..64 entries folds it in 1..9 rows at a time
    rng = np.random.default_rng(chunk)
    M = lifted(low_rank(rng, 30, 7, 5, p), p, rng)
    calls = []
    real = linalg.extend_rref
    monkeypatch.setattr(linalg, "extend_rref",
                        lambda *args: calls.append(1) or real(*args))
    R, pivots = row_echelon(M, p)
    assert calls == []
    monkeypatch.setattr(linalg, "_ROW_CHUNK_ENTRIES", chunk)
    R2, pivots2 = row_echelon(M, p)
    assert len(calls) > 1
    assert pivots2 == pivots and np.array_equal(R2, R)
    assert (R.tolist(), pivots) == oracle_rref(M.tolist(), p)


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


def test_unit_columns_of_reduced_and_kernel_bases():
    B = np.array([[0, 1, 2, 0, 3], [0, 0, 0, 1, 4]])
    assert linalg.unit_columns(B).tolist() == [1, 3]  # the pivots
    assert linalg.unit_columns(kernel(B, 7)).tolist() == [0, 2, 4]  # free
    # the first unit column of each row, in any order of the rows
    assert linalg.unit_columns(np.array([[0, 1, 1], [1, 0, 0]])).tolist() == [1, 0]
    # a 2 and a column with two nonzeros are no unit columns
    assert linalg.unit_columns(np.array([[2, 1], [0, 1]])) is None
    assert linalg.unit_columns(np.zeros((0, 3), dtype=np.int64)).tolist() == []


def _read_path_bases(p):
    """(name, B, V, has unit columns): the bases coordinates meets, with a
    span check both inside and with one row outside the span."""
    rng = np.random.default_rng(p % 1000 + 3)
    M = rng.integers(0, p, (4, 9))
    reduced, null = row_space_basis(M, p), kernel(M, p)
    # a generic invertible combination of the reduced rows
    mixed = matmul_mod(np.array([[1, 1, 0, 0], [1, 2, 1, 0], [0, 1, 3, 1],
                                 [2, 0, 1, 1]]), reduced, p)
    dependent = reduced.copy()
    dependent[-1] = (reduced[0] + reduced[1]) % p
    cases = []
    for name, B, read in [("rref", reduced, True), ("kernel", null, True),
                          ("mixed", mixed, False),
                          ("dependent", dependent, False)]:
        inside = matmul_mod(rng.integers(0, p, (3, len(B))), B, p)
        outside = inside.copy()
        outside[1] = (outside[1] + rng.integers(1, p, B.shape[1])) % p
        cases += [(name, B, inside, read), (name + " outside", B, outside, read)]
    return cases


@pytest.mark.parametrize("p", [3, 97, 2**31 - 1])
def test_coordinates_read_what_elimination_solves(monkeypatch, p):
    cases = _read_path_bases(p)
    want = [eliminated_coordinates(B, V, p) for _, B, V, _ in cases]
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda M, p: calls.append(M.shape) or real(M, p))
    for (name, B, V, read), expected in zip(cases, want):
        assert (linalg.unit_columns(B) is not None) == read, name
        del calls[:]
        got = coordinates(B, V, p)
        # the read path eliminates nothing
        assert (calls == []) == read, name
        if "outside" in name or name == "dependent":
            assert expected is None and got is None, name
        else:
            assert expected is not None and np.array_equal(got, expected), name


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


# -- rref with delayed reduction --------------------------------------------

# rref reduces between pivots never at p = 97, every 6 updates at 2^30+3 and
# after each one at 2^31-1
RREF_PRIMES = [3, 97, 2**30 + 3, 2**31 - 1]


def assert_rref_matches_oracle(M, p):
    R, pivots = rref(M, p)
    want, want_pivots = oracle_rref(np.asarray(M).tolist(), p)
    assert pivots == want_pivots
    assert R.shape == np.shape(M) and R.dtype == np.int64
    assert R[: len(pivots)].tolist() == want
    assert not R[len(pivots):].any()


@given(
    st.integers(1, 80),
    st.integers(1, 60),
    st.integers(0, 60),
    st.lists(st.integers(0, 59), max_size=12),
    st.sampled_from(RREF_PRIMES),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_rref_matches_oracle_on_rank_deficient_matrices(m, n, r, zero_cols, p,
                                                        seed):
    rng = np.random.default_rng(seed)
    M = low_rank(rng, m, n, min(r, m, n), p)
    M[:, [c for c in zero_cols if c < n]] = 0
    assert_rref_matches_oracle(M, p)


@pytest.mark.parametrize("p", RREF_PRIMES)
def test_rref_of_one_row(p):
    R, pivots = rref(np.zeros((1, 5), dtype=np.int64), p)
    assert pivots == [] and R.tolist() == [[0] * 5]
    row = np.array([[0, 0, p - 1, 2, 1]])
    R, pivots = rref(row, p)
    # -1 leads, so the row is negated
    assert pivots == [2] and R.tolist() == [[0, 0, 1, p - 2, p - 1]]
    assert_rref_matches_oracle(row - 3 * p, p)
    assert rref(np.array([[0, 1, p - 1]]), p)[0].tolist() == [[0, 1, p - 1]]


@pytest.mark.parametrize("p", RREF_PRIMES)
@pytest.mark.parametrize("shape", [(4, 6), (1, 1), (0, 3), (3, 0)])
def test_rref_of_a_zero_matrix(p, shape):
    R, pivots = rref(np.zeros(shape, dtype=np.int64), p)
    assert pivots == [] and R.shape == shape and not R.any()


@pytest.mark.parametrize("p", RREF_PRIMES)
@pytest.mark.parametrize("n", [4, 10])
def test_rref_rows_below_the_rank_are_zero(p, n):
    # the rows below the rank are congruent to 0 after elimination, and are
    # left unreduced between pivots at p = 97 and 2^30 + 3; rref returns
    # them as zeros.  At n = 4 the last pivot is in the last column, so no
    # zero column reduces the matrix after it
    rng = np.random.default_rng(p % 1000 + n)
    M = low_rank(rng, 12, n, 4, p)
    R, pivots = rref(lifted(M, p, rng), p)
    assert R.shape == M.shape
    assert not R[len(pivots):].any()
    assert (R[: len(pivots)].tolist(), pivots) == oracle_rref(M.tolist(), p)


@pytest.mark.parametrize("p", [2**30 + 3, 2**31 - 1])
@pytest.mark.parametrize("seed", range(4))
def test_rref_of_full_rank_entries_near_p(p, seed):
    # entries p-4 .. p-1: the first rank-1 update subtracts products near
    # (p-1)^2.  At 2^31-1 a few unreduced updates in a row leave int64, so
    # the reduction after each one must run; at 2^30+3 the one every 6
    # updates runs in the middle of the loop
    M = p - 1 - np.random.default_rng(seed).integers(0, 4, (12, 12))
    R, pivots = rref(M, p)
    assert pivots == list(range(12))
    assert R.tolist() == np.eye(12, dtype=np.int64).tolist()
    assert_rref_matches_oracle(M, p)
    # the same rows with a dependent one at the end
    M[-1] = matmul_mod(np.arange(1, 12)[None, :], M[:-1], p)[0]
    assert_rref_matches_oracle(M, p)
