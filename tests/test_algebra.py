"""Structure-constant presentations: validation, products, corners, documents."""

import tracemalloc

import numpy as np
import pytest

from wedderburn import algebra
from wedderburn import (
    Algebra,
    cayley_fixture,
    from_doc,
    group_algebra,
    make_presentation,
    matrix_algebra,
    scramble,
)
from wedderburn.errors import (
    InternalInvariantViolation,
    InvalidDocument,
    NoIdentity,
    NotAssociative,
    NotCommutative,
    NotIdempotent,
)


def oracle_mul(sc, x, y, p):
    """Textbook double sum, no matrix tricks."""
    n = len(x)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for k in range(n):
                    out[k] = (out[k] + x[i] * y[j] * sc[i][j][k]) % p
    return out


def oracle_first_failure(sc, p):
    """First (i, j, k) in lexicographic order with (b_i b_j) b_k != b_i (b_j b_k)."""
    n = len(sc)
    basis = [[int(i == t) for t in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = oracle_mul(sc, basis[i], basis[j], p)
            for k in range(n):
                lhs = oracle_mul(sc, ij, basis[k], p)
                jk = oracle_mul(sc, basis[j], basis[k], p)
                rhs = oracle_mul(sc, basis[i], jk, p)
                if lhs != rhs:
                    return (i, j, k)
    return None


def oracle_associative(sc, p):
    return oracle_first_failure(sc, p) is None


def c3_algebra(p=5):
    return group_algebra(cayley_fixture("C3"), p)


def m2(p=7):
    return matrix_algebra(p, 2).algebra


# -- construction ----------------------------------------------------------


def test_rejects_non_cube():
    with pytest.raises(InvalidDocument):
        make_presentation(5, np.zeros((2, 3, 2), dtype=int))


def test_rejects_non_associative_and_oracle_agrees():
    sc = np.array(m2().sc)
    sc[1, 2, 0] = (sc[1, 2, 0] + 1) % 7  # corrupt one constant
    assert not oracle_associative(sc.tolist(), 7)
    with pytest.raises(NotAssociative) as info:
        make_presentation(7, sc)
    i, j, k = info.value.witness
    # the witness triple really does violate associativity
    n = 4
    basis = [[int(t == s) for s in range(n)] for t in range(n)]
    lhs = oracle_mul(sc.tolist(), oracle_mul(sc.tolist(), basis[i], basis[j], 7), basis[k], 7)
    rhs = oracle_mul(sc.tolist(), basis[i], oracle_mul(sc.tolist(), basis[j], basis[k], 7), 7)
    assert lhs != rhs


@pytest.mark.parametrize("a", [0, 3, 5])
def test_witness_is_first_failure_in_first_middle_and_last_block(monkeypatch, a):
    # F_7^6 (b_i b_j = delta_ij b_i) with b_a b_b = b_a planted: every
    # triple with i < a still associates, so the first failure has i = a
    n, p, b = 6, 7, (a + 1) % 6
    sc = np.zeros((n, n, n), dtype=np.int64)
    sc[range(n), range(n), range(n)] = 1
    sc[a, b, a] = 1
    want = oracle_first_failure(sc.tolist(), p)
    assert want is not None and want[0] == a
    # blocks {0, 1}, {2, 3}, {4, 5}: a = 0, 3, 5 fail in the first, middle
    # (second row of the block) and last block
    monkeypatch.setattr(algebra, "_CHECK_ENTRIES", 2 * n**3)
    with pytest.raises(NotAssociative) as info:
        make_presentation(p, sc)
    assert info.value.witness == want


def test_associativity_check_memory_is_cubic():
    # dim 64: one n^4 int64 array alone would be 128 MiB
    sc = matrix_algebra(97, 8).algebra.sc.copy()
    tracemalloc.start()
    try:
        Algebra(97, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def corrupted_m2(p=7):
    """M_2(F_p) with E12 E21 = 2 E11: still unital, no longer associative."""
    sc = np.array(m2(p).sc)
    sc[1, 2, 0] = (sc[1, 2, 0] + 1) % p
    return sc


def diagonal_cube(k):
    """F_p^k in its idempotent basis: b_i b_j = delta_ij b_i."""
    sc = np.zeros((k, k, k), dtype=np.int64)
    sc[range(k), range(k), range(k)] = 1
    return sc


def spy_blocked_check(monkeypatch):
    calls = []
    blocked = Algebra._check_associativity

    def spy(self):
        calls.append(self.dim)
        return blocked(self)

    monkeypatch.setattr(Algebra, "_check_associativity", spy)
    return calls


def count_draws(monkeypatch):
    draws = []
    draw = Algebra.random_vec

    def counted(self, rng):
        draws.append(1)
        return draw(self, rng)

    monkeypatch.setattr(Algebra, "random_vec", counted)
    return draws


def test_nucleus_draws_that_generate_nothing_reach_the_blocked_check(monkeypatch):
    # multiples of 1 always lie in the left nucleus but never enlarge the
    # span of 1, so every draw is accepted, the cap runs out, and the
    # blocked check has the last word
    p, sc = 7, corrupted_m2()
    want = oracle_first_failure(sc.tolist(), p)
    assert want is not None
    assert Algebra(p, sc, validate=False).one.tolist() == [1, 0, 0, 1]
    monkeypatch.setattr(
        Algebra, "random_vec", lambda self, rng: self.one * rng.randrange(p) % p
    )
    calls = spy_blocked_check(monkeypatch)
    with pytest.raises(NotAssociative) as info:
        make_presentation(p, sc)
    assert calls == [4]
    assert info.value.witness == want


def test_element_outside_the_nucleus_hands_over_the_first_witness(monkeypatch):
    p, sc = 7, corrupted_m2()
    calls = spy_blocked_check(monkeypatch)
    with pytest.raises(NotAssociative) as info:
        make_presentation(p, sc)
    assert calls == [4]
    assert info.value.witness == oracle_first_failure(sc.tolist(), p)


def test_nucleus_failure_without_a_witness_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(Algebra, "_check_associativity", lambda self: None)
    with pytest.raises(InternalInvariantViolation):
        make_presentation(7, corrupted_m2())


def test_several_nucleus_generators_certify_without_the_blocked_check(monkeypatch):
    # one element of F_3^5 has at most 3 distinct coordinates, so it cannot
    # generate: the certificate needs a second draw
    def blocked(self):
        raise AssertionError("the blocked check ran")

    monkeypatch.setattr(Algebra, "_check_associativity", blocked)
    draws = count_draws(monkeypatch)
    A = make_presentation(3, diagonal_cube(5))
    assert A.one.tolist() == [1] * 5
    assert len(draws) >= 2


def test_exhausted_draw_cap_falls_back_and_accepts(monkeypatch):
    # F_3^6: the cap is ceil(log_3 6) + 2 = 4 draws, and the fixed seed's
    # four draws leave two coordinates equal, so they generate a proper
    # subalgebra and the blocked check decides
    calls = spy_blocked_check(monkeypatch)
    draws = count_draws(monkeypatch)
    A = make_presentation(3, diagonal_cube(6))
    assert calls == [6] and len(draws) == 4
    assert A.one.tolist() == [1] * 6


@pytest.mark.parametrize("identity", [None, [0, 1, 0, 0], [1, 0, 0]])
def test_non_associative_takes_precedence_over_identity_errors(identity):
    # no identity at all, a wrong one, and one of the wrong length
    p, sc = 7, corrupted_m2()
    if identity is None:
        sc[0, 0, 0] = 0  # E11 E11 = 0 as well
        with pytest.raises(NoIdentity):
            Algebra(p, sc, validate=False)
    want = oracle_first_failure(sc.tolist(), p)
    assert want is not None
    with pytest.raises(NotAssociative) as info:
        Algebra(p, sc, identity=identity)
    assert info.value.witness == want


def test_accepted_presentations_pass_oracle():
    for A in (c3_algebra(), m2(), group_algebra(cayley_fixture("S3"), 5)):
        assert oracle_associative(A.sc.tolist(), A.p)


def test_no_identity_rejected():
    # 1-dimensional algebra with b*b = 0 has no unit
    with pytest.raises(NoIdentity):
        make_presentation(5, np.zeros((1, 1, 1), dtype=int))


def test_identity_located():
    A = c3_algebra()
    assert A.one.tolist() == [1, 0, 0]
    assert m2().one.tolist() == [1, 0, 0, 1]  # E11 + E22


def test_wrong_declared_identity_rejected():
    with pytest.raises(NoIdentity):
        Algebra(5, c3_algebra().sc, identity=[0, 1, 0])


def test_label_length_checked():
    with pytest.raises(InvalidDocument):
        Algebra(5, c3_algebra().sc, labels=["a", "b"])


# -- products ---------------------------------------------------------------


def test_mul_matches_oracle():
    import random

    rng = random.Random(5)
    for A in (c3_algebra(), m2(), group_algebra(cayley_fixture("D4"), 7)):
        for _ in range(10):
            x = np.array([rng.randrange(A.p) for _ in range(A.dim)])
            y = np.array([rng.randrange(A.p) for _ in range(A.dim)])
            want = oracle_mul(A.sc.tolist(), x.tolist(), y.tolist(), A.p)
            assert A.mul_vec(x, y).tolist() == want


def test_products_at_the_largest_prime_match_oracle():
    # scrambled entries fill [0, p), so every product takes the limb path
    p = 2**31 - 1
    A, _ = scramble(group_algebra(cayley_fixture("S3"), p), seed=4)
    sc = A.sc.tolist()
    rng = np.random.default_rng(2)
    X = rng.integers(0, p, (3, A.dim))
    Y = rng.integers(0, p, (2, A.dim))
    for _ in range(2):  # the second round runs on the cached limb tables
        for x in X:
            L, R = A.lmat(x), A.rmat(x)
            for j in range(A.dim):
                e = [int(t == j) for t in range(A.dim)]
                assert L[:, j].tolist() == oracle_mul(sc, x.tolist(), e, p)
                assert R[:, j].tolist() == oracle_mul(sc, e, x.tolist(), p)
            for y in Y:
                want = oracle_mul(sc, x.tolist(), y.tolist(), p)
                assert A.mul_vec(x, y).tolist() == want
        prods = A.products(X, Y)
        for s, x in enumerate(X):
            for t, y in enumerate(Y):
                assert prods[s, t].tolist() == oracle_mul(
                    sc, x.tolist(), y.tolist(), p)
    assert set(A._ltable._parts) == {True} and set(A._rtable._parts) == {True}


def test_lmat_rmat_columns_are_products():
    A = m2()
    x = np.array([1, 2, 3, 4])
    L, R = A.lmat(x), A.rmat(x)
    for j in range(A.dim):
        e = np.eye(A.dim, dtype=int)[j]
        assert L[:, j].tolist() == A.mul_vec(x, e).tolist()
        assert R[:, j].tolist() == A.mul_vec(e, x).tolist()


def test_min_poly_vec():
    A = c3_algebra()
    g = np.array([0, 1, 0])
    # g has order 3: minimal polynomial T^3 - 1
    assert A.min_poly_vec(g).tolist() == [4, 0, 0, 1]


def test_center_of_matrix_algebra_is_scalars():
    A = m2()
    Z = A.center_basis()
    assert len(Z) == 1 and Z[0].tolist() == [1, 0, 0, 1]
    assert not A.is_commutative()
    with pytest.raises(NotCommutative):
        A.require_commutative()


def test_center_of_group_algebra_of_abelian_group_is_everything():
    A = c3_algebra()
    assert len(A.center_basis()) == 3 and A.is_commutative()


def test_frobenius_fixed_space_counts_blocks():
    from wedderburn import linalg

    # over F_5, C3 splits into 2 blocks; over F_7 into 3
    for p, want in [(5, 2), (7, 3)]:
        A = c3_algebra(p)
        F = A.frobenius_matrix()
        eye = np.eye(A.dim, dtype=int)
        assert len(linalg.kernel((F - eye) % p, p)) == want


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_frobenius_matrix_matches_per_vector_powers(p):
    A, _ = scramble(group_algebra(cayley_fixture("C4"), p), seed=3)
    F = A.frobenius_matrix()
    for i, b in enumerate(np.eye(A.dim, dtype=np.int64)):
        assert F[:, i].tolist() == A.pow_vec(b, p).tolist()


# -- corners and hom spaces --------------------------------------------------


def test_corner_of_e11():
    A = m2()
    e11 = np.array([1, 0, 0, 0])
    sub = A.corner(e11)
    assert sub.dim == 1
    assert sub.rows.tolist() == [[1, 0, 0, 0]]
    assert sub.identity_parent.tolist() == e11.tolist()
    # corner algebra is the ground field
    assert sub.algebra.sc.tolist() == [[[1]]]


def test_corner_of_identity_is_whole_algebra():
    A = m2()
    sub = A.corner(A.one)
    assert sub.dim == 4


def test_corner_of_zero_is_zero_algebra():
    A = m2()
    sub = A.corner(np.zeros(4, dtype=int))
    assert sub.dim == 0


def test_corner_requires_idempotent():
    A = m2()
    with pytest.raises(NotIdempotent):
        A.corner(np.array([0, 1, 0, 0]))  # E12 squares to zero


def test_hom_space_between_diagonal_idempotents():
    A = m2()
    e11 = np.array([1, 0, 0, 0])
    e22 = np.array([0, 0, 0, 1])
    # f A e with f = E11, e = E22 is spanned by E12
    H = A.hom_space(e11, e22)
    assert H.tolist() == [[0, 1, 0, 0]]
    H2 = A.hom_space(e22, e11)
    assert H2.tolist() == [[0, 0, 1, 0]]
    # e A e back to itself
    assert A.hom_space(e11, e11).tolist() == [[1, 0, 0, 0]]


def test_subalgebra_round_trip():
    A = m2()
    sub = A.corner(np.array([1, 0, 0, 0]))
    local = sub.from_parent(np.array([3, 0, 0, 0]))
    assert local.tolist() == [3]
    assert sub.to_parent(local).tolist() == [3, 0, 0, 0]
    assert sub.from_parent(np.array([0, 1, 0, 0])) is None  # outside


# -- documents ----------------------------------------------------------------


def test_doc_round_trip():
    A = group_algebra(cayley_fixture("S3"), 5)
    doc = A.to_doc()
    assert doc["p"] == 5 and doc["dim"] == 6
    B = from_doc(doc)
    assert B.p == A.p and np.array_equal(B.sc, A.sc)


def test_from_doc_validates():
    with pytest.raises(InvalidDocument):
        from_doc({"p": 5, "dim": 2})  # missing constants
    with pytest.raises(InvalidDocument):
        from_doc({"p": 5, "dim": 3, "structure_constants": [[[0]]],
                  "identity": [1]})  # dim mismatch
    doc = c3_algebra().to_doc()
    doc["structure_constants"][0][0][0] = "x"
    with pytest.raises(InvalidDocument):
        from_doc(doc)
